#include "sta/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/parallel.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace m3d {

namespace {
constexpr double kNoArrival = -1e30;
/// Pins per parallelFor chunk inside one topological level.
constexpr std::int64_t kLevelGrain = 64;
/// Lower clamp of findMinPeriod [s] (50 ps).
constexpr double kMinPeriodFloor = 50.0 * 1e-12;
}

Sta::Sta(const Netlist& nl, const std::vector<NetParasitics>& paras, const ClockModel* clock,
         Corner corner, int numThreads)
    : nl_(nl), paras_(paras), clock_(clock), corner_(corner), numThreads_(numThreads) {
  assert(static_cast<int>(paras.size()) == nl.numNets());
  assert(corner_.delayDerate > 0.0);
  obs::ScopedPhase phase("sta.build");
  build();
}

int Sta::pinId(const NetPin& p) const {
  if (p.kind == NetPin::Kind::kPort) return p.port;
  return instPinBase_[static_cast<std::size_t>(p.inst)] + p.libPin;
}

NetPin Sta::pinOf(int id) const {
  if (id < numPortPins_) return NetPin::makePort(id);
  // Binary search the instance owning this pin id.
  const auto it = std::upper_bound(instPinBase_.begin(), instPinBase_.end(), id);
  const InstId inst = static_cast<InstId>(it - instPinBase_.begin()) - 1;
  return NetPin::makeInstPin(inst, id - instPinBase_[static_cast<std::size_t>(inst)]);
}

namespace {
/// Non-clock timing arcs into output pin \p libPin of cell \p c, ordered by
/// from-pin ascending (declaration order breaks ties). This is the one
/// canonical fanin-row order for cell arcs: build() and applyResize() both
/// derive rows from it, so an incremental row patch reproduces the
/// from-scratch row bit for bit.
void collectCombArcsInto(const CellType& c, int libPin, std::vector<const TimingArc*>& out) {
  out.clear();
  for (const TimingArc& a : c.arcs) {
    if (a.toPin != libPin) continue;
    if (c.pins[static_cast<std::size_t>(a.fromPin)].isClock) continue;
    out.push_back(&a);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TimingArc* a, const TimingArc* b) { return a->fromPin < b->fromPin; });
}
}  // namespace

void Sta::build() {
  // Pin id layout: ports first, then instance pins — appending an instance
  // appends pin ids, which is what makes the graph growable in place.
  numPortPins_ = nl_.numPorts();
  instPinBase_.assign(static_cast<std::size_t>(nl_.numInstances()), 0);
  int next = numPortPins_;
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    instPinBase_[static_cast<std::size_t>(i)] = next;
    next += static_cast<int>(nl_.cellOf(i).pins.size());
  }
  numPins_ = next;
  const std::size_t np = static_cast<std::size_t>(numPins_);

  // Net loads.
  netLoad_.resize(static_cast<std::size_t>(nl_.numNets()));
  for (NetId n = 0; n < nl_.numNets(); ++n) {
    netLoad_[static_cast<std::size_t>(n)] = paras_[static_cast<std::size_t>(n)].totalLoad();
  }

  // Launch arcs (CK->Q of sequential cells), sorted by toPin, and the
  // endpoint set (data pins of seq cells / macros, then output ports).
  launchArcs_.clear();
  isLaunchPin_.assign(np, 0);
  endpoints_.clear();
  hasHalfCycleInput_ = false;
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    const CellType& c = nl_.cellOf(i);
    const int base = instPinBase_[static_cast<std::size_t>(i)];
    const std::size_t firstArc = launchArcs_.size();
    for (const TimingArc& a : c.arcs) {
      if (!c.pins[static_cast<std::size_t>(a.fromPin)].isClock) continue;
      launchArcs_.push_back({base + a.fromPin, base + a.toPin, a.intrinsic, a.driveRes});
    }
    std::stable_sort(launchArcs_.begin() + static_cast<std::ptrdiff_t>(firstArc),
                     launchArcs_.end(),
                     [](const Arc& a, const Arc& b) { return a.toPin < b.toPin; });
    for (std::size_t k = firstArc; k < launchArcs_.size(); ++k) {
      isLaunchPin_[static_cast<std::size_t>(launchArcs_[k].toPin)] = 1;
    }
    if (c.isSequential() || c.isMacro()) {
      for (int p = 0; p < static_cast<int>(c.pins.size()); ++p) {
        const LibPin& lp = c.pins[static_cast<std::size_t>(p)];
        if (lp.dir == PinDir::kInput && !lp.isClock) endpoints_.push_back(base + p);
      }
    }
  }
  for (PortId p = 0; p < nl_.numPorts(); ++p) {
    const Port& port = nl_.port(p);
    if (port.dir == PinDir::kOutput) endpoints_.push_back(p);
    if (port.dir == PinDir::kInput && !port.isClock && port.halfCycle) hasHalfCycleInput_ = true;
  }

  // Wire edges keyed by sink (a pin is a sink of at most one net).
  std::vector<int> wireSrc(np, -1);
  std::vector<double> wireDelay(np, 0.0);
  for (NetId n = 0; n < nl_.numNets(); ++n) {
    const Net& net = nl_.net(n);
    if (net.driverIdx < 0) continue;
    const int u = pinId(net.pins[static_cast<std::size_t>(net.driverIdx)]);
    const NetParasitics& pp = paras_[static_cast<std::size_t>(n)];
    for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
      if (k == net.driverIdx) continue;
      const int v = pinId(net.pins[static_cast<std::size_t>(k)]);
      wireSrc[static_cast<std::size_t>(v)] = u;
      wireDelay[static_cast<std::size_t>(v)] =
          corner_.delayDerate * pp.sinkWireDelay[static_cast<std::size_t>(k)];
    }
  }

  // Fanin CSR, one row per pin in pin-id order. Rows are homogeneous: a net
  // sink (input pin / output port) carries exactly its one wire edge; an
  // instance output pin carries exactly its cell arcs. Delays are fully
  // derated; faninArc_ keeps the cell-arc coefficients for re-derivation.
  faninStart_.assign(np + 1, 0);
  fanins_.clear();
  faninArc_.clear();
  std::vector<const TimingArc*> arcScratch;
  for (int v = 0; v < numPins_; ++v) {
    faninStart_[static_cast<std::size_t>(v)] = static_cast<int>(fanins_.size());
    if (wireSrc[static_cast<std::size_t>(v)] >= 0) {
      fanins_.push_back({wireSrc[static_cast<std::size_t>(v)], wireDelay[static_cast<std::size_t>(v)]});
      faninArc_.push_back({});
      continue;
    }
    if (v < numPortPins_) continue;
    const NetPin ip = pinOf(v);
    const CellType& c = nl_.cellOf(ip.inst);
    if (c.pins[static_cast<std::size_t>(ip.libPin)].dir != PinDir::kOutput) continue;
    const NetId outNet = nl_.instance(ip.inst).pinNets[static_cast<std::size_t>(ip.libPin)];
    const double load = outNet != kInvalidId ? netLoad_[static_cast<std::size_t>(outNet)] : 0.0;
    const int base = instPinBase_[static_cast<std::size_t>(ip.inst)];
    collectCombArcsInto(c, ip.libPin, arcScratch);
    for (const TimingArc* a : arcScratch) {
      fanins_.push_back(
          {base + a->fromPin, corner_.delayDerate * (a->intrinsic + a->driveRes * load)});
      faninArc_.push_back({a->intrinsic, a->driveRes});
    }
  }
  faninStart_[np] = static_cast<int>(fanins_.size());

  // Fanout mirror (for cone expansion and incremental level recompute).
  fanout_.assign(np, {});
  for (int v = 0; v < numPins_; ++v) {
    for (int e = faninStart_[static_cast<std::size_t>(v)];
         e < faninStart_[static_cast<std::size_t>(v) + 1]; ++e) {
      fanout_[static_cast<std::size_t>(fanins_[static_cast<std::size_t>(e)].fromPin)].push_back(v);
    }
  }

  // Levels via Kahn over the fanin edges (doubles as the cycle check):
  // level(v) = 1 + max level over fanin sources, final when v pops because
  // all of its sources popped first.
  level_.assign(np, 0);
  {
    std::vector<int> indeg(np, 0);
    for (int v = 0; v < numPins_; ++v) {
      indeg[static_cast<std::size_t>(v)] =
          faninStart_[static_cast<std::size_t>(v) + 1] - faninStart_[static_cast<std::size_t>(v)];
    }
    std::vector<int> queue;
    queue.reserve(np);
    for (int v = 0; v < numPins_; ++v) {
      if (indeg[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
    }
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const int v = queue[qi];
      int lv = 0;
      for (int e = faninStart_[static_cast<std::size_t>(v)];
           e < faninStart_[static_cast<std::size_t>(v) + 1]; ++e) {
        lv = std::max(
            lv, level_[static_cast<std::size_t>(fanins_[static_cast<std::size_t>(e)].fromPin)] + 1);
      }
      level_[static_cast<std::size_t>(v)] = lv;
      for (const int f : fanout_[static_cast<std::size_t>(v)]) {
        if (--indeg[static_cast<std::size_t>(f)] == 0) queue.push_back(f);
      }
    }
    assert(static_cast<int>(queue.size()) == numPins_ && "combinational cycle detected");
    (void)queue;
  }
  levelBucketsDirty_ = true;

  // Drop caches; the first query runs a full sweep.
  arrValid_ = false;
  paramValid_ = false;
  pendingArr_.clear();
  pendingParam_.clear();
  coneStamp_.clear();
  coneEpoch_ = 0;
}

void Sta::markDirty(int pin) const {
  pendingArr_.push_back(pin);
  pendingParam_.push_back(pin);
}

void Sta::ensureLevels() const {
  if (!levelBucketsDirty_) return;
  const std::size_t np = static_cast<std::size_t>(numPins_);
  int numLevels = 1;
  for (const int lv : level_) numLevels = std::max(numLevels, lv + 1);
  levelStart_.assign(static_cast<std::size_t>(numLevels) + 1, 0);
  for (std::size_t v = 0; v < np; ++v) ++levelStart_[static_cast<std::size_t>(level_[v]) + 1];
  for (int l = 0; l < numLevels; ++l) {
    levelStart_[static_cast<std::size_t>(l) + 1] += levelStart_[static_cast<std::size_t>(l)];
  }
  levelNodes_.resize(np);
  {
    std::vector<int> cursor(levelStart_.begin(), levelStart_.end() - 1);
    // Pin-id order within each level (iterate ids ascending).
    for (int v = 0; v < numPins_; ++v) {
      levelNodes_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(level_[static_cast<std::size_t>(v)])]++)] = v;
    }
  }
  levelBucketsDirty_ = false;
  obs::gauge("sta.levels").set(static_cast<double>(numLevels));
}

void Sta::recomputeLevels(const std::vector<int>& seeds) {
  // Worklist relaxation: recompute level(v) from its fanins; on change push
  // the fanouts. Structural edits only deepen paths, so levels ratchet up
  // and the loop terminates. A stale queue entry just recomputes to the
  // same value.
  std::vector<int> work(seeds);
  std::vector<std::uint8_t> inQueue(static_cast<std::size_t>(numPins_), 0);
  for (const int s : work) inQueue[static_cast<std::size_t>(s)] = 1;
  for (std::size_t qi = 0; qi < work.size(); ++qi) {
    const int v = work[qi];
    inQueue[static_cast<std::size_t>(v)] = 0;
    int lv = 0;
    for (int e = faninStart_[static_cast<std::size_t>(v)];
         e < faninStart_[static_cast<std::size_t>(v) + 1]; ++e) {
      lv = std::max(
          lv, level_[static_cast<std::size_t>(fanins_[static_cast<std::size_t>(e)].fromPin)] + 1);
    }
    if (lv == level_[static_cast<std::size_t>(v)]) continue;
    level_[static_cast<std::size_t>(v)] = lv;
    levelBucketsDirty_ = true;
    for (const int f : fanout_[static_cast<std::size_t>(v)]) {
      if (!inQueue[static_cast<std::size_t>(f)]) {
        inQueue[static_cast<std::size_t>(f)] = 1;
        work.push_back(f);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental edit API

void Sta::invalidateNet(NetId n) {
  assert(n >= 0 && static_cast<std::size_t>(n) < paras_.size());
  if (static_cast<std::size_t>(n) >= netLoad_.size()) {
    netLoad_.resize(static_cast<std::size_t>(nl_.numNets()), 0.0);
  }
  const NetParasitics& pp = paras_[static_cast<std::size_t>(n)];
  netLoad_[static_cast<std::size_t>(n)] = pp.totalLoad();
  const Net& net = nl_.net(n);
  if (net.driverIdx < 0) return;
  const int u = pinId(net.pins[static_cast<std::size_t>(net.driverIdx)]);
  for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
    if (k == net.driverIdx) continue;
    const int v = pinId(net.pins[static_cast<std::size_t>(k)]);
    const int e = faninStart_[static_cast<std::size_t>(v)];
    assert(faninStart_[static_cast<std::size_t>(v) + 1] - e == 1 && "net sink must have one wire fanin");
    assert(fanins_[static_cast<std::size_t>(e)].fromPin == u && "stale wire edge; missing applyBufferInsertion?");
    fanins_[static_cast<std::size_t>(e)].delay =
        corner_.delayDerate * pp.sinkWireDelay[static_cast<std::size_t>(k)];
    markDirty(v);
  }
  // The driver's own cell arcs see the new load; a CK->Q launch seed reads
  // netLoad_ live, so marking the pin dirty is enough there.
  bool driverDirty = false;
  for (int e = faninStart_[static_cast<std::size_t>(u)];
       e < faninStart_[static_cast<std::size_t>(u) + 1]; ++e) {
    fanins_[static_cast<std::size_t>(e)].delay =
        corner_.delayDerate * (faninArc_[static_cast<std::size_t>(e)].intrinsic +
                               faninArc_[static_cast<std::size_t>(e)].driveRes *
                                   netLoad_[static_cast<std::size_t>(n)]);
    driverDirty = true;
  }
  if (u >= numPortPins_ && isLaunchPin_[static_cast<std::size_t>(u)]) driverDirty = true;
  if (driverDirty) markDirty(u);
}

void Sta::invalidateNets(const std::vector<NetId>& nets) {
  for (const NetId n : nets) invalidateNet(n);
}

void Sta::invalidateAllNets() {
  for (NetId n = 0; n < nl_.numNets(); ++n) invalidateNet(n);
  // A whole-design refresh re-sweeps everything anyway; resetting the
  // caches runs it as a plain full sweep instead of an aborted cone (which
  // would count as a fallback in the telemetry).
  arrValid_ = false;
  paramValid_ = false;
  pendingArr_.clear();
  pendingParam_.clear();
}

void Sta::applyResize(InstId inst) {
  const CellType& c = nl_.cellOf(inst);
  const Instance& in = nl_.instance(inst);
  const int base = instPinBase_[static_cast<std::size_t>(inst)];
  std::vector<const TimingArc*> arcScratch;
  for (int p = 0; p < static_cast<int>(c.pins.size()); ++p) {
    if (c.pins[static_cast<std::size_t>(p)].dir != PinDir::kOutput) continue;
    const int v = base + p;
    collectCombArcsInto(c, p, arcScratch);
    const int rb = faninStart_[static_cast<std::size_t>(v)];
    const int re = faninStart_[static_cast<std::size_t>(v) + 1];
    if (re - rb != static_cast<int>(arcScratch.size())) {
      // The new master declares a different arc set — a CSR row would have
      // to change size. Not a shape the drive families produce; degrade to
      // a full rebuild rather than corrupt the graph.
      M3D_LOG(warn) << "sta applyResize: arc count changed for " << in.name
                    << "; rebuilding timing graph";
      build();
      return;
    }
    const NetId outNet = in.pinNets[static_cast<std::size_t>(p)];
    const double load = outNet != kInvalidId ? netLoad_[static_cast<std::size_t>(outNet)] : 0.0;
    for (int i = 0; i < static_cast<int>(arcScratch.size()); ++i) {
      const TimingArc* a = arcScratch[static_cast<std::size_t>(i)];
      fanins_[static_cast<std::size_t>(rb + i)] = {
          base + a->fromPin, corner_.delayDerate * (a->intrinsic + a->driveRes * load)};
      faninArc_[static_cast<std::size_t>(rb + i)] = {a->intrinsic, a->driveRes};
    }
    if (re > rb) markDirty(v);
  }

  // CK->Q launch arcs of the new master replace the instance's old block
  // (launchArcs_ is sorted by toPin, and all of an instance's pins are a
  // contiguous id range, so its arcs are a contiguous block).
  std::vector<Arc> fresh;
  for (const TimingArc& a : c.arcs) {
    if (!c.pins[static_cast<std::size_t>(a.fromPin)].isClock) continue;
    fresh.push_back({base + a.fromPin, base + a.toPin, a.intrinsic, a.driveRes});
  }
  std::stable_sort(fresh.begin(), fresh.end(),
                   [](const Arc& a, const Arc& b) { return a.toPin < b.toPin; });
  const auto lo = std::lower_bound(launchArcs_.begin(), launchArcs_.end(), base,
                                   [](const Arc& a, int pin) { return a.toPin < pin; });
  const int hiPin = base + static_cast<int>(c.pins.size());
  auto hi = lo;
  while (hi != launchArcs_.end() && hi->toPin < hiPin) ++hi;
  for (auto it = lo; it != hi; ++it) {
    isLaunchPin_[static_cast<std::size_t>(it->toPin)] = 0;
    markDirty(it->toPin);
  }
  const auto at = launchArcs_.erase(lo, hi);
  launchArcs_.insert(at, fresh.begin(), fresh.end());
  for (const Arc& a : fresh) {
    isLaunchPin_[static_cast<std::size_t>(a.toPin)] = 1;
    markDirty(a.toPin);
  }
}

void Sta::applyBufferInsertion(InstId buf, NetId drivenNet, NetId newNet) {
  assert(buf == nl_.numInstances() - 1 && "buffer must be the newest instance");
  assert(static_cast<int>(instPinBase_.size()) == buf && "one applyBufferInsertion per addInstance");
  const CellType& c = nl_.cellOf(buf);
  assert(!c.isSequential() && !c.isMacro() && "only combinational cells can be inserted");
  (void)drivenNet;

  const int base = numPins_;
  instPinBase_.push_back(base);
  const int nPins = static_cast<int>(c.pins.size());
  const std::size_t np = static_cast<std::size_t>(base + nPins);
  isLaunchPin_.resize(np, 0);
  fanout_.resize(np);
  level_.resize(np, 0);
  levelBucketsDirty_ = true;
  arr_.resize(np, kNoArrival);
  pred_.resize(np, -1);
  arr0_.resize(np, kNoArrival);
  arrH_.resize(np, kNoArrival);
  if (coneStamp_.size() < np) coneStamp_.resize(np, 0);
  netLoad_.resize(static_cast<std::size_t>(nl_.numNets()), 0.0);

  // Fanin rows of the new pins, appended in pin order. Delays start at 0
  // and are patched by the mandatory invalidateNets({drivenNet, newNet}).
  const Instance& in = nl_.instance(buf);
  std::vector<const TimingArc*> arcScratch;
  std::vector<int> seeds;
  for (int p = 0; p < nPins; ++p) {
    const int v = base + p;
    markDirty(v);
    seeds.push_back(v);
    if (c.pins[static_cast<std::size_t>(p)].dir == PinDir::kInput) {
      const NetId n = in.pinNets[static_cast<std::size_t>(p)];
      if (n != kInvalidId && nl_.net(n).driverIdx >= 0) {
        const Net& net = nl_.net(n);
        const int u = pinId(net.pins[static_cast<std::size_t>(net.driverIdx)]);
        fanins_.push_back({u, 0.0});
        faninArc_.push_back({});
        fanout_[static_cast<std::size_t>(u)].push_back(v);
      }
    } else {
      collectCombArcsInto(c, p, arcScratch);
      for (const TimingArc* a : arcScratch) {
        fanins_.push_back({base + a->fromPin, 0.0});
        faninArc_.push_back({a->intrinsic, a->driveRes});
        fanout_[static_cast<std::size_t>(base + a->fromPin)].push_back(v);
      }
    }
    faninStart_.push_back(static_cast<int>(fanins_.size()));
  }
  numPins_ = base + nPins;

  // Repoint the wire edge of every sink that moved onto the buffered net.
  const Net& nn = nl_.net(newNet);
  assert(nn.driverIdx >= 0);
  const int yPin = pinId(nn.pins[static_cast<std::size_t>(nn.driverIdx)]);
  for (int k = 0; k < static_cast<int>(nn.pins.size()); ++k) {
    if (k == nn.driverIdx) continue;
    const int v = pinId(nn.pins[static_cast<std::size_t>(k)]);
    if (v >= base) continue;  // the buffer's own pins were just built
    const int e = faninStart_[static_cast<std::size_t>(v)];
    assert(faninStart_[static_cast<std::size_t>(v) + 1] - e == 1);
    const int uOld = fanins_[static_cast<std::size_t>(e)].fromPin;
    if (uOld != yPin) {
      auto& fo = fanout_[static_cast<std::size_t>(uOld)];
      fo.erase(std::find(fo.begin(), fo.end(), v));
      fanins_[static_cast<std::size_t>(e)].fromPin = yPin;
      fanout_[static_cast<std::size_t>(yPin)].push_back(v);
    }
    markDirty(v);
    seeds.push_back(v);
  }

  recomputeLevels(seeds);
}

// ---------------------------------------------------------------------------
// Arrival sweeps

bool Sta::recomputeArr(int v, double period) const {
  // One pin's full pull: launch seed as the initial best, then every fanin
  // edge in CSR row order with a strict compare — exactly the full sweep's
  // per-pin computation, so a cone update that reruns it on final fanin
  // values reproduces the from-scratch arrival and predecessor bit for bit.
  double best = kNoArrival;
  int bestPred = -1;
  if (v < numPortPins_) {
    const Port& port = nl_.port(v);
    if (port.dir == PinDir::kInput && !port.isClock) {
      best = port.halfCycle ? period / 2.0 : 0.0;
    }
  } else if (isLaunchPin_[static_cast<std::size_t>(v)]) {
    auto it = std::lower_bound(launchArcs_.begin(), launchArcs_.end(), v,
                               [](const Arc& a, int pin) { return a.toPin < pin; });
    const NetPin qp = pinOf(v);
    const Instance& inst = nl_.instance(qp.inst);
    const double lat = clock_ ? clock_->latencyOf(qp.inst) : 0.0;
    for (; it != launchArcs_.end() && it->toPin == v; ++it) {
      const NetId qNet = inst.pinNets[static_cast<std::size_t>(qp.libPin)];
      if (qNet == kInvalidId) continue;
      const double t = lat + corner_.delayDerate *
                                 (it->intrinsic + it->driveRes * netLoad_[static_cast<std::size_t>(qNet)]);
      if (t > best) best = t;
    }
  }
  for (int e = faninStart_[static_cast<std::size_t>(v)];
       e < faninStart_[static_cast<std::size_t>(v) + 1]; ++e) {
    const FaninEdge& fe = fanins_[static_cast<std::size_t>(e)];
    const double au = arr_[static_cast<std::size_t>(fe.fromPin)];
    if (au <= kNoArrival) continue;
    const double cand = au + fe.delay;
    if (cand > best) {
      best = cand;
      bestPred = fe.fromPin;
    }
  }
  const bool changed = arr_[static_cast<std::size_t>(v)] != best;
  arr_[static_cast<std::size_t>(v)] = best;
  pred_[static_cast<std::size_t>(v)] = bestPred;
  return changed;
}

bool Sta::recomputeParam(int v) const {
  // Parametric pair: arr0 carries fixed-time launches (full-cycle ports,
  // CK->Q), arrH carries half-cycle launches with the T/2 offset factored
  // out. Arc delays are period-independent, so one sweep of this pair
  // determines the arrival at any period.
  double b0 = kNoArrival;
  double bH = kNoArrival;
  if (v < numPortPins_) {
    const Port& port = nl_.port(v);
    if (port.dir == PinDir::kInput && !port.isClock) {
      (port.halfCycle ? bH : b0) = 0.0;
    }
  } else if (isLaunchPin_[static_cast<std::size_t>(v)]) {
    auto it = std::lower_bound(launchArcs_.begin(), launchArcs_.end(), v,
                               [](const Arc& a, int pin) { return a.toPin < pin; });
    const NetPin qp = pinOf(v);
    const Instance& inst = nl_.instance(qp.inst);
    const double lat = clock_ ? clock_->latencyOf(qp.inst) : 0.0;
    for (; it != launchArcs_.end() && it->toPin == v; ++it) {
      const NetId qNet = inst.pinNets[static_cast<std::size_t>(qp.libPin)];
      if (qNet == kInvalidId) continue;
      const double t = lat + corner_.delayDerate *
                                 (it->intrinsic + it->driveRes * netLoad_[static_cast<std::size_t>(qNet)]);
      if (t > b0) b0 = t;
    }
  }
  for (int e = faninStart_[static_cast<std::size_t>(v)];
       e < faninStart_[static_cast<std::size_t>(v) + 1]; ++e) {
    const FaninEdge& fe = fanins_[static_cast<std::size_t>(e)];
    const double a0 = arr0_[static_cast<std::size_t>(fe.fromPin)];
    if (a0 > kNoArrival) b0 = std::max(b0, a0 + fe.delay);
    const double aH = arrH_[static_cast<std::size_t>(fe.fromPin)];
    if (aH > kNoArrival) bH = std::max(bH, aH + fe.delay);
  }
  const bool changed =
      arr0_[static_cast<std::size_t>(v)] != b0 || arrH_[static_cast<std::size_t>(v)] != bH;
  arr0_[static_cast<std::size_t>(v)] = b0;
  arrH_[static_cast<std::size_t>(v)] = bH;
  return changed;
}

template <typename Recompute>
std::int64_t Sta::coneSweep(const std::vector<int>& seeds, Recompute&& re) const {
  // Levelized worklist: process the dirty set level by level, re-pulling
  // each active pin and expanding over the fanouts of pins whose value
  // changed. Deterministic at any thread count: the active set per level is
  // a pure function of the values (sorted by pin id before processing),
  // each pin writes only its own slot, and expansion happens sequentially
  // after the level's parallel region. Returns pins visited, or -1 once the
  // cone exceeds coneFallbackRatio_ * numPins (caller runs a full sweep).
  ensureLevels();
  const int numLevels = static_cast<int>(levelStart_.size()) - 1;
  if (static_cast<int>(coneActive_.size()) < numLevels) coneActive_.resize(static_cast<std::size_t>(numLevels));
  if (coneStamp_.size() < static_cast<std::size_t>(numPins_)) {
    coneStamp_.assign(static_cast<std::size_t>(numPins_), 0);
    coneEpoch_ = 0;
  }
  if (++coneEpoch_ == 0) {
    std::fill(coneStamp_.begin(), coneStamp_.end(), 0);
    coneEpoch_ = 1;
  }
  const auto push = [&](int v) {
    if (coneStamp_[static_cast<std::size_t>(v)] == coneEpoch_) return;
    coneStamp_[static_cast<std::size_t>(v)] = coneEpoch_;
    coneActive_[static_cast<std::size_t>(level_[static_cast<std::size_t>(v)])].push_back(v);
  };
  for (const int s : seeds) push(s);

  const std::int64_t limit = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(coneFallbackRatio_ * static_cast<double>(numPins_)));
  std::int64_t visited = 0;
  bool aborted = false;
  for (int l = 0; l < numLevels; ++l) {
    std::vector<int>& q = coneActive_[static_cast<std::size_t>(l)];
    if (q.empty()) continue;
    if (!aborted) {
      visited += static_cast<std::int64_t>(q.size());
      if (visited > limit) aborted = true;
    }
    if (aborted) {
      q.clear();
      continue;
    }
    std::sort(q.begin(), q.end());
    coneChanged_.assign(q.size(), 0);
    par::parallelFor(
        0, static_cast<std::int64_t>(q.size()), kLevelGrain,
        [&](std::int64_t i) {
          coneChanged_[static_cast<std::size_t>(i)] = re(q[static_cast<std::size_t>(i)]) ? 1 : 0;
        },
        numThreads_);
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!coneChanged_[i]) continue;
      for (const int f : fanout_[static_cast<std::size_t>(q[i])]) push(f);
    }
    q.clear();
  }
  return aborted ? -1 : visited;
}

void Sta::fullArrSweep(double period) const {
  ensureLevels();
  arr_.resize(static_cast<std::size_t>(numPins_));
  pred_.resize(static_cast<std::size_t>(numPins_));
  const int numLevels = static_cast<int>(levelStart_.size()) - 1;
  for (int l = 0; l < numLevels; ++l) {
    par::parallelFor(
        levelStart_[static_cast<std::size_t>(l)], levelStart_[static_cast<std::size_t>(l) + 1],
        kLevelGrain,
        [&](std::int64_t idx) { recomputeArr(levelNodes_[static_cast<std::size_t>(idx)], period); },
        numThreads_);
  }
  arrValid_ = true;
  arrPeriod_ = period;
  pendingArr_.clear();
  ++stats_.fullSweeps;
}

void Sta::fullParamSweep() const {
  ensureLevels();
  arr0_.resize(static_cast<std::size_t>(numPins_));
  arrH_.resize(static_cast<std::size_t>(numPins_));
  const int numLevels = static_cast<int>(levelStart_.size()) - 1;
  for (int l = 0; l < numLevels; ++l) {
    par::parallelFor(
        levelStart_[static_cast<std::size_t>(l)], levelStart_[static_cast<std::size_t>(l) + 1],
        kLevelGrain,
        [&](std::int64_t idx) { recomputeParam(levelNodes_[static_cast<std::size_t>(idx)]); },
        numThreads_);
  }
  paramValid_ = true;
  pendingParam_.clear();
  ++stats_.fullSweeps;
}

void Sta::ensureArrivals(double period) const {
  if (!arrValid_) {
    fullArrSweep(period);
    return;
  }
  std::vector<int>& dirty = pendingArr_;
  if (period != arrPeriod_ && hasHalfCycleInput_) {
    // Only half-cycle input ports launch at a period-dependent time; a
    // period change re-seeds exactly those cones.
    for (PortId p = 0; p < nl_.numPorts(); ++p) {
      const Port& port = nl_.port(p);
      if (port.dir == PinDir::kInput && !port.isClock && port.halfCycle) dirty.push_back(p);
    }
  }
  if (dirty.empty()) {
    arrPeriod_ = period;
    return;
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  const std::int64_t visited =
      coneSweep(dirty, [&](int v) { return recomputeArr(v, period); });
  if (visited < 0) {
    ++stats_.fullFallbacks;
    obs::counter("sta.full_fallbacks").add(1);
    fullArrSweep(period);
  } else {
    ++stats_.incrUpdates;
    stats_.coneNodes += visited;
    obs::counter("sta.incr_updates").add(1);
    obs::counter("sta.cone_nodes").add(visited);
    dirty.clear();
    arrPeriod_ = period;
  }
}

void Sta::ensureParam() const {
  if (!paramValid_) {
    fullParamSweep();
    return;
  }
  std::vector<int>& dirty = pendingParam_;
  if (dirty.empty()) return;
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  const std::int64_t visited = coneSweep(dirty, [&](int v) { return recomputeParam(v); });
  if (visited < 0) {
    ++stats_.fullFallbacks;
    obs::counter("sta.full_fallbacks").add(1);
    fullParamSweep();
  } else {
    ++stats_.incrUpdates;
    stats_.coneNodes += visited;
    obs::counter("sta.incr_updates").add(1);
    obs::counter("sta.cone_nodes").add(visited);
    dirty.clear();
  }
}

// ---------------------------------------------------------------------------
// Queries

double Sta::endpointSlack(double period, const std::vector<double>& arr, int pin) const {
  const double a = arr[static_cast<std::size_t>(pin)];
  if (a <= kNoArrival) return std::numeric_limits<double>::infinity();  // unconstrained
  const NetPin p = pinOf(pin);
  double req = 0.0;
  if (p.kind == NetPin::Kind::kPort) {
    const Port& port = nl_.port(p.port);
    req = port.halfCycle ? period / 2.0 : period;
  } else {
    const CellType& c = nl_.cellOf(p.inst);
    const double lat = clock_ ? clock_->latencyOf(p.inst) : 0.0;
    const double unc = clock_ ? clock_->uncertainty : 0.0;
    req = period - corner_.delayDerate * c.setup + lat - unc;
  }
  return req - a;
}

TimingReport Sta::analyze(double period) const {
  ensureArrivals(period);

  TimingReport rep;
  rep.period = period;
  rep.wns = std::numeric_limits<double>::infinity();
  int worst = -1;
  for (int e : endpoints_) {
    const double s = endpointSlack(period, arr_, e);
    if (s == std::numeric_limits<double>::infinity()) continue;
    if (s < rep.wns) {
      rep.wns = s;
      worst = e;
    }
    if (s < 0.0) {
      rep.tns += s;
      ++rep.failingEndpoints;
    }
  }
  if (worst < 0) {
    rep.wns = 0.0;
    obs::series("sta.wns_ps").record(0.0);
    return rep;
  }

  // Trace the critical path.
  std::vector<int> pathIds;
  for (int u = worst; u != -1; u = pred_[static_cast<std::size_t>(u)]) pathIds.push_back(u);
  std::reverse(pathIds.begin(), pathIds.end());
  for (int u : pathIds) {
    rep.criticalPath.push_back({pinOf(u), arr_[static_cast<std::size_t>(u)]});
  }

  // Accumulate wire length along net edges of the path.
  for (std::size_t k = 1; k < pathIds.size(); ++k) {
    const NetPin a = pinOf(pathIds[k - 1]);
    const NetPin b = pinOf(pathIds[k]);
    const bool sameInst = a.kind == NetPin::Kind::kInstPin && b.kind == NetPin::Kind::kInstPin &&
                          a.inst == b.inst;
    if (sameInst) continue;  // gate arc
    // Net edge: find b's index in its net.
    NetId netId = kInvalidId;
    if (b.kind == NetPin::Kind::kInstPin) {
      netId = nl_.instance(b.inst).pinNets[static_cast<std::size_t>(b.libPin)];
    } else {
      netId = nl_.port(b.port).net;
    }
    if (netId == kInvalidId) continue;
    const Net& net = nl_.net(netId);
    for (int i = 0; i < static_cast<int>(net.pins.size()); ++i) {
      if (net.pins[static_cast<std::size_t>(i)] == b) {
        rep.critPathWirelengthUm +=
            paras_[static_cast<std::size_t>(netId)].sinkWireLengthUm[static_cast<std::size_t>(i)];
        break;
      }
    }
  }

  const NetPin wp = pinOf(worst);
  if (wp.kind == NetPin::Kind::kPort) {
    rep.critEndpointName = nl_.port(wp.port).name;
  } else {
    rep.critEndpointName = nl_.instance(wp.inst).name + "/" +
                           nl_.cellOf(wp.inst).pins[static_cast<std::size_t>(wp.libPin)].name;
  }
  obs::series("sta.wns_ps").record(rep.wns * 1e12);
  M3D_LOG(debug) << "sta analyze: wns_ps=" << rep.wns * 1e12
                 << " failing=" << rep.failingEndpoints << " endpoint=" << rep.critEndpointName;
  return rep;
}

double Sta::worstSlack(double period) const {
  ensureArrivals(period);
  double wns = std::numeric_limits<double>::infinity();
  for (int e : endpoints_) {
    const double s = endpointSlack(period, arr_, e);
    wns = std::min(wns, s);
  }
  return wns == std::numeric_limits<double>::infinity() ? 0.0 : wns;
}

void Sta::propagateMin(std::vector<double>& arr) const {
  ensureLevels();
  constexpr double kNoMinArrival = 1e30;
  arr.assign(static_cast<std::size_t>(numPins_), kNoMinArrival);

  // Early launch edges: input ports at 0 (hold checks use the same-edge
  // relationship) and sequential CK->Q at the capture latency.
  for (PortId p = 0; p < nl_.numPorts(); ++p) {
    const Port& port = nl_.port(p);
    if (port.dir != PinDir::kInput || port.isClock) continue;
    arr[static_cast<std::size_t>(p)] = 0.0;
  }
  for (const Arc& a : launchArcs_) {
    const NetPin qp = pinOf(a.toPin);
    const Instance& inst = nl_.instance(qp.inst);
    const NetId qNet = inst.pinNets[static_cast<std::size_t>(qp.libPin)];
    if (qNet == kInvalidId) continue;
    const double lat = clock_ ? clock_->latencyOf(qp.inst) : 0.0;
    const double t = lat + corner_.delayDerate *
                               (a.intrinsic + a.driveRes * netLoad_[static_cast<std::size_t>(qNet)]);
    arr[static_cast<std::size_t>(a.toPin)] = std::min(arr[static_cast<std::size_t>(a.toPin)], t);
  }

  // Levelized pull sweep (min variant); see recomputeArr()/coneSweep() for
  // the determinism argument.
  const int numLevels = static_cast<int>(levelStart_.size()) - 1;
  for (int l = 0; l < numLevels; ++l) {
    par::parallelFor(
        levelStart_[static_cast<std::size_t>(l)],
        levelStart_[static_cast<std::size_t>(l) + 1], kLevelGrain,
        [&](std::int64_t idx) {
          const int v = levelNodes_[static_cast<std::size_t>(idx)];
          double best = arr[static_cast<std::size_t>(v)];
          for (int e = faninStart_[static_cast<std::size_t>(v)];
               e < faninStart_[static_cast<std::size_t>(v) + 1]; ++e) {
            const FaninEdge& fe = fanins_[static_cast<std::size_t>(e)];
            const double au = arr[static_cast<std::size_t>(fe.fromPin)];
            if (au >= kNoMinArrival) continue;
            best = std::min(best, au + fe.delay);
          }
          arr[static_cast<std::size_t>(v)] = best;
        },
        numThreads_);
  }
}

double Sta::worstHoldSlack(double holdMargin) const {
  std::vector<double> minArr;
  propagateMin(minArr);
  double worst = std::numeric_limits<double>::infinity();
  for (int e : endpoints_) {
    const double a = minArr[static_cast<std::size_t>(e)];
    if (a >= 1e29) continue;
    const NetPin p = pinOf(e);
    if (p.kind == NetPin::Kind::kPort) continue;  // ports carry no hold check
    const double lat = clock_ ? clock_->latencyOf(p.inst) : 0.0;
    const double unc = clock_ ? clock_->uncertainty : 0.0;
    worst = std::min(worst, a - (lat + unc + holdMargin));
  }
  return worst == std::numeric_limits<double>::infinity() ? 0.0 : worst;
}

std::vector<double> Sta::portArrivals(double period) const {
  ensureArrivals(period);
  std::vector<double> out(static_cast<std::size_t>(nl_.numPorts()));
  for (PortId p = 0; p < nl_.numPorts(); ++p) {
    out[static_cast<std::size_t>(p)] = arr_[static_cast<std::size_t>(p)];
  }
  return out;
}

double Sta::findMinPeriod() const {
  obs::ScopedPhase phase("sta.find_min_period");
  ensureParam();

  // Each endpoint contributes closed-form bounds on T. With s' the derated
  // setup and d0/dH the parametric arrivals:
  //   sequential endpoint:  d0 <= T - s' + lat - unc    => T >= d0 + s' - lat + unc
  //                         T/2 + dH <= T - s' + ...    => T >= 2 (dH + s' - lat + unc)
  //   full-cycle out port:  T >= d0,  T >= 2 dH
  //   half-cycle out port:  T >= 2 d0; dH > 0 is infeasible at any period.
  double t = kMinPeriodFloor;
  bool infeasible = false;
  for (const int e : endpoints_) {
    const double a0 = arr0_[static_cast<std::size_t>(e)];
    const double aH = arrH_[static_cast<std::size_t>(e)];
    const NetPin p = pinOf(e);
    if (p.kind == NetPin::Kind::kPort) {
      const Port& port = nl_.port(p.port);
      if (port.halfCycle) {
        if (a0 > kNoArrival) t = std::max(t, 2.0 * a0);
        if (aH > kNoArrival && aH > 0.0) infeasible = true;
      } else {
        if (a0 > kNoArrival) t = std::max(t, a0);
        if (aH > kNoArrival) t = std::max(t, 2.0 * aH);
      }
    } else {
      const CellType& c = nl_.cellOf(p.inst);
      const double lat = clock_ ? clock_->latencyOf(p.inst) : 0.0;
      const double unc = clock_ ? clock_->uncertainty : 0.0;
      const double margin = corner_.delayDerate * c.setup - lat + unc;
      if (a0 > kNoArrival) t = std::max(t, a0 + margin);
      if (aH > kNoArrival) t = std::max(t, 2.0 * (aH + margin));
    }
  }
  if (infeasible) {
    M3D_LOG(warn) << "sta find_min_period: no feasible period (half-cycle output port "
                     "reached by a half-cycle launch); returning sentinel";
    obs::counter("sta.min_period_infeasible").add(1);
    return kInfeasiblePeriod;
  }
  // The parametric accumulation can differ from the at-period sweep by a few
  // ulps (T/2 is added at the endpoint here, at the launch there), so nudge
  // until the conventional check agrees: worstSlack(findMinPeriod()) >= 0.
  for (int guard = 0; guard < 8; ++guard) {
    const double ws = worstSlack(t);
    if (ws >= 0.0) break;
    t += std::max(-2.0 * ws, t * 1e-16);
  }
  phase.attr("min_period_ns", t * 1e9);
  obs::series("sta.min_period_ns").record(t * 1e9);
  return t;
}

}  // namespace m3d
