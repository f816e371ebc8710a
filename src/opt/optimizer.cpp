#include "opt/optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "lib/stdcell_factory.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace m3d {

void EstimatedParasitics::refresh(const Netlist& nl, const std::vector<NetId>& nets,
                                  std::vector<NetParasitics>& paras) {
  if (static_cast<int>(paras.size()) < nl.numNets()) {
    paras.resize(static_cast<std::size_t>(nl.numNets()));
  }
  for (NetId n : nets) {
    paras[static_cast<std::size_t>(n)] = estimateNet(nl, n, opt_);
  }
}

void RoutedParasitics::refresh(const Netlist& nl, const std::vector<NetId>& nets,
                               std::vector<NetParasitics>& paras) {
  assert(static_cast<int>(paras.size()) == nl.numNets() &&
         "routed provider cannot handle netlist growth");
  extractNets(nl, grid_, routes_, nets, paras);
}

namespace {

/// Wire delay beyond which a critical net stage gets a buffer [s].
constexpr double kBufferWireDelayThreshold = 40e-12;

/// Nets whose parasitics change when \p inst changes size: every net on an
/// input pin (pin cap changes the net's load and Elmore).
std::vector<NetId> inputNetsOf(const Netlist& nl, InstId inst) {
  std::vector<NetId> out;
  const CellType& c = nl.cellOf(inst);
  const Instance& in = nl.instance(inst);
  for (std::size_t p = 0; p < c.pins.size(); ++p) {
    if (c.pins[p].dir != PinDir::kInput) continue;
    const NetId n = in.pinNets[p];
    if (n != kInvalidId) out.push_back(n);
  }
  return out;
}

}  // namespace

int presizeForLoad(Netlist& nl, std::vector<NetParasitics>& paras,
                   ParasiticsProvider& provider, double maxStageDelay,
                   const std::function<bool(InstId, CellTypeId)>& resizeGuard) {
  obs::ScopedPhase phase("opt.presize");
  const Library& lib = nl.library();
  int resized = 0;
  std::vector<NetId> dirty;
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const CellType& c = nl.cellOf(i);
    if (c.isMacro() || c.cls == CellClass::kFiller || c.family.empty()) continue;
    const auto outPin = c.firstOutputPin();
    if (!outPin) continue;
    const NetId outNet = nl.instance(i).pinNets[static_cast<std::size_t>(*outPin)];
    if (outNet == kInvalidId) continue;
    const double load = paras[static_cast<std::size_t>(outNet)].totalLoad();
    bool changed = false;
    while (true) {
      double worstRes = 0.0;
      for (const TimingArc& a : nl.cellOf(i).arcs) worstRes = std::max(worstRes, a.driveRes);
      if (worstRes * load <= maxStageDelay) break;
      const CellTypeId up = lib.nextSizeUp(nl.instance(i).type);
      if (up == kInvalidCellType) break;
      if (resizeGuard && !resizeGuard(i, up)) break;
      nl.resize(i, up);
      changed = true;
      ++resized;
    }
    if (changed) {
      for (NetId n : inputNetsOf(nl, i)) dirty.push_back(n);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  provider.refresh(nl, dirty, paras);
  obs::counter("opt.cells_presized").add(resized);
  M3D_LOG(debug) << "presize: resized=" << resized;
  return resized;
}

OptimizeResult optimizeTiming(Sta& sta, Netlist& nl, std::vector<NetParasitics>& paras,
                              ParasiticsProvider& provider, const OptimizerOptions& opt) {
  OptimizeResult result;
  if (opt.maxPasses <= 0) return result;  // nothing to do: skip the initial probe
  const Library& lib = nl.library();
  const CellTypeId bufId = lib.findCell(kBufferCell);
  assert(bufId != kInvalidCellType);
  const int bufA = *lib.cell(bufId).findPin("A");
  const int bufY = *lib.cell(bufId).findPin("Y");

  double wns = sta.worstSlack(opt.targetPeriod);
  result.initialWns = wns;

  int bufCounter = 0;
  for (int pass = 0; pass < opt.maxPasses; ++pass) {
    obs::ScopedPhase passPhase("opt.pass");
    result.passes = pass + 1;
    if (wns >= 0.0) break;

    const TimingReport rep = sta.analyze(opt.targetPeriod);
    if (rep.criticalPath.size() < 2) break;

    // Snapshot for revert.
    struct Resize {
      InstId inst;
      CellTypeId oldType;
    };
    std::vector<Resize> resizes;
    std::vector<NetId> dirty;
    int buffersThisPass = 0;

    // --- Gate sizing along the critical path ------------------------------
    for (const PathStep& step : rep.criticalPath) {
      if (step.pin.kind != NetPin::Kind::kInstPin) continue;
      const InstId inst = step.pin.inst;
      const CellType& c = nl.cellOf(inst);
      if (c.pins[static_cast<std::size_t>(step.pin.libPin)].dir != PinDir::kOutput) continue;
      const CellTypeId up = lib.nextSizeUp(nl.instance(inst).type);
      if (up == kInvalidCellType) continue;
      if (opt.resizeGuard && !opt.resizeGuard(inst, up)) continue;
      resizes.push_back({inst, nl.instance(inst).type});
      nl.resize(inst, up);
      sta.applyResize(inst);
      ++result.cellsResized;
      for (NetId n : inputNetsOf(nl, inst)) dirty.push_back(n);
    }

    // --- Buffering of long critical wires ---------------------------------
    if (provider.allowBuffering()) {
      for (std::size_t k = 1; k < rep.criticalPath.size(); ++k) {
        const NetPin& a = rep.criticalPath[k - 1].pin;
        const NetPin& b = rep.criticalPath[k].pin;
        const bool sameInst = a.kind == NetPin::Kind::kInstPin &&
                              b.kind == NetPin::Kind::kInstPin && a.inst == b.inst;
        if (sameInst) continue;  // gate arc, not a wire
        if (b.kind != NetPin::Kind::kInstPin) continue;  // don't buffer into ports
        const NetId netId = nl.instance(b.inst).pinNets[static_cast<std::size_t>(b.libPin)];
        if (netId == kInvalidId || nl.net(netId).isClock) continue;
        // Copy the pin list up front: inserting the buffer below grows the
        // netlist's net storage and would invalidate any Net reference.
        const std::vector<NetPin> netPins = nl.net(netId).pins;
        const int driverIdx = nl.net(netId).driverIdx;
        double wireDelay = 0.0;
        for (int i = 0; i < static_cast<int>(netPins.size()); ++i) {
          if (netPins[static_cast<std::size_t>(i)] == b) {
            wireDelay =
                paras[static_cast<std::size_t>(netId)].sinkWireDelay[static_cast<std::size_t>(i)];
            break;
          }
        }
        if (wireDelay < kBufferWireDelayThreshold) continue;

        // Insert a buffer at the midpoint of driver->b and move b (plus any
        // sink within a quarter of the span of b) onto the buffered subnet.
        const Point pa = nl.pinPosition(a);
        const Point pb = nl.pinPosition(b);
        const Point mid{(pa.x + pb.x) / 2, (pa.y + pb.y) / 2};
        const InstId buf = nl.addInstance("opt_buf_" + std::to_string(bufCounter++), bufId);
        nl.instance(buf).pos = mid;
        result.insertedBuffers.push_back(buf);
        const NetId newNet = nl.addNet("opt_net_" + std::to_string(bufCounter));
        // Move b and nearby sinks to the new net.
        const Dbu radius = manhattanDistance(pa, pb) / 4;
        std::vector<NetPin> toMove;
        for (int i = 0; i < static_cast<int>(netPins.size()); ++i) {
          if (i == driverIdx) continue;
          const NetPin& p = netPins[static_cast<std::size_t>(i)];
          if (p == b || manhattanDistance(nl.pinPosition(p), pb) <= radius) {
            toMove.push_back(p);
          }
        }
        for (const NetPin& p : toMove) {
          nl.disconnect(netId, p);
          if (p.kind == NetPin::Kind::kInstPin) {
            nl.connect(newNet, p.inst, p.libPin);
          } else {
            nl.connectPort(newNet, p.port);
          }
        }
        nl.connect(netId, buf, bufA);
        nl.connect(newNet, buf, bufY);
        sta.applyBufferInsertion(buf, netId, newNet);
        ++buffersThisPass;
        ++result.buffersInserted;
        dirty.push_back(netId);
        dirty.push_back(newNet);
        break;  // one buffer per pass keeps the path report valid
      }
    }

    if (resizes.empty() && buffersThisPass == 0) break;  // nothing left to try

    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    provider.refresh(nl, dirty, paras);
    sta.invalidateNets(dirty);

    const double newWns = sta.worstSlack(opt.targetPeriod);
    if (newWns <= wns + 1e-15 && buffersThisPass == 0) {
      // Sizing made things worse (upstream loading): revert and stop.
      for (const Resize& r : resizes) {
        nl.resize(r.inst, r.oldType);
        sta.applyResize(r.inst);
      }
      provider.refresh(nl, dirty, paras);
      sta.invalidateNets(dirty);
      break;
    }
    passPhase.attr("wns_ps", newWns * 1e12);
    obs::series("opt.wns_ps").record(newWns * 1e12);
    passPhase.attr("resized", static_cast<double>(resizes.size()));
    passPhase.attr("buffers", static_cast<double>(buffersThisPass));
    M3D_LOG(debug) << "opt pass " << (pass + 1) << ": wns_ps=" << newWns * 1e12
                   << " resized=" << resizes.size() << " buffers=" << buffersThisPass;
    wns = newWns;
  }

  obs::counter("opt.cells_resized").add(result.cellsResized);
  obs::counter("opt.buffers_inserted").add(result.buffersInserted);
  obs::series("opt.cells_resized").record(static_cast<double>(result.cellsResized));
  result.finalWns = wns;
  return result;
}

OptimizeResult optimizeTiming(Netlist& nl, std::vector<NetParasitics>& paras,
                              ParasiticsProvider& provider, const ClockModel* clock,
                              const OptimizerOptions& opt) {
  if (opt.maxPasses <= 0) return {};  // nothing to do: skip building the engine
  Sta sta(nl, paras, clock, kTypicalCorner, opt.numThreads);
  return optimizeTiming(sta, nl, paras, provider, opt);
}

MaxFreqOptResult optimizeForMaxFrequency(Netlist& nl, std::vector<NetParasitics>& paras,
                                         ParasiticsProvider& provider, const ClockModel* clock,
                                         OptimizerOptions base, int rounds, double tighten) {
  MaxFreqOptResult out;
  // One engine for the whole schedule: every round's passes feed it the
  // dirty net list, so the per-round min-period probes ride the arrival
  // cache instead of rebuilding the graph.
  Sta sta(nl, paras, clock, kTypicalCorner, base.numThreads);
  double best = sta.findMinPeriod();
  if (!std::isfinite(best)) {
    M3D_LOG(warn) << "maxfreq: design has no feasible period; skipping optimization";
    out.minPeriod = best;
    return out;
  }
  for (int r = 0; r < rounds; ++r) {
    obs::ScopedPhase round("opt.round");
    out.rounds = r + 1;
    base.targetPeriod = best * tighten;
    const OptimizeResult res = optimizeTiming(sta, nl, paras, provider, base);
    out.cellsResized += res.cellsResized;
    out.buffersInserted += res.buffersInserted;
    out.insertedBuffers.insert(out.insertedBuffers.end(), res.insertedBuffers.begin(),
                               res.insertedBuffers.end());
    const double now = sta.findMinPeriod();
    round.attr("min_period_ns", now * 1e9);
    round.attr("resized", static_cast<double>(res.cellsResized));
    obs::series("opt.min_period_ns").record(now * 1e9);
    M3D_LOG(debug) << "maxfreq round " << (r + 1) << ": min_period_ns=" << now * 1e9
                   << " resized=" << res.cellsResized << " buffers=" << res.buffersInserted;
    if (!std::isfinite(now)) {
      out.minPeriod = now;
      return out;
    }
    if (now >= best * 0.999) {
      best = std::min(best, now);
      break;
    }
    best = now;
  }
  out.minPeriod = best;
  return out;
}

}  // namespace m3d
