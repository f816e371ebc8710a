#include "cts/cts.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "lib/stdcell_factory.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace m3d {

namespace {

struct Sink {
  NetPin pin;
  Point pos;
};

Point centroid(const std::vector<Sink>& sinks, std::size_t lo, std::size_t hi) {
  std::int64_t sx = 0;
  std::int64_t sy = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    sx += sinks[i].pos.x;
    sy += sinks[i].pos.y;
  }
  const std::int64_t n = static_cast<std::int64_t>(hi - lo);
  return Point{sx / n, sy / n};
}

}  // namespace

CtsResult synthesizeClockTree(Netlist& nl, NetId clockNet, const Floorplan& fp,
                              const CtsOptions& opt) {
  CtsResult result;
  const CellTypeId leafBufId = nl.library().findCell(kBufferCell);
  assert(leafBufId != kInvalidCellType);
  // Upper tree levels drive long wires and large subtree loads; use the
  // strongest buffers there, tapering toward the leaves.
  const std::vector<CellTypeId> bufFamily = nl.library().family("BUF");
  auto bufferForLevel = [&](int level) {
    CellTypeId pick = leafBufId;
    if (!bufFamily.empty()) {
      if (level <= 2) {
        pick = bufFamily.back();
      } else if (level <= 4 && bufFamily.size() >= 2) {
        pick = bufFamily[bufFamily.size() - 2];
      }
    }
    return pick;
  };
  const int bufA = *nl.library().cell(leafBufId).findPin("A");
  const int bufY = *nl.library().cell(leafBufId).findPin("Y");

  // Collect CK sinks of the clock net.
  std::vector<Sink> sinks;
  for (const NetPin& p : nl.net(clockNet).pins) {
    if (p.kind != NetPin::Kind::kInstPin) continue;
    const LibPin& lp = nl.cellOf(p.inst).pins[static_cast<std::size_t>(p.libPin)];
    if (!lp.isClock) continue;
    sinks.push_back({p, nl.pinPosition(p)});
  }
  result.numSinks = static_cast<int>(sinks.size());
  if (sinks.empty()) return result;

  // Detach the sinks; they re-attach to leaf subnets.
  for (const Sink& s : sinks) nl.disconnect(clockNet, s.pin);

  int bufCounter = 0;
  auto newBuffer = [&](const Point& at, int parent, int level, NetId inputNet) {
    const CellTypeId bufId = bufferForLevel(level);
    const InstId inst = nl.addInstance("cts_buf_" + std::to_string(bufCounter++), bufId);
    nl.instance(inst).pos = fp.die.clamp(at);
    nl.instance(inst).die = DieId::kLogic;
    nl.connect(inputNet, inst, bufA);
    const NetId out = nl.addNet("cts_net_" + std::to_string(bufCounter));
    nl.net(out).isClock = true;
    nl.connect(out, inst, bufY);
    CtsBuffer b;
    b.inst = inst;
    b.parent = parent;
    b.level = level;
    b.inputNet = inputNet;
    b.outputNet = out;
    result.buffers.push_back(b);
    return static_cast<int>(result.buffers.size()) - 1;
  };

  // Recursive bisection over the sink span [lo, hi).
  std::function<void(std::size_t, std::size_t, int, int)> split =
      [&](std::size_t lo, std::size_t hi, int parentBuf, int level) {
        const Point c = centroid(sinks, lo, hi);
        const NetId parentNet = result.buffers[static_cast<std::size_t>(parentBuf)].outputNet;
        if (hi - lo <= static_cast<std::size_t>(opt.maxSinksPerLeaf)) {
          const int leaf = newBuffer(c, parentBuf, level, parentNet);
          const NetId leafNet = result.buffers[static_cast<std::size_t>(leaf)].outputNet;
          for (std::size_t i = lo; i < hi; ++i) {
            nl.connect(leafNet, sinks[i].pin.inst, sinks[i].pin.libPin);
            result.estWirelengthUm +=
                dbuToUm(manhattanDistance(nl.instance(result.buffers[static_cast<std::size_t>(leaf)].inst).pos,
                                          sinks[i].pos));
          }
          result.maxDepth = std::max(result.maxDepth, level);
          return;
        }
        // Split along the longer bounding-box dimension at the median.
        Rect bb = Rect::makeEmpty();
        for (std::size_t i = lo; i < hi; ++i) bb.expandToInclude(sinks[i].pos);
        const bool splitX = bb.width() >= bb.height();
        const std::size_t mid = lo + (hi - lo) / 2;
        std::nth_element(sinks.begin() + static_cast<std::ptrdiff_t>(lo),
                         sinks.begin() + static_cast<std::ptrdiff_t>(mid),
                         sinks.begin() + static_cast<std::ptrdiff_t>(hi),
                         [splitX](const Sink& a, const Sink& b) {
                           if (splitX) {
                             if (a.pos.x != b.pos.x) return a.pos.x < b.pos.x;
                             return a.pos.y < b.pos.y;
                           }
                           if (a.pos.y != b.pos.y) return a.pos.y < b.pos.y;
                           return a.pos.x < b.pos.x;
                         });
        const int node = newBuffer(c, parentBuf, level, parentNet);
        result.estWirelengthUm += dbuToUm(manhattanDistance(
            nl.instance(result.buffers[static_cast<std::size_t>(parentBuf)].inst).pos, c));
        split(lo, mid, node, level + 1);
        split(mid, hi, node, level + 1);
      };

  // Root buffer at the sink centroid, fed by the clock net itself.
  const Point rootAt = centroid(sinks, 0, sinks.size());
  const int root = newBuffer(rootAt, -1, 1, clockNet);
  result.maxDepth = 1;
  if (sinks.size() <= static_cast<std::size_t>(opt.maxSinksPerLeaf)) {
    const NetId rootNet = result.buffers[static_cast<std::size_t>(root)].outputNet;
    for (const Sink& s : sinks) nl.connect(rootNet, s.pin.inst, s.pin.libPin);
  } else {
    const std::size_t mid = sinks.size() / 2;
    Rect bb = Rect::makeEmpty();
    for (const Sink& s : sinks) bb.expandToInclude(s.pos);
    const bool splitX = bb.width() >= bb.height();
    std::nth_element(sinks.begin(), sinks.begin() + static_cast<std::ptrdiff_t>(mid),
                     sinks.end(), [splitX](const Sink& a, const Sink& b) {
                       if (splitX) {
                         if (a.pos.x != b.pos.x) return a.pos.x < b.pos.x;
                         return a.pos.y < b.pos.y;
                       }
                       if (a.pos.y != b.pos.y) return a.pos.y < b.pos.y;
                       return a.pos.x < b.pos.x;
                     });
    split(0, mid, root, 2);
    split(mid, sinks.size(), root, 2);
  }
  obs::gauge("cts.sinks").set(static_cast<double>(result.numSinks));
  obs::gauge("cts.buffers").set(static_cast<double>(result.buffers.size()));
  obs::gauge("cts.depth").set(static_cast<double>(result.maxDepth));
  M3D_LOG(debug) << "cts tree: sinks=" << result.numSinks
                 << " buffers=" << result.buffers.size() << " depth=" << result.maxDepth;
  return result;
}

ClockModel updateClockModel(const Netlist& nl, const std::vector<NetParasitics>& paras,
                            const CtsResult& cts) {
  ClockModel model;
  model.latency.assign(static_cast<std::size_t>(nl.numInstances()), 0.0);
  model.maxTreeDepth = cts.maxDepth;
  if (cts.buffers.empty()) return model;

  // Arrival at each buffer's output pin, walking parents before children
  // (buffers are created parent-first, so index order works).
  std::vector<double> outArrival(cts.buffers.size(), 0.0);
  double minSink = 1e30;
  double maxSink = 0.0;

  for (std::size_t b = 0; b < cts.buffers.size(); ++b) {
    const CtsBuffer& buf = cts.buffers[b];
    const CellType& cell = nl.cellOf(buf.inst);
    const TimingArc& arc = cell.arcs.front();
    const double load = paras[static_cast<std::size_t>(buf.outputNet)].totalLoad();

    // Wire delay from the parent's output to this buffer's input pin.
    double inArrival = 0.0;
    if (buf.parent >= 0) {
      const NetParasitics& pp = paras[static_cast<std::size_t>(buf.inputNet)];
      const Net& net = nl.net(buf.inputNet);
      for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
        const NetPin& p = net.pins[static_cast<std::size_t>(k)];
        if (p.kind == NetPin::Kind::kInstPin && p.inst == buf.inst) {
          inArrival = outArrival[static_cast<std::size_t>(buf.parent)] +
                      pp.sinkWireDelay[static_cast<std::size_t>(k)];
          break;
        }
      }
    }
    outArrival[b] = inArrival + arc.intrinsic + arc.driveRes * load;

    // Leaf nets deliver latency to CK pins.
    const Net& outNet = nl.net(buf.outputNet);
    const NetParasitics& op = paras[static_cast<std::size_t>(buf.outputNet)];
    for (int k = 0; k < static_cast<int>(outNet.pins.size()); ++k) {
      const NetPin& p = outNet.pins[static_cast<std::size_t>(k)];
      if (p.kind != NetPin::Kind::kInstPin) continue;
      const LibPin& lp = nl.cellOf(p.inst).pins[static_cast<std::size_t>(p.libPin)];
      if (!lp.isClock) continue;
      const double lat = outArrival[b] + op.sinkWireDelay[static_cast<std::size_t>(k)];
      model.latency[static_cast<std::size_t>(p.inst)] = lat;
      minSink = std::min(minSink, lat);
      maxSink = std::max(maxSink, lat);
    }
  }
  model.maxLatency = maxSink;
  model.skew = maxSink > 0.0 ? maxSink - minSink : 0.0;

  // CTS balancing: real clock-tree synthesis inserts delay elements and
  // tunes buffers until all sinks arrive together. Model that by padding
  // every sink to the slowest arrival, and carry the residual imbalance the
  // balancer cannot remove as clock uncertainty proportional to the
  // insertion delay (longer/deeper trees are harder to balance -- this is
  // where the paper's shorter MoL clock trees pay off).
  for (double& l : model.latency) {
    if (l > 0.0) l = maxSink;
  }
  model.uncertainty = 0.05 * model.maxLatency;
  obs::gauge("cts.skew_ps").set(model.skew * 1e12);
  obs::gauge("cts.latency_ps").set(model.maxLatency * 1e12);
  M3D_LOG(debug) << "cts model: skew_ps=" << model.skew * 1e12
                 << " latency_ps=" << model.maxLatency * 1e12;
  return model;
}

}  // namespace m3d
