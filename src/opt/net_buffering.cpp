#include "opt/net_buffering.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "lib/stdcell_factory.hpp"

namespace m3d {

namespace {

/// Maximum sink count before the net gets a buffer tree (synthesis-style
/// fanout buffering).
constexpr int kMaxFanout = 6;
constexpr int kMaxRounds = 6;  ///< recursion bound for very long nets.

/// Splits one net: sinks farther than maxLength from the driver are grouped
/// by coarse grid cluster; each cluster gets a repeater at its centroid
/// (stepped toward the driver so segments shrink each round). Returns the
/// ids of newly created nets (which may still be long and get re-processed).
std::vector<NetId> splitNet(Netlist& nl, const Floorplan& fp, NetId netId,
                            const NetBufferingOptions& opt, CellTypeId bufId, int bufA, int bufY,
                            int& counter) {
  const Dbu maxLength = opt.maxLength;
  std::vector<NetId> created;
  const Net& net = nl.net(netId);
  if (net.isClock || net.pins.size() < 2 || net.driverIdx < 0) return created;

  const Point drv = nl.pinPosition(net.pins[static_cast<std::size_t>(net.driverIdx)]);
  const bool fanoutSplit =
      static_cast<int>(net.pins.size()) - 1 > kMaxFanout;

  // Cluster sinks that need buffering on a grid of maxLength cells: far
  // sinks always; for over-fanout nets, every sink beyond the first
  // kMaxFanout-1 nearest ones.
  std::map<std::pair<Dbu, Dbu>, std::vector<NetPin>> clusters;
  if (fanoutSplit) {
    // Keep the closest sinks direct; everything else moves to buffer trees.
    std::vector<std::pair<Dbu, int>> byDist;
    for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
      if (k == net.driverIdx) continue;
      byDist.push_back({manhattanDistance(drv, nl.pinPosition(net.pins[static_cast<std::size_t>(k)])), k});
    }
    std::sort(byDist.begin(), byDist.end());
    for (std::size_t i = static_cast<std::size_t>(kMaxFanout) - 1; i < byDist.size(); ++i) {
      const NetPin& p = net.pins[static_cast<std::size_t>(byDist[i].second)];
      const Point pp = nl.pinPosition(p);
      clusters[{pp.x / maxLength, pp.y / maxLength}].push_back(p);
    }
  } else {
    for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
      if (k == net.driverIdx) continue;
      const NetPin& p = net.pins[static_cast<std::size_t>(k)];
      const Point pp = nl.pinPosition(p);
      if (manhattanDistance(drv, pp) <= maxLength) continue;
      clusters[{pp.x / maxLength, pp.y / maxLength}].push_back(p);
    }
  }
  if (clusters.empty()) return created;

  for (auto& [cell, pins] : clusters) {
    (void)cell;
    // Centroid of the cluster, stepped 40% toward the driver so that each
    // round provably shortens the remaining span.
    std::int64_t sx = 0;
    std::int64_t sy = 0;
    for (const NetPin& p : pins) {
      const Point pp = nl.pinPosition(p);
      sx += pp.x;
      sy += pp.y;
    }
    Point c{sx / static_cast<std::int64_t>(pins.size()),
            sy / static_cast<std::int64_t>(pins.size())};
    c.x = c.x + (drv.x - c.x) * 2 / 5;
    c.y = c.y + (drv.y - c.y) * 2 / 5;
    c = fp.die.clamp(c);

    const InstId buf = nl.addInstance("rep_buf_" + std::to_string(counter), bufId);
    nl.instance(buf).pos = c;
    const NetId newNet = nl.addNet("rep_net_" + std::to_string(counter));
    ++counter;
    for (const NetPin& p : pins) {
      nl.disconnect(netId, p);
      if (p.kind == NetPin::Kind::kInstPin) {
        nl.connect(newNet, p.inst, p.libPin);
      } else {
        nl.connectPort(newNet, p.port);
      }
    }
    nl.connect(netId, buf, bufA);
    nl.connect(newNet, buf, bufY);
    created.push_back(newNet);
  }
  return created;
}

}  // namespace

NetBufferingResult bufferLongNets(Netlist& nl, const Floorplan& fp,
                                  const NetBufferingOptions& opt) {
  NetBufferingResult result;
  const CellTypeId bufId = nl.library().findCell(kBufferCell);
  assert(bufId != kInvalidCellType);
  const int bufA = *nl.library().cell(bufId).findPin("A");
  const int bufY = *nl.library().cell(bufId).findPin("Y");

  int counter = 0;
  std::vector<NetId> work;
  for (NetId n = 0; n < nl.numNets(); ++n) work.push_back(n);

  for (int round = 0; round < kMaxRounds && !work.empty(); ++round) {
    std::vector<NetId> next;
    for (NetId n : work) {
      const std::vector<NetId> created =
          splitNet(nl, fp, n, opt, bufId, bufA, bufY, counter);
      if (!created.empty()) {
        ++result.netsProcessed;
        next.insert(next.end(), created.begin(), created.end());
        next.push_back(n);  // the original may still have far clusters
      }
    }
    work = std::move(next);
  }
  result.buffersInserted = counter;
  return result;
}

}  // namespace m3d
