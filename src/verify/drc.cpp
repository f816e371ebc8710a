/// \file drc.cpp
/// DRC checker family: independent capacity recomputation from committed
/// segments, geometric short detection against the physical track grid,
/// off-grid/off-direction segment checks, and fully-obstructed-gcell usage.

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/parallel.hpp"
#include "geom/spatial_index.hpp"
#include "verify/checkers.hpp"

namespace m3d::verify_detail {

namespace {

/// Grain constants are part of the deterministic algorithm (chunk layout
/// must not depend on the machine), not tuning knobs.
constexpr std::int64_t kNetGrain = 64;

struct EdgeXY {
  int x;
  int y;
  int layer;
};

EdgeXY splitEdge(const RouteGrid& grid, int e) {
  const int plane = grid.nx() * grid.ny();
  return EdgeXY{e % plane % grid.nx(), e % plane / grid.nx(), e / plane};
}

Rect gcellRect(const RouteGrid& grid, int x, int y) { return grid.mapping().cellRect(x, y); }

std::string layerName(const RouteGrid& grid, int metal) { return grid.beol().metal(metal).name; }

std::string cutName(const RouteGrid& grid, int cut) { return grid.beol().cut(cut).name; }

/// True when \p s is a legal grid hop; fills \p edge with the resource it
/// consumes (wire edge id or via edge id).
bool isLegalHop(const RouteGrid& grid, const RouteSeg& s, int* edge) {
  if (s.fromNode < 0 || s.fromNode >= grid.numNodes() || s.toNode < 0 ||
      s.toNode >= grid.numNodes()) {
    return false;
  }
  const int lf = grid.nodeLayer(s.fromNode);
  const int lt = grid.nodeLayer(s.toNode);
  const int dx = grid.nodeX(s.toNode) - grid.nodeX(s.fromNode);
  const int dy = grid.nodeY(s.toNode) - grid.nodeY(s.fromNode);
  if (s.isVia) {
    if (dx != 0 || dy != 0) return false;
    if (std::abs(lf - lt) != 1 || s.layer != std::min(lf, lt)) return false;
    *edge = grid.viaEdgeId(grid.nodeX(s.fromNode), grid.nodeY(s.fromNode), s.layer);
    return true;
  }
  if (lf != lt || s.layer != lf) return false;
  const bool horizontal = grid.layerHorizontal(s.layer);
  if (horizontal ? (dy != 0 || std::abs(dx) != 1) : (dx != 0 || std::abs(dy) != 1)) {
    return false;
  }
  *edge = std::min(s.fromNode, s.toNode);  // wire edge id == low-end node id.
  return true;
}

}  // namespace

int physicalTracks(const RouteGrid& grid, int layer) {
  const Rect cell = grid.mapping().cellRect(0, 0);
  const Dbu span = grid.layerHorizontal(layer) ? cell.height() : cell.width();
  const Dbu pitch = std::max<Dbu>(1, grid.beol().metal(layer).pitch);
  return std::max(1, static_cast<int>(span / pitch));
}

void checkDrc(const Ctx& ctx, VerifyReport& rep) {
  const RouteGrid& grid = ctx.grid;
  const Netlist& nl = ctx.nl;
  const RoutingResult& routes = ctx.routes;

  // --- Per-segment geometry: off-grid hops + fully-obstructed usage. -------
  // Deterministic parallel scan over nets; partial violation lists are
  // folded in ascending chunk order.
  const std::int64_t numNets = static_cast<std::int64_t>(routes.nets.size());
  std::vector<Violation> segViolations = par::parallelReduce(
      std::int64_t{0}, numNets, kNetGrain, std::vector<Violation>{},
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<Violation> part;
        for (std::int64_t n = lo; n < hi; ++n) {
          for (const RouteSeg& s : routes.nets[static_cast<std::size_t>(n)].segs) {
            int edge = -1;
            if (!isLegalHop(grid, s, &edge)) {
              Violation v;
              v.kind = ViolationKind::kOffGrid;
              v.net = static_cast<NetId>(n);
              v.layer = s.layer;
              if (s.fromNode >= 0 && s.fromNode < grid.numNodes()) {
                v.rect = gcellRect(grid, grid.nodeX(s.fromNode), grid.nodeY(s.fromNode));
              }
              v.detail = "net " + nl.net(static_cast<NetId>(n)).name +
                         (s.isVia ? " via" : " wire") + " seg " +
                         std::to_string(s.fromNode) + "->" + std::to_string(s.toNode) +
                         " is not a legal grid hop";
              part.push_back(std::move(v));
              continue;
            }
            const int cap = s.isVia ? grid.viaCap(edge) : grid.wireCap(edge);
            if (cap == 0) {
              const EdgeXY at = splitEdge(grid, edge);
              Violation v;
              v.kind = ViolationKind::kMacroObstruction;
              v.net = static_cast<NetId>(n);
              v.layer = s.layer;
              v.rect = gcellRect(grid, at.x, at.y);
              v.detail = "net " + nl.net(static_cast<NetId>(n)).name +
                         (s.isVia ? " via through obstructed cut "
                                  : " wire through obstructed gcell on ") +
                         (s.isVia ? cutName(grid, s.layer) : layerName(grid, s.layer));
              part.push_back(std::move(v));
            }
          }
        }
        return part;
      },
      [](std::vector<Violation> acc, std::vector<Violation> part) {
        acc.insert(acc.end(), std::move_iterator(part.begin()), std::move_iterator(part.end()));
        return acc;
      },
      ctx.opt.numThreads);
  for (Violation& v : segViolations) rep.violations.push_back(std::move(v));

  // --- Independent capacity recomputation (never trusts the router). -------
  // One slot past the wire edges: the short check below turns the counts
  // into bucket offsets in place.
  const auto numWireEdges = static_cast<std::size_t>(grid.numWireEdges());
  std::vector<std::uint32_t> wireUse(numWireEdges + 1, 0);
  std::vector<std::uint32_t> viaUse(static_cast<std::size_t>(grid.numViaEdges()), 0);
  std::vector<std::pair<int, NetId>> wireEdgeNets;  // in net order, for the short check.
  for (NetId n = 0; n < static_cast<NetId>(routes.nets.size()); ++n) {
    for (const RouteSeg& s : routes.nets[static_cast<std::size_t>(n)].segs) {
      int edge = -1;
      if (!isLegalHop(grid, s, &edge)) continue;  // flagged above
      if (s.isVia) {
        ++viaUse[static_cast<std::size_t>(edge)];
      } else {
        ++wireUse[static_cast<std::size_t>(edge)];
        wireEdgeNets.push_back({edge, n});
      }
    }
  }
  for (int e = 0; e < grid.numWireEdges(); ++e) {
    const int over =
        static_cast<int>(wireUse[static_cast<std::size_t>(e)]) - static_cast<int>(grid.wireCap(e));
    if (over <= 0) continue;
    ++rep.recomputedOverflowedEdges;
    rep.recomputedTotalOverflow += over;
    const EdgeXY at = splitEdge(grid, e);
    Violation v;
    v.kind = ViolationKind::kCapacityOverflow;
    v.layer = at.layer;
    v.rect = gcellRect(grid, at.x, at.y);
    v.detail = "gcell (" + std::to_string(at.x) + "," + std::to_string(at.y) + ") on " +
               layerName(grid, at.layer) + ": use=" +
               std::to_string(wireUse[static_cast<std::size_t>(e)]) +
               " cap=" + std::to_string(grid.wireCap(e));
    rep.violations.push_back(std::move(v));
  }
  for (int e = 0; e < grid.numViaEdges(); ++e) {
    const int over =
        static_cast<int>(viaUse[static_cast<std::size_t>(e)]) - static_cast<int>(grid.viaCap(e));
    if (over <= 0) continue;
    ++rep.recomputedOverflowedEdges;
    rep.recomputedTotalOverflow += over;
    const EdgeXY at = splitEdge(grid, e);
    Violation v;
    v.kind = ViolationKind::kCapacityOverflow;
    v.layer = at.layer;
    v.rect = gcellRect(grid, at.x, at.y);
    v.detail = "gcell (" + std::to_string(at.x) + "," + std::to_string(at.y) + ") cut " +
               cutName(grid, at.layer) + ": use=" +
               std::to_string(viaUse[static_cast<std::size_t>(e)]) +
               " cap=" + std::to_string(grid.viaCap(e));
    rep.violations.push_back(std::move(v));
  }

  // --- Shorts: distinct nets vs the physical (underated) track count. ------
  // A single overfull gcell is not yet a proven short: detail routing can
  // detour a wire through the perpendicular neighbor gcells on the same
  // layer (that risk is already reported as kCapacityOverflow). Only when
  // the whole 3-gcell detour window is over its physical track count does
  // the pigeonhole argument become escape-proof and the short error-grade.
  // Wrap-around track assignment inside the gcell realizes the overfill as
  // overlapping wire rects; the RectIndex query is the geometric witness.
  //
  // The (edge, net) pairs go into one bucket per edge, sized by wireUse and
  // filled in pair order (a stable counting sort): each edge lists its nets
  // ascending, a net's repeats adjacent. Dropping the repeats leaves each
  // edge's distinct nets in ascending order. The capacity check was the last
  // reader of the counts, so they become the bucket offsets in place: edge
  // e's distinct nets are edgeNets[bucket[e], bucket[e + 1]).
  std::vector<std::uint32_t>& bucket = wireUse;
  std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());  // each bucket's end
  std::vector<NetId> edgeNets(wireEdgeNets.size());
  for (auto it = wireEdgeNets.rbegin(); it != wireEdgeNets.rend(); ++it) {
    // Back to front from each bucket's end: the pair order survives, and
    // each offset ends at its bucket's start.
    edgeNets[--bucket[static_cast<std::size_t>(it->first)]] = it->second;
  }
  std::uint32_t kept = 0;  // compact the buckets down to their distinct nets
  for (std::size_t e = 0; e < numWireEdges; ++e) {
    const std::uint32_t first = bucket[e];
    const std::uint32_t last = bucket[e + 1];
    bucket[e] = kept;
    for (std::uint32_t k = first; k < last; ++k) {
      const NetId net = edgeNets[k];
      if (k == first || net != edgeNets[kept - 1]) edgeNets[kept++] = net;
    }
  }
  bucket[numWireEdges] = kept;
  const auto distinctOn = [&bucket](std::size_t e) {
    return static_cast<int>(bucket[e + 1] - bucket[e]);
  };
  // Edges in id order: layer, then row, then column.
  for (int layer = 0; layer < grid.numLayers(); ++layer) {
    const int tracks = physicalTracks(grid, layer);
    const bool horizontal = grid.layerHorizontal(layer);
    const MetalLayer& metal = grid.beol().metal(layer);
    for (int y = 0; y < grid.ny(); ++y) {
      for (int x = 0; x < grid.nx(); ++x) {
        const auto e = static_cast<std::size_t>(grid.wireEdgeId(x, y, layer));
        const int distinct = distinctOn(e);
        if (distinct <= tracks) continue;
        int windowDistinct = distinct;
        int windowTracks = tracks;
        for (int d = -1; d <= 1; d += 2) {
          const int nxt = horizontal ? x : x + d;
          const int nyt = horizontal ? y + d : y;
          if (nxt < 0 || nxt >= grid.nx() || nyt < 0 || nyt >= grid.ny()) continue;
          windowTracks += tracks;
          windowDistinct += distinctOn(static_cast<std::size_t>(grid.wireEdgeId(nxt, nyt, layer)));
        }
        if (windowDistinct <= windowTracks) continue;  // a detour is still possible

        const Rect cell = gcellRect(grid, x, y);
        const Dbu pitch = std::max<Dbu>(1, metal.pitch);
        const Dbu width = std::max<Dbu>(1, metal.width);
        RectIndex tracksUsed(cell, pitch);
        const NetId* nets = edgeNets.data() + bucket[e];
        for (int k = 0; k < distinct; ++k) {
          const int track = k % tracks;
          const Rect r = horizontal ? Rect{cell.xlo, cell.ylo + track * pitch, cell.xhi,
                                           cell.ylo + track * pitch + width}
                                    : Rect{cell.xlo + track * pitch, cell.ylo,
                                           cell.xlo + track * pitch + width, cell.yhi};
          const std::vector<std::int32_t> hit = tracksUsed.queryOverlapping(r);
          if (!hit.empty()) {
            Violation v;
            v.kind = ViolationKind::kShort;
            v.net = nets[k];
            v.otherNet = static_cast<NetId>(hit.front());
            v.layer = layer;
            v.rect = r;
            v.detail = "nets " + nl.net(v.net).name + " and " + nl.net(v.otherNet).name +
                       " share a track on " + metal.name + " in gcell (" + std::to_string(x) +
                       "," + std::to_string(y) + "): " + std::to_string(distinct) +
                       " nets on " + std::to_string(tracks) +
                       " physical tracks, detour window exhausted";
            rep.violations.push_back(std::move(v));
          }
          tracksUsed.insert(nets[k], r);
        }
      }
    }
  }
}

}  // namespace m3d::verify_detail
