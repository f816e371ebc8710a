/// \file connectivity.cpp
/// Connectivity / LVS-lite checker: each net's committed route segments must
/// form a single connected component that touches every pin's projected grid
/// node. Catches opens (deleted/missing segments, stacked-via gaps) and
/// dangling route geometry, independent of the router's bookkeeping.

#include <algorithm>
#include <span>
#include <utility>

#include "core/parallel.hpp"
#include "route/net_node_index.hpp"
#include "verify/checkers.hpp"

namespace m3d::verify_detail {

namespace {

constexpr std::int64_t kNetGrain = 64;

/// Working memory of checkNet, reused from net to net within one chunk of
/// nets (never shared between chunks, which may run on different threads).
struct NetScratch {
  NetNodeIndex index;           ///< route node -> local number.
  std::vector<int> parent;      ///< union-find over local numbers.
  std::vector<int> cand;        ///< every pin's candidate nodes, pin after pin.
  std::vector<int> candStart;   ///< per pin: its first candidate in cand, then the end.
  std::vector<char> hasPin;     ///< per local root: a pin touches the component.
  std::vector<int> roots;       ///< components the current pin touches.
  std::vector<int> dangling;    ///< smallest node of each pin-free component.

  /// Root of local node \p i: the component's smallest grid node.
  int find(int i) {
    while (parent[static_cast<std::size_t>(i)] != i) {
      parent[static_cast<std::size_t>(i)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(i)])];
      i = parent[static_cast<std::size_t>(i)];
    }
    return i;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (index.node(a) < index.node(b)) {
      parent[static_cast<std::size_t>(b)] = a;
    } else {
      parent[static_cast<std::size_t>(a)] = b;
    }
  }
};

Rect pinRect(const Netlist& nl, const NetPin& p) {
  const Point at = nl.pinPosition(p);
  return Rect{at.x, at.y, at.x, at.y};
}

/// Appends the grid nodes a pin may legally attach to, its own node first.
///
/// Standard-cell pins project at cell-footprint granularity: the detail
/// router can reach a pin from any gcell the instance overlaps, and
/// post-route in-place resizing legitimately shifts pin offsets within the
/// frozen footprint after routes are committed -- a route that enters any
/// footprint gcell still connects the pin. Macro pins are never resized, so
/// they keep exact point projection; for them (and ports) only the
/// closed-interval boundary tolerance applies: a pin sitting exactly on a
/// gcell boundary belongs to every adjacent gcell, and quantization must not
/// turn such pins into opens.
void appendPinCandidates(const Netlist& nl, const RouteGrid& grid, const NetPin& p,
                         std::vector<int>& out) {
  const GridMapping& map = grid.mapping();
  const int primary = grid.pinNode(nl, p);
  const int layer = grid.nodeLayer(primary);
  const int ix = grid.nodeX(primary);
  const int iy = grid.nodeY(primary);

  Rect span;  // closed region whose overlapped gcells are all legal.
  if (p.kind == NetPin::Kind::kInstPin && !nl.cellOf(p.inst).isMacro()) {
    const Instance& inst = nl.instance(p.inst);
    const CellType& ct = nl.cellOf(p.inst);
    span = Rect{inst.pos.x, inst.pos.y, inst.pos.x + ct.width, inst.pos.y + ct.height};
  } else {
    const Point at = nl.pinPosition(p);
    span = Rect{at.x, at.y, at.x, at.y};
  }

  int ixLo = map.xIndex(span.xlo);
  int iyLo = map.yIndex(span.ylo);
  const int ixHi = std::max(ixLo, map.xIndex(span.xhi));
  const int iyHi = std::max(iyLo, map.yIndex(span.yhi));
  // Closed gcell rects: a span edge exactly on a gcell's low boundary also
  // belongs to the previous gcell.
  if (ixLo > 0 && map.cellRect(ixLo, iyLo).xlo == span.xlo) --ixLo;
  if (iyLo > 0 && map.cellRect(ixLo, iyLo).ylo == span.ylo) --iyLo;

  out.push_back(primary);
  for (int gy = iyLo; gy <= iyHi; ++gy) {
    for (int gx = ixLo; gx <= ixHi; ++gx) {
      if (gx == ix && gy == iy) continue;  // primary already present.
      out.push_back(grid.nodeId(gx, gy, layer));
    }
  }
}

std::string pinDesc(const Netlist& nl, const NetPin& p) {
  if (p.kind == NetPin::Kind::kPort) return "port " + nl.port(p.port).name;
  return nl.instance(p.inst).name + "/" + nl.cellOf(p.inst).pins[static_cast<std::size_t>(p.libPin)].name;
}

void checkNet(const Ctx& ctx, NetId n, NetScratch& g, std::vector<Violation>& out) {
  const Netlist& nl = ctx.nl;
  const RouteGrid& grid = ctx.grid;
  const Net& net = nl.net(n);
  if (net.pins.size() < 2) return;  // the router skips degenerate nets.
  const NetRoute& route = ctx.routes.nets[static_cast<std::size_t>(n)];

  if (!route.routed) {
    Violation v;
    v.kind = ViolationKind::kUnroutedNet;
    v.net = n;
    Rect bbox = Rect::makeEmpty();
    for (const NetPin& p : net.pins) bbox.expandToInclude(nl.pinPosition(p));
    v.rect = bbox;
    v.detail = "net " + net.name + " (" + std::to_string(net.pins.size()) +
               " pins) has no committed route";
    out.push_back(std::move(v));
    return;
  }

  g.cand.clear();
  g.candStart.clear();
  for (const NetPin& p : net.pins) {
    g.candStart.push_back(static_cast<int>(g.cand.size()));
    appendPinCandidates(nl, grid, p, g.cand);
  }
  g.candStart.push_back(static_cast<int>(g.cand.size()));
  // Candidate nodes of pin k.
  const auto candOf = [&g](std::size_t k) {
    return std::span<const int>(g.cand.data() + g.candStart[k],
                                g.cand.data() + g.candStart[k + 1]);
  };
  const auto reportOpen = [&](std::size_t k, const char* what) {
    Violation v;
    v.kind = ViolationKind::kOpen;
    v.net = n;
    if (net.pins[k].kind == NetPin::Kind::kInstPin) v.cell = net.pins[k].inst;
    v.layer = grid.nodeLayer(candOf(k).front());
    v.rect = pinRect(nl, net.pins[k]);
    v.detail = "net " + net.name + ": pin " + pinDesc(nl, net.pins[k]) + what;
    out.push_back(std::move(v));
  };

  if (route.segs.empty()) {
    // Legal only when every pin projects to one grid node.
    const std::span<const int> first = candOf(0);
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      const std::span<const int> c = candOf(k);
      if (std::find_first_of(c.begin(), c.end(), first.begin(), first.end()) != c.end()) continue;
      reportOpen(k, " is not co-located with the (segment-free) net");
    }
    return;
  }

  // Union-find over the route's nodes, each numbered as it first appears.
  g.index.reset(2 * route.segs.size());
  g.parent.clear();
  for (const RouteSeg& s : route.segs) {
    const int a = g.index.insert(s.fromNode);
    const int b = g.index.insert(s.toNode);
    while (static_cast<int>(g.parent.size()) < g.index.size()) {
      g.parent.push_back(static_cast<int>(g.parent.size()));
    }
    g.unite(a, b);
  }

  // Every pin must land on the route graph, in one shared component. A pin
  // counts as touched when any of its candidate nodes is on the graph, and
  // as connected when any candidate's component matches the anchor.
  int anchorRoot = -1;
  g.hasPin.assign(g.parent.size(), 0);
  for (std::size_t k = 0; k < net.pins.size(); ++k) {
    g.roots.clear();
    for (const int node : candOf(k)) {
      const int idx = g.index.find(node);
      if (idx >= 0) g.roots.push_back(g.find(idx));
    }
    if (g.roots.empty()) {
      reportOpen(k, " is not touched by any route segment (open)");
      continue;
    }
    for (const int root : g.roots) g.hasPin[static_cast<std::size_t>(root)] = 1;
    if (anchorRoot < 0) {
      anchorRoot = g.roots.front();
    } else if (std::find(g.roots.begin(), g.roots.end(), anchorRoot) == g.roots.end()) {
      reportOpen(k, " sits on a route island disconnected from the net tree (open)");
    }
  }

  // Components that touch no pin are stray geometry, reported once each by
  // their smallest node, in ascending node order.
  g.dangling.clear();
  for (int i = 0; i < g.index.size(); ++i) {
    if (g.find(i) == i && !g.hasPin[static_cast<std::size_t>(i)]) {
      g.dangling.push_back(g.index.node(i));
    }
  }
  std::sort(g.dangling.begin(), g.dangling.end());
  for (const int node : g.dangling) {
    Violation v;
    v.kind = ViolationKind::kDanglingSegment;
    v.net = n;
    v.layer = grid.nodeLayer(node);
    v.rect = grid.mapping().cellRect(grid.nodeX(node), grid.nodeY(node));
    v.detail = "net " + net.name + ": route component at node " + std::to_string(node) +
               " touches no pin of the net";
    out.push_back(std::move(v));
  }
}

}  // namespace

void checkConnectivity(const Ctx& ctx, VerifyReport& rep) {
  const std::int64_t numNets = static_cast<std::int64_t>(ctx.routes.nets.size());
  std::vector<Violation> found = par::parallelReduce(
      std::int64_t{0}, numNets, kNetGrain, std::vector<Violation>{},
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<Violation> part;
        NetScratch scratch;
        for (std::int64_t n = lo; n < hi; ++n) {
          checkNet(ctx, static_cast<NetId>(n), scratch, part);
        }
        return part;
      },
      [](std::vector<Violation> acc, std::vector<Violation> part) {
        acc.insert(acc.end(), std::move_iterator(part.begin()), std::move_iterator(part.end()));
        return acc;
      },
      ctx.opt.numThreads);
  for (Violation& v : found) rep.violations.push_back(std::move(v));
}

}  // namespace m3d::verify_detail
