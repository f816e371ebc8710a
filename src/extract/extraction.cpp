#include "extract/extraction.hpp"

#include <algorithm>

#include "route/net_node_index.hpp"

namespace m3d {

namespace {

/// RC tree node used during routed extraction.
struct RcNode {
  double cap = 0.0;            ///< own capacitance, then (once summed) downstream.
  double resToParent = 0.0;
  double lenToParentUm = 0.0;  ///< 0 for via edges.
  double delay = 0.0;          ///< Elmore wire delay from the root.
  double lenUm = 0.0;          ///< wire length from the root.
  int parent = -1;
  bool seen = false;           ///< reached by the BFS from the root.
};

/// Working memory of the routed kernel, reused from net to net: extracting
/// a list of nets allocates nothing per net beyond each result's two
/// vectors. It carries nothing from one net to the next; one per call (the
/// daemon runs flows on several threads, so never static).
struct ExtractScratch {
  NetNodeIndex rc;              ///< grid node -> RC node, first-appearance order.
  std::vector<int> ends;        ///< RC nodes of segment i's ends at 2i, 2i+1.
  std::vector<double> segRes;   ///< resistance of each segment.
  std::vector<int> adjStart;    ///< per RC node: first entry of its neighbours in adj.
  std::vector<int> adj;         ///< entry e of ends: the neighbour is ends[e ^ 1].
  std::vector<RcNode> nodes;
  std::vector<int> order;       ///< BFS order from the root.
  std::vector<int> pinRc;       ///< RC node of each net pin.
};

/// Extracts net \p netId from \p route into \p out.
///
/// RC nodes are numbered in the order the segments first name their grid
/// nodes, and each node keeps its neighbours in segment order, so the BFS
/// order and the order of every floating-point sum depend only on the
/// segment list. RC node 0 (the first segment's fromNode) is where a pin off
/// the route lumps, and the BFS root when the driver's gcell is off it (or
/// the net has no driver).
void extractInto(const Netlist& nl, NetId netId, const RouteGrid& grid, const NetRoute& route,
                 ExtractScratch& s, NetParasitics& out) {
  const Net& net = nl.net(netId);
  const std::size_t numPins = net.pins.size();
  out.wireCap = 0.0;
  out.pinCap = 0.0;
  out.totalRes = 0.0;
  out.sinkWireDelay.assign(numPins, 0.0);
  out.sinkWireLengthUm.assign(numPins, 0.0);

  // Sum sink pin caps.
  for (int k = 0; k < static_cast<int>(numPins); ++k) {
    if (k == net.driverIdx) continue;
    out.pinCap += nl.pinCap(net.pins[static_cast<std::size_t>(k)]);
  }

  if (route.segs.empty()) {
    // All pins share a gcell: lumped node, no wire delay.
    return;
  }

  // Number the RC nodes and lay each segment's half-caps on its ends.
  const std::size_t numSegs = route.segs.size();
  s.rc.reset(2 * numSegs);
  s.ends.resize(2 * numSegs);
  s.segRes.resize(numSegs);
  s.nodes.clear();
  const Beol& beol = grid.beol();
  const double gUm = grid.gcellUm();
  for (std::size_t i = 0; i < numSegs; ++i) {
    const RouteSeg& seg = route.segs[i];
    const int a = s.rc.insert(seg.fromNode);
    const int b = s.rc.insert(seg.toNode);
    s.nodes.resize(static_cast<std::size_t>(s.rc.size()));
    double res = 0.0;
    double cap = 0.0;
    if (seg.isVia) {
      const CutLayer& c = beol.cut(seg.layer);
      res = c.res;
      cap = c.cap;
    } else {
      const MetalLayer& m = beol.metal(seg.layer);
      res = m.rPerUm * gUm;
      cap = m.cPerUm * gUm;
    }
    s.nodes[static_cast<std::size_t>(a)].cap += cap / 2.0;
    s.nodes[static_cast<std::size_t>(b)].cap += cap / 2.0;
    out.wireCap += cap;
    out.totalRes += res;
    s.ends[2 * i] = a;
    s.ends[2 * i + 1] = b;
    s.segRes[i] = res;
  }
  const std::size_t numNodes = s.nodes.size();

  // Undirected RC edges as adjacency lists: each segment enters its from
  // node's list, then its to node's, so every list is in segment order.
  s.adjStart.assign(numNodes + 1, 0);
  for (const int end : s.ends) ++s.adjStart[static_cast<std::size_t>(end) + 1];
  for (std::size_t v = 0; v < numNodes; ++v) s.adjStart[v + 1] += s.adjStart[v];
  s.adj.resize(s.ends.size());
  for (std::size_t e = 0; e < s.ends.size(); ++e) {
    // adjStart[v] is the fill cursor of node v, left one list further on.
    s.adj[static_cast<std::size_t>(s.adjStart[static_cast<std::size_t>(s.ends[e])]++)] =
        static_cast<int>(e);
  }
  for (std::size_t v = numNodes; v > 0; --v) s.adjStart[v] = s.adjStart[v - 1];
  s.adjStart[0] = 0;

  // Attach pin caps and remember pin RC nodes.
  s.pinRc.resize(numPins);
  for (int k = 0; k < static_cast<int>(numPins); ++k) {
    const NetPin& pin = net.pins[static_cast<std::size_t>(k)];
    // A pin whose gcell never appears in the route (unrouted sink) lumps at
    // the driver; approximate with the root.
    const int rc = std::max(0, s.rc.find(grid.pinNode(nl, pin)));
    s.pinRc[static_cast<std::size_t>(k)] = rc;
    if (k != net.driverIdx) s.nodes[static_cast<std::size_t>(rc)].cap += nl.pinCap(pin);
  }

  // Orient the tree from the driver via BFS.
  const int driverRc =
      net.driverIdx < 0
          ? -1
          : s.rc.find(grid.pinNode(nl, net.pins[static_cast<std::size_t>(net.driverIdx)]));
  const int root = std::max(0, driverRc);
  s.order.clear();
  s.order.push_back(root);
  s.nodes[static_cast<std::size_t>(root)].seen = true;
  for (std::size_t qi = 0; qi < s.order.size(); ++qi) {
    const int u = s.order[qi];
    for (int k = s.adjStart[static_cast<std::size_t>(u)];
         k < s.adjStart[static_cast<std::size_t>(u) + 1]; ++k) {
      const int e = s.adj[static_cast<std::size_t>(k)];
      RcNode& to = s.nodes[static_cast<std::size_t>(s.ends[static_cast<std::size_t>(e ^ 1)])];
      if (to.seen) continue;
      to.seen = true;
      to.parent = u;
      to.resToParent = s.segRes[static_cast<std::size_t>(e >> 1)];
      to.lenToParentUm = route.segs[static_cast<std::size_t>(e >> 1)].isVia ? 0.0 : gUm;
      s.order.push_back(s.ends[static_cast<std::size_t>(e ^ 1)]);
    }
  }

  // Downstream capacitance (reverse BFS order), then Elmore delays.
  for (std::size_t qi = s.order.size(); qi-- > 1;) {
    const RcNode& u = s.nodes[static_cast<std::size_t>(s.order[qi])];
    s.nodes[static_cast<std::size_t>(u.parent)].cap += u.cap;
  }
  for (std::size_t qi = 1; qi < s.order.size(); ++qi) {
    RcNode& u = s.nodes[static_cast<std::size_t>(s.order[qi])];
    const RcNode& p = s.nodes[static_cast<std::size_t>(u.parent)];
    u.delay = p.delay + u.resToParent * u.cap;
    u.lenUm = p.lenUm + u.lenToParentUm;
  }

  for (int k = 0; k < static_cast<int>(numPins); ++k) {
    if (k == net.driverIdx) continue;
    // An unreached node keeps delay and length 0.
    const RcNode& v = s.nodes[static_cast<std::size_t>(s.pinRc[static_cast<std::size_t>(k)])];
    out.sinkWireDelay[static_cast<std::size_t>(k)] = v.delay;
    out.sinkWireLengthUm[static_cast<std::size_t>(k)] = v.lenUm;
  }
}

}  // namespace

NetParasitics extractRouted(const Netlist& nl, NetId netId, const RouteGrid& grid,
                            const NetRoute& route) {
  ExtractScratch scratch;
  NetParasitics out;
  extractInto(nl, netId, grid, route, scratch, out);
  return out;
}

std::vector<NetParasitics> extractDesign(const Netlist& nl, const RouteGrid& grid,
                                         const RoutingResult& routes) {
  ExtractScratch scratch;
  std::vector<NetParasitics> out(static_cast<std::size_t>(nl.numNets()));
  for (NetId n = 0; n < nl.numNets(); ++n) {
    extractInto(nl, n, grid, routes.nets[static_cast<std::size_t>(n)], scratch,
                out[static_cast<std::size_t>(n)]);
  }
  return out;
}

void extractNets(const Netlist& nl, const RouteGrid& grid, const RoutingResult& routes,
                 const std::vector<NetId>& nets, std::vector<NetParasitics>& paras) {
  ExtractScratch scratch;
  for (const NetId n : nets) {
    extractInto(nl, n, grid, routes.nets[static_cast<std::size_t>(n)], scratch,
                paras[static_cast<std::size_t>(n)]);
  }
}

EstimationOptions makeEstimationOptions(const Beol& beol, double parasiticScale) {
  EstimationOptions opt;
  // Representative per-um parasitics: average over the middle routing
  // layers (skip M1, which carries mostly pin access).
  double r = 0.0;
  double c = 0.0;
  int n = 0;
  for (int l = 1; l < beol.numMetals(); ++l) {
    r += beol.metal(l).rPerUm;
    c += beol.metal(l).cPerUm;
    ++n;
  }
  if (n > 0) {
    opt.rPerUm = r / n;
    opt.cPerUm = c / n;
  }
  opt.parasiticScale = parasiticScale;
  return opt;
}

NetParasitics estimateNet(const Netlist& nl, NetId netId, const EstimationOptions& opt) {
  const Net& net = nl.net(netId);
  NetParasitics out;
  out.sinkWireDelay.assign(net.pins.size(), 0.0);
  out.sinkWireLengthUm.assign(net.pins.size(), 0.0);
  if (net.pins.empty() || net.driverIdx < 0) return out;

  const Point drv = nl.pinPosition(net.pins[static_cast<std::size_t>(net.driverIdx)]);
  const double r = opt.rPerUm * opt.parasiticScale;
  const double c = opt.cPerUm * opt.parasiticScale;
  for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
    if (k == net.driverIdx) continue;
    const NetPin& p = net.pins[static_cast<std::size_t>(k)];
    const double pinCap = nl.pinCap(p);
    out.pinCap += pinCap;
    const double lenUm =
        dbuToUm(manhattanDistance(drv, nl.pinPosition(p))) * opt.lengthScale;
    out.wireCap += c * lenUm;
    out.totalRes += r * lenUm;
    // Private-wire Elmore: R*L * (C*L/2 + Csink).
    out.sinkWireDelay[static_cast<std::size_t>(k)] =
        r * lenUm * (c * lenUm / 2.0 + pinCap);
    out.sinkWireLengthUm[static_cast<std::size_t>(k)] = lenUm;
  }
  return out;
}

std::vector<NetParasitics> estimateDesign(const Netlist& nl, const EstimationOptions& opt) {
  std::vector<NetParasitics> out;
  out.reserve(static_cast<std::size_t>(nl.numNets()));
  for (NetId n = 0; n < nl.numNets(); ++n) out.push_back(estimateNet(nl, n, opt));
  return out;
}

CapTotals capTotals(const std::vector<NetParasitics>& paras) {
  CapTotals t;
  for (const NetParasitics& p : paras) {
    t.pinCapTotal += p.pinCap;
    t.wireCapTotal += p.wireCap;
  }
  return t;
}

}  // namespace m3d
