#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>

#include "core/macro3d.hpp"
#include "extract/extraction.hpp"
#include "flows/flows.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/netlist.hpp"
#include "route/route_grid.hpp"
#include "route/router.hpp"
#include "tech/combined_beol.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

class ExtractFixture : public ::testing::Test {
 protected:
  ExtractFixture() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {}

  InstId addInvAt(const std::string& name, double xUm, double yUm) {
    const InstId i = nl_.addInstance(name, lib_.findCell("INV_X1"));
    nl_.instance(i).pos = Point{umToDbu(xUm), umToDbu(yUm)};
    return i;
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
  Rect die_{0, 0, umToDbu(100), umToDbu(100)};
};

TEST_F(ExtractFixture, LumpedNetWhenPinsShareGcell) {
  const InstId a = addInvAt("a", 10, 10);
  const InstId b = addInvAt("b", 11, 10);
  const NetId n = nl_.addNet("n");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult routes = routeDesign(nl_, grid);
  const NetParasitics p = extractRouted(nl_, n, grid, routes.nets[static_cast<std::size_t>(n)]);
  EXPECT_DOUBLE_EQ(p.wireCap, 0.0);
  EXPECT_GT(p.pinCap, 0.0);  // the INV input cap
  EXPECT_DOUBLE_EQ(p.sinkWireDelay[1], 0.0);
}

TEST_F(ExtractFixture, WireCapScalesWithLength) {
  const InstId a = addInvAt("a", 2, 50);
  const InstId b = addInvAt("b", 30, 50);
  const InstId c = addInvAt("c", 98, 90);
  const NetId n1 = nl_.addNet("short");
  nl_.connect(n1, a, "Y");
  nl_.connect(n1, b, "A");
  const NetId n2 = nl_.addNet("long");
  nl_.connect(n2, b, "Y");
  nl_.connect(n2, c, "A");
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult routes = routeDesign(nl_, grid);
  const auto paras = extractDesign(nl_, grid, routes);
  EXPECT_GT(paras[static_cast<std::size_t>(n2)].wireCap,
            0.5 * paras[static_cast<std::size_t>(n1)].wireCap);
  EXPECT_GT(paras[static_cast<std::size_t>(n2)].sinkWireDelay[1], 0.0);
  EXPECT_GT(paras[static_cast<std::size_t>(n2)].sinkWireLengthUm[1],
            paras[static_cast<std::size_t>(n1)].sinkWireLengthUm[1]);
}

TEST_F(ExtractFixture, ElmoreMatchesAnalyticSingleWire) {
  // Straight horizontal route on one layer: Elmore = sum r_i * Cdown.
  const InstId a = addInvAt("a", 2, 50);
  const InstId b = addInvAt("b", 62, 50);
  const NetId n = nl_.addNet("w");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult routes = routeDesign(nl_, grid);
  const NetParasitics p = extractRouted(nl_, n, grid, routes.nets[static_cast<std::size_t>(n)]);

  // Analytic bound: uniform RC line of total R, total C plus sink cap:
  // delay in [R*(C/2 + Cs) * 0.5, R*(C/2 + Cs) * 2] regardless of layer mix.
  const double cs = p.pinCap;
  const double analytic = p.totalRes * (p.wireCap / 2.0 + cs);
  EXPECT_GT(p.sinkWireDelay[1], 0.3 * analytic);
  EXPECT_LT(p.sinkWireDelay[1], 3.0 * analytic);
}

TEST_F(ExtractFixture, PinCapExcludesDriver) {
  const InstId a = addInvAt("a", 10, 10);
  const InstId b = addInvAt("b", 40, 40);
  const InstId c = addInvAt("c", 70, 70);
  const NetId n = nl_.addNet("n");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");
  nl_.connect(n, c, "A");
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult routes = routeDesign(nl_, grid);
  const NetParasitics p = extractRouted(nl_, n, grid, routes.nets[static_cast<std::size_t>(n)]);
  const double invCap = lib_.cell(lib_.findCell("INV_X1")).pins[0].cap;
  EXPECT_DOUBLE_EQ(p.pinCap, 2.0 * invCap);
}

TEST_F(ExtractFixture, EstimationStarModel) {
  const InstId a = addInvAt("a", 0, 0);
  const InstId b = addInvAt("b", 100, 0);
  const NetId n = nl_.addNet("n");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");

  EstimationOptions opt;
  opt.rPerUm = 2.0;
  opt.cPerUm = 0.2e-15;
  const NetParasitics p = estimateNet(nl_, n, opt);
  const double lenUm = dbuToUm(manhattanDistance(
      nl_.pinPosition(nl_.net(n).pins[0]), nl_.pinPosition(nl_.net(n).pins[1])));
  EXPECT_NEAR(p.wireCap, opt.cPerUm * lenUm, 1e-20);
  EXPECT_NEAR(p.totalRes, opt.rPerUm * lenUm, 1e-6);
  const double cs = p.pinCap;
  EXPECT_NEAR(p.sinkWireDelay[1],
              opt.rPerUm * lenUm * (opt.cPerUm * lenUm / 2.0 + cs), 1e-18);
  EXPECT_NEAR(p.sinkWireLengthUm[1], lenUm, 1e-9);
}

TEST_F(ExtractFixture, EstimationScalesApply) {
  const InstId a = addInvAt("a", 0, 0);
  const InstId b = addInvAt("b", 80, 0);
  const NetId n = nl_.addNet("n");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");

  EstimationOptions base;
  EstimationOptions scaled = base;
  scaled.parasiticScale = 0.5;
  const NetParasitics pb = estimateNet(nl_, n, base);
  const NetParasitics ps = estimateNet(nl_, n, scaled);
  EXPECT_NEAR(ps.wireCap, 0.5 * pb.wireCap, 1e-20);
  EXPECT_NEAR(ps.totalRes, 0.5 * pb.totalRes, 1e-9);

  EstimationOptions len = base;
  len.lengthScale = 0.5;
  const NetParasitics pl = estimateNet(nl_, n, len);
  EXPECT_NEAR(pl.wireCap, 0.5 * pb.wireCap, 1e-20);
  EXPECT_NEAR(pl.sinkWireLengthUm[1], 0.5 * pb.sinkWireLengthUm[1], 1e-9);
}

TEST_F(ExtractFixture, MakeEstimationOptionsAveragesUpperLayers) {
  const EstimationOptions opt = makeEstimationOptions(tech_.beol);
  double r = 0.0;
  double c = 0.0;
  for (int l = 1; l < tech_.beol.numMetals(); ++l) {
    r += tech_.beol.metal(l).rPerUm;
    c += tech_.beol.metal(l).cPerUm;
  }
  EXPECT_NEAR(opt.rPerUm, r / 5.0, 1e-9);
  EXPECT_NEAR(opt.cPerUm, c / 5.0, 1e-24);
}

TEST_F(ExtractFixture, CapTotalsAggregates) {
  const InstId a = addInvAt("a", 10, 10);
  const InstId b = addInvAt("b", 80, 80);
  const NetId n = nl_.addNet("n");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult routes = routeDesign(nl_, grid);
  const auto paras = extractDesign(nl_, grid, routes);
  const CapTotals t = capTotals(paras);
  EXPECT_GT(t.wireCapTotal, 0.0);
  EXPECT_GT(t.pinCapTotal, 0.0);
}

TEST_F(ExtractFixture, F2fViaParasiticsAppear) {
  // Build a combined stack and a route crossing the bond: extraction must
  // include the 44 mOhm / 1.0 fF contribution.
  const TechNode macroTech = makeTech28(4);
  const Beol combined =
      buildCombinedBeol(tech_.beol, macroTech.beol, F2fViaSpec{}, MacroDieStackOrder::kFlipped);
  // Port on the macro-die top (furthest from F2F) forces a crossing.
  const InstId a = addInvAt("a", 10, 10);
  const PortId port = nl_.addPort("up", PinDir::kOutput, Side::kNorth);
  nl_.port(port).layer = "M1_MD";
  nl_.port(port).pos = Point{umToDbu(50), umToDbu(100)};
  const NetId n = nl_.addNet("cross");
  nl_.connect(n, a, "Y");
  nl_.connectPort(n, port);

  RouteGrid grid(nl_, die_, combined);
  const RoutingResult routes = routeDesign(nl_, grid);
  ASSERT_EQ(routes.unroutedNets, 0);
  ASSERT_GE(routes.f2fBumps, 1);
  const NetParasitics p = extractRouted(nl_, n, grid, routes.nets[static_cast<std::size_t>(n)]);
  // Wire cap includes at least the bump cap.
  EXPECT_GE(p.wireCap, 1.0e-15);
}

// ---------------------------------------------------------------------------
// The routed kernel against its map-based reference.

/// The routed extraction kernel as it was written first, kept as the oracle
/// of the flat one: RC nodes keyed by grid node in a std::map and numbered
/// in first-appearance order, adjacency in nested vectors.
NetParasitics referenceExtract(const Netlist& nl, NetId netId, const RouteGrid& grid,
                               const NetRoute& route) {
  struct RcNode {
    double cap = 0.0;
    double resToParent = 0.0;
    double lenToParentUm = 0.0;
    int parent = -1;
  };
  const Net& net = nl.net(netId);
  NetParasitics out;
  out.sinkWireDelay.assign(net.pins.size(), 0.0);
  out.sinkWireLengthUm.assign(net.pins.size(), 0.0);
  for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
    if (k == net.driverIdx) continue;
    out.pinCap += nl.pinCap(net.pins[static_cast<std::size_t>(k)]);
  }
  if (route.segs.empty()) return out;

  std::map<int, int> rcOf;
  std::vector<RcNode> nodes;
  struct AdjEdge {
    int to;
    double res;
    double lenUm;
  };
  std::vector<std::vector<AdjEdge>> adj;
  auto rcNode = [&](int gridNode) {
    auto it = rcOf.find(gridNode);
    if (it != rcOf.end()) return it->second;
    const int id = static_cast<int>(nodes.size());
    rcOf.emplace(gridNode, id);
    nodes.push_back({});
    adj.push_back({});
    return id;
  };
  const Beol& beol = grid.beol();
  const double gUm = grid.gcellUm();
  for (const RouteSeg& s : route.segs) {
    const int a = rcNode(s.fromNode);
    const int b = rcNode(s.toNode);
    double res = 0.0;
    double cap = 0.0;
    if (s.isVia) {
      res = beol.cut(s.layer).res;
      cap = beol.cut(s.layer).cap;
    } else {
      res = beol.metal(s.layer).rPerUm * gUm;
      cap = beol.metal(s.layer).cPerUm * gUm;
    }
    nodes[static_cast<std::size_t>(a)].cap += cap / 2.0;
    nodes[static_cast<std::size_t>(b)].cap += cap / 2.0;
    out.wireCap += cap;
    out.totalRes += res;
    const double segLenUm = s.isVia ? 0.0 : gUm;
    adj[static_cast<std::size_t>(a)].push_back({b, res, segLenUm});
    adj[static_cast<std::size_t>(b)].push_back({a, res, segLenUm});
  }
  std::vector<int> pinRc(net.pins.size(), -1);
  for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
    auto it = rcOf.find(grid.pinNode(nl, net.pins[static_cast<std::size_t>(k)]));
    const int rc = (it != rcOf.end()) ? it->second : 0;
    pinRc[static_cast<std::size_t>(k)] = rc;
    if (k != net.driverIdx) {
      nodes[static_cast<std::size_t>(rc)].cap += nl.pinCap(net.pins[static_cast<std::size_t>(k)]);
    }
  }
  auto rootIt =
      rcOf.find(grid.pinNode(nl, net.pins[static_cast<std::size_t>(net.driverIdx)]));
  const int root = rootIt != rcOf.end() ? rootIt->second : 0;
  std::vector<int> order{root};
  std::vector<char> seen(nodes.size(), 0);
  seen[static_cast<std::size_t>(root)] = 1;
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    const int u = order[qi];
    for (const AdjEdge& e : adj[static_cast<std::size_t>(u)]) {
      if (seen[static_cast<std::size_t>(e.to)]) continue;
      seen[static_cast<std::size_t>(e.to)] = 1;
      nodes[static_cast<std::size_t>(e.to)].parent = u;
      nodes[static_cast<std::size_t>(e.to)].resToParent = e.res;
      nodes[static_cast<std::size_t>(e.to)].lenToParentUm = e.lenUm;
      order.push_back(e.to);
    }
  }
  std::vector<double> downCap(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) downCap[i] = nodes[i].cap;
  for (std::size_t qi = order.size(); qi-- > 1;) {
    const int u = order[qi];
    const int p = nodes[static_cast<std::size_t>(u)].parent;
    if (p >= 0) downCap[static_cast<std::size_t>(p)] += downCap[static_cast<std::size_t>(u)];
  }
  std::vector<double> delay(nodes.size(), 0.0);
  std::vector<double> lenUm(nodes.size(), 0.0);
  for (std::size_t qi = 1; qi < order.size(); ++qi) {
    const auto u = static_cast<std::size_t>(order[qi]);
    const auto p = static_cast<std::size_t>(nodes[u].parent);
    delay[u] = delay[p] + nodes[u].resToParent * downCap[u];
    lenUm[u] = lenUm[p] + nodes[u].lenToParentUm;
  }
  for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
    if (k == net.driverIdx) continue;
    const auto rc = static_cast<std::size_t>(pinRc[static_cast<std::size_t>(k)]);
    out.sinkWireDelay[static_cast<std::size_t>(k)] = seen[rc] ? delay[rc] : 0.0;
    out.sinkWireLengthUm[static_cast<std::size_t>(k)] = seen[rc] ? lenUm[rc] : 0.0;
  }
  return out;
}

/// Whether \p a and \p b hold the same bits in every value.
bool bitIdentical(const NetParasitics& a, const NetParasitics& b) {
  const auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return std::memcmp(&a.wireCap, &b.wireCap, sizeof(double)) == 0 &&
         std::memcmp(&a.pinCap, &b.pinCap, sizeof(double)) == 0 &&
         std::memcmp(&a.totalRes, &b.totalRes, sizeof(double)) == 0 &&
         same(a.sinkWireDelay, b.sinkWireDelay) && same(a.sinkWireLengthUm, b.sinkWireLengthUm);
}

/// Every extraction entry point (the per-net call, the whole design, and a
/// re-extraction of some nets into a stale table) gives exactly the
/// reference's bits on \p routes.
void expectMatchesReference(const Netlist& nl, const RouteGrid& grid,
                            const RoutingResult& routes) {
  const std::vector<NetParasitics> all = extractDesign(nl, grid, routes);
  ASSERT_EQ(all.size(), static_cast<std::size_t>(nl.numNets()));
  std::vector<NetId> someNets;
  for (NetId n = nl.numNets(); n-- > 0;) {
    const NetRoute& route = routes.nets[static_cast<std::size_t>(n)];
    const NetParasitics ref = referenceExtract(nl, n, grid, route);
    EXPECT_TRUE(bitIdentical(all[static_cast<std::size_t>(n)], ref)) << "net " << n;
    EXPECT_TRUE(bitIdentical(extractRouted(nl, n, grid, route), ref)) << "net " << n;
    if (n % 3 == 0) someNets.push_back(n);  // descending: the largest net first
  }
  std::vector<NetParasitics> stale = all;
  for (const NetId n : someNets) {
    NetParasitics& p = stale[static_cast<std::size_t>(n)];
    p.wireCap = p.pinCap = p.totalRes = -1.0;
    p.sinkWireDelay.assign(p.sinkWireDelay.size(), -1.0);
  }
  extractNets(nl, grid, routes, someNets, stale);
  for (NetId n = 0; n < nl.numNets(); ++n) {
    EXPECT_TRUE(bitIdentical(stale[static_cast<std::size_t>(n)], all[static_cast<std::size_t>(n)]))
        << "net " << n;
  }
}

// The flat kernel reproduces the map-based one bit for bit, on random
// routes that exercise every rule the results depend on (first-appearance
// numbering, segment-order neighbours, RC node 0 as the fallback for a sink
// or a driver off the route) and on every net of the tiny Macro-3D flow.
TEST(ExtractKernel, MatchesMapReferenceBitwise) {
  const TechNode logic = makeTech28(6);
  const Beol stack = buildCombinedBeol(logic.beol, makeTech28(4).beol, F2fViaSpec{},
                                       MacroDieStackOrder::kFlipped);
  const Library lib = makeStdCellLib(logic);
  Netlist nl(&lib);
  std::mt19937_64 rng(20);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  const CellTypeId inv = lib.findCell("INV_X1");
  const auto placeInv = [&](int id) {
    const InstId i = nl.addInstance("u" + std::to_string(id), inv);
    nl.instance(i).pos = Point{umToDbu(pick(40)), umToDbu(pick(40))};
    return i;
  };
  constexpr int kNets = 600;
  int insts = 0;
  for (int n = 0; n < kNets; ++n) {
    const NetId net = nl.addNet("n" + std::to_string(n));
    nl.connect(net, placeInv(insts++), "Y");
    for (int k = 1 + pick(5); k > 0; --k) nl.connect(net, placeInv(insts++), "A");
    if (n % 5 == 0) {  // a sink on the macro die, across the F2F cut
      const PortId port = nl.addPort("p" + std::to_string(n), PinDir::kOutput, Side::kNorth);
      nl.port(port).layer = "M1_MD";
      nl.port(port).pos = Point{umToDbu(pick(40)), umToDbu(pick(40))};
      nl.port(port).cap = 2.0e-15;
      nl.connectPort(net, port);
    }
  }
  const RouteGrid grid(nl, Rect{0, 0, umToDbu(40), umToDbu(40)}, stack);
  const int f2fCut = grid.f2fCutLayer();
  ASSERT_GE(f2fCut, 0);

  // Random route graphs: a tree grown from the driver's node (or from some
  // other node), with cycles, repeated segments, self-loops, nodes past the
  // grid on either side, and most sinks attached.
  RoutingResult routes;
  routes.nets.resize(static_cast<std::size_t>(nl.numNets()));
  int driversOff = 0, sinksOff = 0, pastGrid = 0, cycles = 0, repeats = 0, f2fVias = 0;
  const int numNodes = grid.numNodes();
  const int steps[] = {1, -1, grid.nx(), -grid.nx(), grid.nx() * grid.ny(),
                       -grid.nx() * grid.ny()};
  for (NetId n = 0; n < nl.numNets(); ++n) {
    const Net& net = nl.net(n);
    NetRoute& route = routes.nets[static_cast<std::size_t>(n)];
    route.routed = true;
    if (n % 23 == 0) continue;  // segment-free: a lumped net
    std::vector<int> onRoute;
    std::vector<RouteSeg>& segs = route.segs;
    const auto addSeg = [&](int from, int to) {
      RouteSeg s;
      s.isVia = pick(3) == 0;
      s.layer = s.isVia ? (pick(4) == 0 ? f2fCut : pick(stack.numCuts())) : pick(stack.numMetals());
      f2fVias += s.isVia && s.layer == f2fCut;
      if (pick(2) == 0) std::swap(from, to);
      s.fromNode = from;
      s.toNode = to;
      segs.push_back(s);
    };
    const int driverNode = grid.pinNode(nl, net.pins[static_cast<std::size_t>(net.driverIdx)]);
    const bool driverOff = n % 9 == 0;
    driversOff += driverOff;
    onRoute.push_back(driverOff ? pick(numNodes) : driverNode);
    for (int k = 2 + pick(14); k > 0; --k) {
      const int u = onRoute[static_cast<std::size_t>(pick(static_cast<int>(onRoute.size())))];
      const int kind = pick(10);
      if (kind < 6) {  // grow the tree by one hop
        const int v = u + steps[pick(6)];
        addSeg(u, v);
        onRoute.push_back(v);
      } else if (kind == 6) {  // close a cycle (or a self-loop)
        ++cycles;
        addSeg(u, onRoute[static_cast<std::size_t>(pick(static_cast<int>(onRoute.size())))]);
      } else if (kind == 7) {  // repeat a segment
        ++repeats;
        segs.push_back(segs.empty() ? RouteSeg{false, 0, u, u} : segs[static_cast<std::size_t>(
                                                                    pick(static_cast<int>(segs.size())))]);
      } else {  // a node past the grid
        ++pastGrid;
        const int v = pick(2) == 0 ? numNodes + pick(1000) : -1 - pick(1000);
        addSeg(u, v);
        onRoute.push_back(v);
      }
    }
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      if (static_cast<int>(k) == net.driverIdx) continue;
      if (pick(6) == 0) {
        ++sinksOff;
        continue;
      }
      const int u = onRoute[static_cast<std::size_t>(pick(static_cast<int>(onRoute.size())))];
      const int v = grid.pinNode(nl, net.pins[k]);
      addSeg(u, v);
      onRoute.push_back(v);
    }
  }
  for (const int count : {driversOff, sinksOff, pastGrid, cycles, repeats, f2fVias}) {
    EXPECT_GT(count, 20);
  }
  {
    SCOPED_TRACE("random routes");
    expectMatchesReference(nl, grid, routes);
  }

  FlowOptions opt;
  opt.maxFreqRounds = 2;
  opt.optBase.maxPasses = 6;
  const FlowOutput flow = runFlowMacro3D(makeTinyTileConfig(), opt);
  SCOPED_TRACE("tiny Macro-3D flow");
  expectMatchesReference(flow.tile->netlist, *flow.grid, flow.routes);
}

}  // namespace
}  // namespace m3d
