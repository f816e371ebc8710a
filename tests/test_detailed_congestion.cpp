#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

/// The router tests' oracle. Validates routed geometry: every multi-pin
/// net's segments must form a connected tree (|edges| == |nodes| - 1,
/// single component) that touches every pin's grid node. Returns a
/// diagnostic string (empty when healthy).
std::string checkRoutedTrees(const Netlist& nl, const RouteGrid& grid,
                             const RoutingResult& routes) {
  std::ostringstream err;
  int reported = 0;
  for (NetId n = 0; n < nl.numNets(); ++n) {
    const Net& net = nl.net(n);
    if (net.pins.size() < 2) continue;
    const NetRoute& r = routes.nets[static_cast<std::size_t>(n)];
    if (!r.routed) {
      if (reported++ < 10) err << net.name << ": unrouted; ";
      continue;
    }

    // Gather nodes and adjacency.
    std::map<int, int> idOf;
    std::vector<std::vector<int>> adj;
    auto nodeOf = [&](int gridNode) {
      auto it = idOf.find(gridNode);
      if (it != idOf.end()) return it->second;
      const int id = static_cast<int>(adj.size());
      idOf.emplace(gridNode, id);
      adj.push_back({});
      return id;
    };
    std::set<std::pair<int, int>> seen;
    bool dup = false;
    for (const RouteSeg& s : r.segs) {
      const int a = nodeOf(s.fromNode);
      const int b = nodeOf(s.toNode);
      const auto key = std::minmax(a, b);
      if (!seen.insert({key.first, key.second}).second) dup = true;
      adj[static_cast<std::size_t>(a)].push_back(b);
      adj[static_cast<std::size_t>(b)].push_back(a);
    }
    if (dup && reported++ < 10) err << net.name << ": duplicate segment; ";

    if (r.segs.empty()) {
      // All pins must share one grid node.
      const int first = grid.pinNode(nl, net.pins[0]);
      for (const NetPin& p : net.pins) {
        if (grid.pinNode(nl, p) != first) {
          if (reported++ < 10) err << net.name << ": empty route but pins in distinct gcells; ";
          break;
        }
      }
      continue;
    }

    // Tree check: connected and |E| == |V| - 1.
    if (adj.size() != r.segs.size() + 1) {
      if (reported++ < 10) err << net.name << ": cycle (|E| != |V|-1); ";
    }
    std::vector<char> vis(adj.size(), 0);
    std::vector<int> stack{0};
    vis[0] = 1;
    std::size_t count = 1;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int v : adj[static_cast<std::size_t>(u)]) {
        if (!vis[static_cast<std::size_t>(v)]) {
          vis[static_cast<std::size_t>(v)] = 1;
          ++count;
          stack.push_back(v);
        }
      }
    }
    if (count != adj.size()) {
      if (reported++ < 10) err << net.name << ": disconnected route; ";
    }
    // Every pin node covered.
    for (const NetPin& p : net.pins) {
      if (idOf.find(grid.pinNode(nl, p)) == idOf.end()) {
        if (reported++ < 10) err << net.name << ": pin off the route tree; ";
        break;
      }
    }
  }
  return err.str();
}

/// A globally placed logic cloud for the route-tree checks.
class DetailedFixture : public ::testing::Test {
 protected:
  DetailedFixture() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {
    const NetId clk = nl_.addNet("clk");
    const PortId clkPort = nl_.addPort("clk", PinDir::kInput, Side::kWest, true);
    nl_.connectPort(clk, clkPort);
    Rng rng(21);
    CloudSpec spec;
    spec.prefix = "d";
    spec.numGates = 500;
    spec.numRegs = 100;
    spec.clockNet = clk;
    buildLogicCloud(nl_, rng, spec);

    fp_.die = Rect{0, 0, snapUp(umToDbu(70), tech_.siteWidth), snapUp(umToDbu(70), tech_.rowHeight)};
    fp_.rowHeight = tech_.rowHeight;
    fp_.siteWidth = tech_.siteWidth;
    assignPorts(nl_, fp_.die);
    globalPlace(nl_, fp_);
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
  Floorplan fp_;
};

TEST_F(DetailedFixture, RoutedTreesValidate) {
  RouteGrid grid(nl_, fp_.die, tech_.beol);
  const RoutingResult routes = routeDesign(nl_, grid);
  EXPECT_EQ(routes.unroutedNets, 0);
  EXPECT_EQ(checkRoutedTrees(nl_, grid, routes), "");
}

TEST(RouteChecker, DetectsBrokenTree) {
  const TechNode tech = makeTech28(6);
  Library lib = makeStdCellLib(tech);
  Netlist nl(&lib);
  const InstId a = nl.addInstance("a", lib.findCell("INV_X1"));
  const InstId b = nl.addInstance("b", lib.findCell("INV_X1"));
  nl.instance(a).pos = Point{umToDbu(10), umToDbu(10)};
  nl.instance(b).pos = Point{umToDbu(60), umToDbu(60)};
  const NetId n = nl.addNet("n");
  nl.connect(n, a, "Y");
  nl.connect(n, b, "A");

  const Rect die{0, 0, umToDbu(100), umToDbu(100)};
  RouteGrid grid(nl, die, tech.beol);
  RoutingResult routes = routeDesign(nl, grid);
  ASSERT_EQ(checkRoutedTrees(nl, grid, routes), "");

  // Break the tree: drop the last segment.
  auto& segs = routes.nets[static_cast<std::size_t>(n)].segs;
  ASSERT_FALSE(segs.empty());
  segs.pop_back();
  EXPECT_NE(checkRoutedTrees(nl, grid, routes), "");
}

}  // namespace
}  // namespace m3d
