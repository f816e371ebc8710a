#include <gtest/gtest.h>

#include <algorithm>

#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "place/placer.hpp"
#include "report/congestion.hpp"
#include "route/router.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

/// A globally placed logic cloud for the congestion and route-tree checks.
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

TEST_F(DetailedFixture, LayerUtilizationAndMap) {
  RouteGrid grid(nl_, fp_.die, tech_.beol);
  const RoutingResult routes = routeDesign(nl_, grid);
  const auto util = layerUtilization(grid, routes);
  ASSERT_EQ(util.size(), 6u);
  double used = 0.0;
  for (const auto& u : util) {
    EXPECT_GE(u.capacityUm, u.usedUm * 0.0);  // capacities computed
    EXPECT_GE(u.utilization(), 0.0);
    EXPECT_LE(u.utilization(), 1.5);
    used += u.usedUm;
  }
  EXPECT_NEAR(used, routes.totalWirelengthUm, 1e-6);

  const std::string map = congestionMap(grid, routes, 32);
  EXPECT_NE(map.find("congestion map"), std::string::npos);
  // One heat row per (downsampled) gcell row.
  EXPECT_GT(std::count(map.begin(), map.end(), '\n'), 3);
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
