#include <gtest/gtest.h>

#include <random>
#include <set>

#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "opt/net_buffering.hpp"
#include "place/legalizer.hpp"
#include "opt/optimizer.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

class Opt2Fixture : public ::testing::Test {
 public:
  Opt2Fixture() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {}

  Floorplan makeFp(double sideUm) {
    Floorplan fp;
    fp.die = Rect{0, 0, snapUp(umToDbu(sideUm), tech_.siteWidth),
                  snapUp(umToDbu(sideUm), tech_.rowHeight)};
    fp.rowHeight = tech_.rowHeight;
    fp.siteWidth = tech_.siteWidth;
    return fp;
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
};

TEST_F(Opt2Fixture, PresizeUpsizesOverloadedDrivers) {
  // One INV_X1 driving 20 INV_X4 inputs: stage delay far beyond target.
  const InstId drv = nl_.addInstance("drv", lib_.findCell("INV_X1"));
  const NetId in = nl_.addNet("in");
  const PortId p = nl_.addPort("in", PinDir::kInput, Side::kWest);
  nl_.connectPort(in, p);
  nl_.connect(in, drv, "A");
  const NetId heavy = nl_.addNet("heavy");
  nl_.connect(heavy, drv, "Y");
  for (int i = 0; i < 20; ++i) {
    const InstId s = nl_.addInstance("s" + std::to_string(i), lib_.findCell("INV_X4"));
    nl_.connect(heavy, s, "A");
    const NetId o = nl_.addNet("o" + std::to_string(i));
    const PortId op = nl_.addPort("o" + std::to_string(i), PinDir::kOutput, Side::kEast);
    nl_.connect(o, s, "Y");
    nl_.connectPort(o, op);
  }

  EstimationOptions eopt;
  eopt.rPerUm = 0.0;
  eopt.cPerUm = 0.0;
  EstimatedParasitics provider(eopt);
  auto paras = estimateDesign(nl_, eopt);

  const double loadBefore = paras[static_cast<std::size_t>(heavy)].totalLoad();
  const int resized = presizeForLoad(nl_, paras, provider, 90e-12);
  EXPECT_GT(resized, 0);
  // drv must now be a stronger INV.
  EXPECT_GT(nl_.cellOf(drv).driveStrength, 1);
  // Target met or family topped out.
  double worstRes = 0.0;
  for (const auto& a : nl_.cellOf(drv).arcs) worstRes = std::max(worstRes, a.driveRes);
  const double load = paras[static_cast<std::size_t>(heavy)].totalLoad();
  EXPECT_TRUE(worstRes * load <= 90e-12 ||
              lib_.nextSizeUp(nl_.instance(drv).type) == kInvalidCellType);
  EXPECT_NEAR(load, loadBefore, 1e-18);  // sink caps unchanged
  EXPECT_TRUE(nl_.validate().empty()) << nl_.validate();
}

TEST_F(Opt2Fixture, PresizeLeavesLightDriversAlone) {
  const InstId a = nl_.addInstance("a", lib_.findCell("INV_X1"));
  const InstId b = nl_.addInstance("b", lib_.findCell("INV_X1"));
  const NetId in = nl_.addNet("in");
  const PortId p = nl_.addPort("in", PinDir::kInput, Side::kWest);
  nl_.connectPort(in, p);
  nl_.connect(in, a, "A");
  const NetId m = nl_.addNet("m");
  nl_.connect(m, a, "Y");
  nl_.connect(m, b, "A");
  const NetId o = nl_.addNet("o");
  const PortId op = nl_.addPort("o", PinDir::kOutput, Side::kEast);
  nl_.connect(o, b, "Y");
  nl_.connectPort(o, op);

  EstimationOptions eopt;
  eopt.rPerUm = 0.0;
  eopt.cPerUm = 0.0;
  EstimatedParasitics provider(eopt);
  auto paras = estimateDesign(nl_, eopt);
  // FO1 inverter: 3000 ohm * ~3fF (port cap) << 90ps.
  const int resized = presizeForLoad(nl_, paras, provider, 90e-12);
  EXPECT_EQ(resized, 0);
  EXPECT_EQ(nl_.cellOf(a).driveStrength, 1);
}

TEST_F(Opt2Fixture, FanoutBufferingBoundsSinkCount) {
  const InstId drv = nl_.addInstance("drv", lib_.findCell("INV_X4"));
  nl_.instance(drv).pos = Point{umToDbu(50), umToDbu(50)};
  const NetId in = nl_.addNet("in");
  const PortId p = nl_.addPort("in", PinDir::kInput, Side::kWest);
  nl_.connectPort(in, p);
  nl_.connect(in, drv, "A");
  const NetId big = nl_.addNet("big");
  nl_.connect(big, drv, "Y");
  for (int i = 0; i < 24; ++i) {
    const InstId s = nl_.addInstance("s" + std::to_string(i), lib_.findCell("INV_X1"));
    nl_.instance(s).pos = Point{umToDbu(10.0 + 4.0 * (i % 6)), umToDbu(10.0 + 4.0 * (i / 6))};
    nl_.connect(big, s, "A");
    const NetId o = nl_.addNet("so" + std::to_string(i));
    const PortId op = nl_.addPort("so" + std::to_string(i), PinDir::kOutput, Side::kEast);
    nl_.connect(o, s, "Y");
    nl_.connectPort(o, op);
  }

  const Floorplan fp = makeFp(100.0);
  const NetBufferingResult r = bufferLongNets(nl_, fp);
  EXPECT_GT(r.buffersInserted, 0);
  EXPECT_TRUE(nl_.validate().empty()) << nl_.validate();
  // The driver's net now carries at most 6 sinks (the fanout bound)... minus the
  // buffer tree structure: every non-clock net obeys the fanout bound
  // within one buffering round's tolerance.
  const Net& net = nl_.net(big);
  EXPECT_LE(static_cast<int>(net.pins.size()) - 1, 24);
  EXPECT_LT(static_cast<int>(net.pins.size()) - 1, 24);  // strictly reduced
}

TEST_F(Opt2Fixture, CombDriveNetsAreCombinationallyDriven) {
  const NetId clk = nl_.addNet("clk");
  const PortId clkPort = nl_.addPort("clk", PinDir::kInput, Side::kWest, true);
  nl_.connectPort(clk, clkPort);

  std::vector<NetId> comb;
  std::vector<NetId> reg;
  for (int i = 0; i < 6; ++i) {
    const NetId c = nl_.addNet("comb" + std::to_string(i));
    const PortId cp = nl_.addPort("comb" + std::to_string(i), PinDir::kOutput, Side::kEast);
    nl_.connectPort(c, cp);
    comb.push_back(c);
    const NetId r = nl_.addNet("reg" + std::to_string(i));
    const PortId rp = nl_.addPort("reg" + std::to_string(i), PinDir::kOutput, Side::kNorth);
    nl_.connectPort(r, rp);
    reg.push_back(r);
  }

  Rng rng(5);
  CloudSpec spec;
  spec.prefix = "t";
  spec.numGates = 150;
  spec.numRegs = 30;
  spec.clockNet = clk;
  spec.driveNets = reg;
  spec.combDriveNets = comb;
  buildLogicCloud(nl_, rng, spec);
  EXPECT_TRUE(nl_.validate().empty()) << nl_.validate();

  for (NetId n : comb) {
    const Net& net = nl_.net(n);
    const NetPin& drv = net.pins[static_cast<std::size_t>(net.driverIdx)];
    ASSERT_EQ(drv.kind, NetPin::Kind::kInstPin);
    EXPECT_FALSE(nl_.cellOf(drv.inst).isSequential()) << nl_.net(n).name;
  }
  for (NetId n : reg) {
    const Net& net = nl_.net(n);
    const NetPin& drv = net.pins[static_cast<std::size_t>(net.driverIdx)];
    ASSERT_EQ(drv.kind, NetPin::Kind::kInstPin);
    EXPECT_TRUE(nl_.cellOf(drv.inst).isSequential()) << nl_.net(n).name;
  }
}

TEST_F(Opt2Fixture, RowDitheredPartialBlockageHalvesCapacity) {
  // Fill a small die against a 0.5-density blockage covering everything:
  // about half the rows must stay empty.
  for (int i = 0; i < 40; ++i) {
    nl_.addInstance("c" + std::to_string(i), lib_.findCell("DFF_X1"));
  }
  Floorplan fp = makeFp(20.0);
  fp.blockages.push_back({fp.die, 0.5});
  std::mt19937_64 rng(3);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos = Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp.die.xhi)),
                                static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp.die.yhi))};
  }
  const LegalizeResult r = legalize(nl_, fp);
  EXPECT_TRUE(r.success);
  // Count distinct used rows: must be <= ceil(numRows * 0.5) + 1.
  std::set<Dbu> rows;
  for (InstId i = 0; i < nl_.numInstances(); ++i) rows.insert(nl_.instance(i).pos.y);
  EXPECT_LE(static_cast<int>(rows.size()), fp.numRows() / 2 + 1);
}

}  // namespace
}  // namespace m3d
