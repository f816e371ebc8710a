#include <gtest/gtest.h>

#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "netlist/netlist.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  NetlistTest() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {}

  InstId addInv(const std::string& name) { return nl_.addInstance(name, lib_.findCell("INV_X1")); }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
};

TEST_F(NetlistTest, BuildSmallCircuit) {
  // port_in -> INV a -> INV b -> port_out
  const PortId pin = nl_.addPort("in", PinDir::kInput, Side::kWest);
  const PortId pout = nl_.addPort("out", PinDir::kOutput, Side::kEast);
  const InstId a = addInv("a");
  const InstId b = addInv("b");
  const NetId n0 = nl_.addNet("n0");
  const NetId n1 = nl_.addNet("n1");
  const NetId n2 = nl_.addNet("n2");
  nl_.connectPort(n0, pin);
  nl_.connect(n0, a, "A");
  nl_.connect(n1, a, "Y");
  nl_.connect(n1, b, "A");
  nl_.connect(n2, b, "Y");
  nl_.connectPort(n2, pout);

  EXPECT_EQ(nl_.numInstances(), 2);
  EXPECT_EQ(nl_.numNets(), 3);
  EXPECT_EQ(nl_.numPorts(), 2);
  EXPECT_TRUE(nl_.validate().empty()) << nl_.validate();

  // Driver bookkeeping.
  EXPECT_TRUE(nl_.isDriverPin(nl_.net(n0).pins[static_cast<std::size_t>(nl_.net(n0).driverIdx)]));
  EXPECT_EQ(nl_.net(n1).driverIdx, 0);  // a/Y connected first
}

TEST_F(NetlistTest, ValidateCatchesMissingDriver) {
  const InstId a = addInv("a");
  const InstId b = addInv("b");
  const NetId n = nl_.addNet("floating");
  nl_.connect(n, a, "A");
  nl_.connect(n, b, "A");
  EXPECT_NE(nl_.validate().find("no driver"), std::string::npos);
}

TEST_F(NetlistTest, ValidateCatchesMissingSink) {
  const InstId a = addInv("a");
  const NetId n = nl_.addNet("dangling");
  nl_.connect(n, a, "Y");
  EXPECT_NE(nl_.validate().find("no sink"), std::string::npos);
}

TEST_F(NetlistTest, DisconnectRewiresBackRefs) {
  const InstId a = addInv("a");
  const InstId b = addInv("b");
  const InstId c = addInv("c");
  const NetId n = nl_.addNet("n");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");
  nl_.connect(n, c, "A");
  ASSERT_EQ(nl_.net(n).pins.size(), 3u);

  nl_.disconnect(n, NetPin::makeInstPin(b, *nl_.cellOf(b).findPin("A")));
  EXPECT_EQ(nl_.net(n).pins.size(), 2u);
  EXPECT_EQ(nl_.instance(b).pinNets[0], kInvalidId);
  // Driver index survives the deletion.
  EXPECT_TRUE(nl_.isDriverPin(nl_.net(n).pins[static_cast<std::size_t>(nl_.net(n).driverIdx)]));
  // Reconnect elsewhere.
  const NetId n2 = nl_.addNet("n2");
  nl_.connect(n2, b, "A");
  nl_.connect(n2, c, "Y");
  EXPECT_TRUE(nl_.validate().empty()) << nl_.validate();
}

TEST_F(NetlistTest, ResizeKeepsConnectivity) {
  const InstId a = addInv("a");
  const InstId b = addInv("b");
  const NetId n = nl_.addNet("n");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");
  nl_.resize(a, lib_.findCell("INV_X4"));
  EXPECT_EQ(nl_.cellOf(a).name, "INV_X4");
  EXPECT_EQ(nl_.instance(a).pinNets[1], n);  // Y still on the net
  EXPECT_TRUE(nl_.isDriverPin(nl_.net(n).pins[static_cast<std::size_t>(nl_.net(n).driverIdx)]));
}

TEST_F(NetlistTest, PinPositionsFollowInstance) {
  const InstId a = addInv("a");
  nl_.instance(a).pos = Point{1000, 2000};
  const int yPin = *nl_.cellOf(a).findPin("Y");
  const Point expect = Point{1000, 2000} + nl_.cellOf(a).pins[static_cast<std::size_t>(yPin)].offset;
  EXPECT_EQ(nl_.pinPosition(NetPin::makeInstPin(a, yPin)), expect);
}

TEST_F(NetlistTest, HpwlComputation) {
  const InstId a = addInv("a");
  const InstId b = addInv("b");
  const NetId n = nl_.addNet("n");
  nl_.connect(n, a, "Y");
  nl_.connect(n, b, "A");
  nl_.instance(a).pos = Point{0, 0};
  nl_.instance(b).pos = Point{10000, 5000};
  const Dbu h = nl_.netHpwl(n);
  // HPWL equals bbox half-perimeter of the two pin positions.
  const Point pa = nl_.pinPosition(NetPin::makeInstPin(a, *nl_.cellOf(a).findPin("Y")));
  const Point pb = nl_.pinPosition(NetPin::makeInstPin(b, *nl_.cellOf(b).findPin("A")));
  EXPECT_EQ(h, manhattanDistance(pa, pb));
  EXPECT_EQ(nl_.totalHpwl(), h);
}

TEST_F(NetlistTest, PortHelpers) {
  EXPECT_EQ(oppositeSide(Side::kNorth), Side::kSouth);
  EXPECT_EQ(oppositeSide(Side::kEast), Side::kWest);
  EXPECT_STREQ(sideName(Side::kNorth), "N");
  const PortId p = nl_.addPort("clk", PinDir::kInput, Side::kWest, true);
  EXPECT_TRUE(nl_.port(p).isClock);
  const NetId n = nl_.addNet("clk");
  nl_.connectPort(n, p);
  EXPECT_TRUE(nl_.net(n).isClock);
}

// ---------------------------------------------------------------------------
// Logic-cloud generator properties.

struct CloudParam {
  int gates;
  int regs;
  int levels;
  std::uint64_t seed;
};

/// Names each instance by its values (ctest lists parameterized tests by the
/// printed parameter; gtest's default byte dump includes the padding bytes
/// after `levels`, which differ from build to build).
void PrintTo(const CloudParam& p, std::ostream* os) {
  *os << "g" << p.gates << "_r" << p.regs << "_l" << p.levels << "_s" << p.seed;
}

class LogicCloudTest : public ::testing::TestWithParam<CloudParam> {};

TEST_P(LogicCloudTest, GeneratesValidRegisterBoundedLogic) {
  const CloudParam p = GetParam();
  const TechNode tech = makeTech28(6);
  Library lib = makeStdCellLib(tech);
  Netlist nl(&lib);

  const PortId clkPort = nl.addPort("clk", PinDir::kInput, Side::kWest, true);
  const NetId clk = nl.addNet("clk");
  nl.connectPort(clk, clkPort);

  // External interface nets.
  std::vector<NetId> inputs;
  std::vector<NetId> outputs;
  for (int i = 0; i < 12; ++i) inputs.push_back(nl.addNet("in" + std::to_string(i)));
  for (int i = 0; i < 10; ++i) outputs.push_back(nl.addNet("out" + std::to_string(i)));

  Rng rng(p.seed);
  CloudSpec spec;
  spec.prefix = "t";
  spec.numGates = p.gates;
  spec.numRegs = p.regs;
  spec.levels = p.levels;
  spec.clockNet = clk;
  spec.consumeNets = inputs;
  spec.driveNets = outputs;
  const CloudResult r = buildLogicCloud(nl, rng, spec);

  // Drive the inputs externally so validation passes.
  for (NetId n : inputs) {
    const PortId port = nl.addPort("p_" + nl.net(n).name, PinDir::kInput, Side::kWest);
    nl.connectPort(n, port);
  }
  // Outputs need external sinks.
  for (NetId n : outputs) {
    const PortId port = nl.addPort("p_" + nl.net(n).name, PinDir::kOutput, Side::kEast);
    nl.connectPort(n, port);
  }

  EXPECT_TRUE(nl.validate().empty()) << nl.validate();
  EXPECT_GE(static_cast<int>(r.registers.size()), p.regs);
  EXPECT_GE(static_cast<int>(r.gates.size()), p.gates);

  // Every output net is driven by a register (no cross-module comb cycles).
  for (NetId n : outputs) {
    const Net& net = nl.net(n);
    const NetPin& drv = net.pins[static_cast<std::size_t>(net.driverIdx)];
    ASSERT_EQ(drv.kind, NetPin::Kind::kInstPin);
    EXPECT_TRUE(nl.cellOf(drv.inst).isSequential()) << nl.net(n).name;
  }
  // Every input net got at least one sink inside the cloud.
  for (NetId n : inputs) {
    EXPECT_GE(nl.net(n).pins.size(), 2u) << nl.net(n).name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LogicCloudTest,
                         ::testing::Values(CloudParam{50, 10, 3, 1}, CloudParam{200, 40, 6, 2},
                                           CloudParam{500, 100, 8, 3},
                                           CloudParam{1000, 150, 12, 4},
                                           CloudParam{80, 8, 2, 99},
                                           CloudParam{300, 60, 5, 12345}));

TEST(LogicCloud, DeterministicForFixedSeed) {
  const TechNode tech = makeTech28(6);
  auto build = [&]() {
    Library lib = makeStdCellLib(tech);
    Netlist nl(&lib);
    const NetId clk = nl.addNet("clk");
    const PortId clkPort = nl.addPort("clk", PinDir::kInput, Side::kWest, true);
    nl.connectPort(clk, clkPort);
    Rng rng(7);
    CloudSpec spec;
    spec.prefix = "d";
    spec.numGates = 300;
    spec.numRegs = 50;
    spec.clockNet = clk;
    buildLogicCloud(nl, rng, spec);
    // Fingerprint: instance count, net count, total pin count.
    std::int64_t pins = 0;
    for (NetId n = 0; n < nl.numNets(); ++n) pins += static_cast<std::int64_t>(nl.net(n).pins.size());
    return std::tuple{nl.numInstances(), nl.numNets(), pins};
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace m3d
