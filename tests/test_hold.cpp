#include <gtest/gtest.h>

#include "extract/extraction.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

class HoldFixture : public ::testing::Test {
 protected:
  HoldFixture() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {
    const NetId clk = nl_.addNet("clk");
    const PortId clkPort = nl_.addPort("clk", PinDir::kInput, Side::kWest, true);
    nl_.connectPort(clk, clkPort);
    Rng rng(9);
    CloudSpec spec;
    spec.prefix = "h";
    spec.numGates = 150;
    spec.numRegs = 30;
    spec.clockNet = clk;
    buildLogicCloud(nl_, rng, spec);
    EstimationOptions eopt = makeEstimationOptions(tech_.beol);
    paras_ = estimateDesign(nl_, eopt);
  }
  TechNode tech_;
  Library lib_;
  Netlist nl_;
  std::vector<NetParasitics> paras_;
};

TEST_F(HoldFixture, HoldSlackIsFiniteAndBelowSetupArrival) {
  Sta sta(nl_, paras_);
  const double hold = sta.worstHoldSlack(0.0);
  // Min arrival through at least CK->Q (85ps) must be positive.
  EXPECT_GT(hold, 50e-12);
  // Min-path arrival can never exceed the max-path arrival budget: with a
  // generous period the setup WNS is large while hold stays the same.
  EXPECT_LT(hold, sta.findMinPeriod());
}

TEST_F(HoldFixture, HoldMarginShiftsSlackLinearly) {
  Sta sta(nl_, paras_);
  const double h0 = sta.worstHoldSlack(0.0);
  const double h20 = sta.worstHoldSlack(20e-12);
  EXPECT_NEAR(h0 - h20, 20e-12, 1e-15);
}

TEST_F(HoldFixture, BalancedClockCannotCreateHoldViolationHere) {
  // With uniformly padded latencies, launch and capture shift together; the
  // library's DFF CK->Q (85 ps) exceeds any reasonable hold requirement.
  ClockModel clock;
  clock.latency.assign(static_cast<std::size_t>(nl_.numInstances()), 300e-12);
  clock.maxLatency = 300e-12;
  Sta sta(nl_, paras_, &clock);
  EXPECT_GT(sta.worstHoldSlack(10e-12), 0.0);
}

}  // namespace
}  // namespace m3d
