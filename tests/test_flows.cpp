#include <gtest/gtest.h>

#include "core/macro3d.hpp"
#include "flows/case_study.hpp"
#include "flows/flows.hpp"
#include "scoped_env.hpp"

namespace m3d {
namespace {

FlowOptions fastOptions() {
  FlowOptions opt;
  opt.maxFreqRounds = 2;
  opt.optBase.maxPasses = 6;
  return opt;
}

void expectHealthy(const FlowOutput& out) {
  EXPECT_TRUE(out.tile->netlist.validate().empty()) << out.tile->netlist.validate();
  EXPECT_EQ(out.metrics.unroutedNets, 0) << out.trace;
  EXPECT_GT(out.metrics.fclkMhz, 10.0);
  EXPECT_GT(out.metrics.emeanFj, 0.0);
  EXPECT_GT(out.metrics.footprintMm2, 0.0);
  EXPECT_GT(out.metrics.totalWirelengthM, 0.0);
  EXPECT_GT(out.metrics.logicCellAreaMm2, 0.0);
  EXPECT_GT(out.metrics.clockTreeDepth, 0);
  // Independent signoff verification: every healthy flow must come out
  // clean (zero error-grade violations; congestion warnings are allowed).
  EXPECT_EQ(out.metrics.verifyViolations, 0) << out.verify.summaryText();
  EXPECT_TRUE(out.verify.clean()) << out.verify.summaryText();
  // The verifier's recounts must agree with the router's own accounting.
  EXPECT_EQ(out.verify.recomputedOverflowedEdges, out.routes.overflowedEdges);
  EXPECT_EQ(out.verify.f2fBumpCount, out.routes.f2fBumps);
  EXPECT_EQ(out.metrics.f2fBumpCount, out.metrics.f2fBumps);
}

TEST(Flow2D, EndToEnd) {
  const FlowOutput out = runFlow2D(makeTinyTileConfig(), fastOptions());
  expectHealthy(out);
  EXPECT_EQ(out.metrics.flow, "2D");
  EXPECT_EQ(out.metrics.f2fBumps, 0);
  EXPECT_FALSE(out.routingBeol.isCombined());
  // Metal area = footprint x 6 layers.
  EXPECT_NEAR(out.metrics.metalAreaMm2, out.metrics.footprintMm2 * 6.0, 1e-9);
}

TEST(FlowMacro3D, EndToEnd) {
  const FlowOutput out = runFlowMacro3D(makeTinyTileConfig(), fastOptions());
  expectHealthy(out);
  EXPECT_EQ(out.metrics.flow, "Macro-3D");
  EXPECT_GT(out.metrics.f2fBumps, 0);
  EXPECT_TRUE(out.routingBeol.isCombined());
  // Every macro is on the macro die with a projected master.
  const Netlist& nl = out.tile->netlist;
  for (InstId m : out.tile->groups.macros) {
    EXPECT_EQ(nl.instance(m).die, DieId::kMacro);
    EXPECT_NE(nl.cellOf(m).name.find("_PROJ"), std::string::npos);
    EXPECT_EQ(nl.cellOf(m).substrateWidth, out.logicTech.siteWidth);
  }
  // Combined stack carries 12 metals in the M6-M6 configuration.
  EXPECT_EQ(out.routingBeol.numMetals(), 12);
  EXPECT_NEAR(out.metrics.metalAreaMm2, out.metrics.footprintMm2 * 12.0, 1e-9);
}

TEST(FlowMacro3D, FootprintHalvesVs2D) {
  const FlowOutput d2 = runFlow2D(makeTinyTileConfig(), fastOptions());
  const FlowOutput m3 = runFlowMacro3D(makeTinyTileConfig(), fastOptions());
  EXPECT_NEAR(m3.metrics.footprintMm2 / d2.metrics.footprintMm2, 0.5, 0.03);
}

TEST(FlowMacro3D, HeterogeneousM6M4Stack) {
  FlowOptions opt = fastOptions();
  opt.macroDieMetals = 4;
  const FlowOutput out = runFlowMacro3D(makeTinyTileConfig(), opt);
  expectHealthy(out);
  EXPECT_EQ(out.routingBeol.numMetals(), 10);
  EXPECT_EQ(out.routingBeol.numMetalsOfDie(DieId::kMacro), 4);
  // Metal area shrinks by 2/12 (paper Table III: -16.7%).
  EXPECT_NEAR(out.metrics.metalAreaMm2, out.metrics.footprintMm2 * 10.0, 1e-9);
}

TEST(FlowMacro3D, DieSeparationConsistent) {
  const FlowOutput out = runFlowMacro3D(makeTinyTileConfig(), fastOptions());
  const SeparatedDesign sep = separateDies(out, MacroDieStackOrder::kFlipped);
  EXPECT_EQ(sep.logicDieBeol.numMetals(), 6);
  EXPECT_EQ(sep.macroDieBeol.numMetals(), 6);
  EXPECT_FALSE(sep.logicDieBeol.isCombined());
  EXPECT_FALSE(sep.macroDieBeol.isCombined());
  EXPECT_EQ(sep.f2fBumps, out.metrics.f2fBumps);
  EXPECT_NEAR(sep.logicDieWirelengthUm + sep.macroDieWirelengthUm,
              out.routes.totalWirelengthUm, 1e-6);
}

TEST(FlowS2D, EndToEnd) {
  const FlowOutput out = runFlowS2D(makeTinyTileConfig(), /*balanced=*/false, fastOptions());
  expectHealthy(out);
  EXPECT_EQ(out.metrics.flow, "MoL S2D");
  EXPECT_GT(out.metrics.f2fBumps, 0);
  // The overlap-fix displacement metric is recorded.
  EXPECT_GE(out.metrics.legalizeAvgDispUm, 0.0);
}

// The pseudo placement runs before the pipeline, so M3D_PLACE_ENGINE must
// reach it exactly as the explicit option does.
TEST(FlowS2D, PlaceEngineEnvMatchesOption) {
  const auto run = [](const char* env, PlaceEngine engine) {
    const ScopedEnv scoped("M3D_PLACE_ENGINE", env);
    FlowOptions opt = fastOptions();
    opt.placer.engine = engine;
    return runFlowS2D(makeTinyTileConfig(), /*balanced=*/false, opt).metrics;
  };
  const DesignMetrics byEnv = run("analytic", PlaceEngine::kB2B);
  const DesignMetrics byOption = run(nullptr, PlaceEngine::kAnalytic);
  const DesignMetrics b2b = run(nullptr, PlaceEngine::kB2B);
  EXPECT_EQ(byEnv.placeHpwlMm, byOption.placeHpwlMm);
  EXPECT_EQ(byEnv.fclkMhz, byOption.fclkMhz);
  EXPECT_EQ(byEnv.totalWirelengthM, byOption.totalWirelengthM);
  EXPECT_EQ(byEnv.f2fBumps, byOption.f2fBumps);
  EXPECT_EQ(byEnv.overflowedEdges, byOption.overflowedEdges);
  EXPECT_NE(byOption.placeHpwlMm, b2b.placeHpwlMm);
  EXPECT_NE(byOption.totalWirelengthM, b2b.totalWirelengthM);
}

TEST(FlowBfS2D, EndToEnd) {
  const FlowOutput out = runFlowS2D(makeTinyTileConfig(), /*balanced=*/true, fastOptions());
  expectHealthy(out);
  EXPECT_EQ(out.metrics.flow, "BF S2D");
  // Balanced floorplan: macros split across both dies.
  const Netlist& nl = out.tile->netlist;
  int onLogic = 0;
  int onMacro = 0;
  for (InstId m : out.tile->groups.macros) {
    (nl.instance(m).die == DieId::kMacro ? onMacro : onLogic)++;
  }
  EXPECT_GT(onLogic, 0);
  EXPECT_GT(onMacro, 0);
}

TEST(FlowC2D, EndToEnd) {
  const FlowOutput out = runFlowC2D(makeTinyTileConfig(), fastOptions());
  expectHealthy(out);
  EXPECT_EQ(out.metrics.flow, "C2D");
  EXPECT_GT(out.metrics.f2fBumps, 0);
}

TEST(Flows, IsoPerformanceModeHitsTarget) {
  FlowOptions opt = fastOptions();
  opt.maxPerformance = false;
  opt.targetPeriodNs = 6.0;
  const FlowOutput out = runFlowMacro3D(makeTinyTileConfig(), opt);
  // Sign-off frequency equals the target (or the max-achievable if faster).
  EXPECT_NEAR(out.metrics.fclkMhz, 1000.0 / 6.0, 1000.0 / 6.0 * 0.02);
}

TEST(Flows, DeterministicMetrics) {
  const FlowOutput a = runFlowMacro3D(makeTinyTileConfig(), fastOptions());
  const FlowOutput b = runFlowMacro3D(makeTinyTileConfig(), fastOptions());
  EXPECT_DOUBLE_EQ(a.metrics.fclkMhz, b.metrics.fclkMhz);
  EXPECT_DOUBLE_EQ(a.metrics.totalWirelengthM, b.metrics.totalWirelengthM);
  EXPECT_EQ(a.metrics.f2fBumps, b.metrics.f2fBumps);
}

TEST(Flows, TraceDescribesSteps) {
  const FlowOutput out = runFlowMacro3D(makeTinyTileConfig(), fastOptions());
  EXPECT_NE(out.trace.find("step1"), std::string::npos);
  EXPECT_NE(out.trace.find("step2"), std::string::npos);
  EXPECT_NE(out.trace.find("F2F_VIA"), std::string::npos);
  EXPECT_NE(out.trace.find("step4"), std::string::npos);
}

}  // namespace
}  // namespace m3d
