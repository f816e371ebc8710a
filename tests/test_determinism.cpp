#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <vector>

#include "core/macro3d.hpp"
#include "db/hash.hpp"
#include "extract/extraction.hpp"
#include "flows/flows.hpp"
#include "floorplan/floorplan.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "place/placer.hpp"
#include "route/route_grid.hpp"
#include "route/router.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"
#include "verify/verify.hpp"

/// Determinism contract of the parallel execution layer: every stage that
/// runs on the thread pool (placer spring build, router batch search, STA
/// level sweeps, full flows) must produce bit-identical results at any
/// thread count. Thread counts 2 and 8 oversubscribe small machines; that
/// is intentional -- the schedule must not matter.

namespace m3d {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// Placer

/// Builds the identical cloud + floorplan for every call.
void buildPlacerProblem(const TechNode& tech, Netlist& nl, Floorplan& fp) {
  const PortId clkPort = nl.addPort("clk", PinDir::kInput, Side::kWest, true);
  const NetId clk = nl.addNet("clk");
  nl.connectPort(clk, clkPort);
  Rng rng(11);
  CloudSpec spec;
  spec.prefix = "c";
  spec.numGates = 400;
  spec.numRegs = 80;
  spec.clockNet = clk;
  buildLogicCloud(nl, rng, spec);

  fp.die = Rect{0, 0, snapUp(umToDbu(70.0), tech.siteWidth),
                snapUp(umToDbu(70.0), tech.rowHeight)};
  fp.rowHeight = tech.rowHeight;
  fp.siteWidth = tech.siteWidth;
  assignPorts(nl, fp.die);
}

TEST(PlacerDeterminism, BitIdenticalAcrossThreadCounts) {
  const TechNode tech = makeTech28(6);

  std::vector<Point> reference;
  double referenceHpwl = 0.0;
  for (const int threads : kThreadCounts) {
    Library lib = makeStdCellLib(tech);
    Netlist nl(&lib);
    Floorplan fp;
    buildPlacerProblem(tech, nl, fp);

    PlacerOptions popt;
    popt.numThreads = threads;
    const PlaceResult pr = globalPlace(nl, fp, popt);
    ASSERT_TRUE(pr.success);

    if (threads == kThreadCounts[0]) {
      for (InstId i = 0; i < nl.numInstances(); ++i) reference.push_back(nl.instance(i).pos);
      referenceHpwl = pr.hpwlUm;
      continue;
    }
    ASSERT_EQ(nl.numInstances(), static_cast<InstId>(reference.size()));
    for (InstId i = 0; i < nl.numInstances(); ++i) {
      ASSERT_EQ(nl.instance(i).pos, reference[static_cast<std::size_t>(i)])
          << "instance " << nl.instance(i).name << " moved at numThreads=" << threads;
    }
    EXPECT_EQ(pr.hpwlUm, referenceHpwl) << "HPWL drifted at numThreads=" << threads;
  }
}

// The analytic (ePlace-style) engine runs exp-heavy wirelength passes, FFT
// rows and per-cell gathers on the pool; the whole Nesterov trajectory — and
// therefore the legalized placement — must be schedule-independent.
TEST(PlacerDeterminism, AnalyticEngineBitIdenticalAcrossThreadCounts) {
  const TechNode tech = makeTech28(6);

  std::vector<Point> reference;
  double referenceHpwl = 0.0;
  double referenceOverflow = 0.0;
  int referenceIters = 0;
  for (const int threads : kThreadCounts) {
    Library lib = makeStdCellLib(tech);
    Netlist nl(&lib);
    Floorplan fp;
    buildPlacerProblem(tech, nl, fp);

    PlacerOptions popt;
    popt.engine = PlaceEngine::kAnalytic;
    popt.numThreads = threads;
    const PlaceResult pr = globalPlace(nl, fp, popt);
    ASSERT_TRUE(pr.success);

    if (threads == kThreadCounts[0]) {
      for (InstId i = 0; i < nl.numInstances(); ++i) reference.push_back(nl.instance(i).pos);
      referenceHpwl = pr.hpwlUm;
      referenceOverflow = pr.overflow;
      referenceIters = pr.iterations;
      continue;
    }
    ASSERT_EQ(nl.numInstances(), static_cast<InstId>(reference.size()));
    for (InstId i = 0; i < nl.numInstances(); ++i) {
      ASSERT_EQ(nl.instance(i).pos, reference[static_cast<std::size_t>(i)])
          << "instance " << nl.instance(i).name << " moved at numThreads=" << threads;
    }
    EXPECT_EQ(pr.hpwlUm, referenceHpwl) << "HPWL drifted at numThreads=" << threads;
    EXPECT_EQ(pr.overflow, referenceOverflow) << "overflow drifted at numThreads=" << threads;
    EXPECT_EQ(pr.iterations, referenceIters) << "iteration count drifted at numThreads=" << threads;
  }
}

// Pins the whole B2B path -- spring build, concurrent x/y CG solves, bin
// diffusion, legalization, best-iterate keeping -- to recorded output: an
// FNV-1a hash of every instance position plus the final HPWL's bit pattern.
// The expected values were recorded from the sequential placer (x solve then
// y solve, one CG pass per vector operation), so any reordering of a
// floating-point sum anywhere in the placer shows up here. They assume IEEE
// doubles without contracted multiply-adds (the project builds with
// -std=c++20, not gnu++20).
TEST(PlacerGolden, B2BMatchesParent) {
  constexpr std::uint64_t kExpectedHash = 0xb6f04dafce623fc6ULL;
  constexpr int kExpectedIterations = 12;
  const TechNode tech = makeTech28(6);
  for (const int threads : kThreadCounts) {
    Library lib = makeStdCellLib(tech);
    Netlist nl(&lib);
    Floorplan fp;
    buildPlacerProblem(tech, nl, fp);

    PlacerOptions popt;
    popt.numThreads = threads;
    const PlaceResult pr = globalPlace(nl, fp, popt);
    ASSERT_TRUE(pr.success);

    db::HashStream h;
    for (InstId i = 0; i < nl.numInstances(); ++i) {
      h.i64(nl.instance(i).pos.x);
      h.i64(nl.instance(i).pos.y);
    }
    h.f64(pr.hpwlUm);
    EXPECT_EQ(h.digest(), kExpectedHash) << std::hex << "0x" << h.digest() << std::dec
                                         << " at numThreads=" << threads << ", hpwl_um "
                                         << pr.hpwlUm;
    EXPECT_EQ(pr.iterations, kExpectedIterations) << "at numThreads=" << threads;
  }
}

TEST(PlacerDeterminism, TotalHpwlMatchesSequentialAtAnyThreadCount) {
  const TechNode tech = makeTech28(6);
  Library lib = makeStdCellLib(tech);
  Netlist nl(&lib);
  Floorplan fp;
  buildPlacerProblem(tech, nl, fp);
  std::mt19937_64 rng(17);
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    nl.instance(i).pos = Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp.die.xhi)),
                               static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp.die.yhi))};
  }
  const std::int64_t seq = nl.totalHpwl(1);
  EXPECT_EQ(nl.totalHpwl(2), seq);
  EXPECT_EQ(nl.totalHpwl(8), seq);
  EXPECT_EQ(nl.totalHpwl(0), seq);  // auto
}

// ---------------------------------------------------------------------------
// Router

/// A deterministic mix of 2- to 4-pin nets over randomly scattered INVs,
/// dense enough for the negotiation loop to take several iterations.
class RouterProblem {
 public:
  RouterProblem() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {
    std::mt19937_64 rng(123);
    constexpr int kInsts = 80;
    std::vector<InstId> insts;
    for (int i = 0; i < kInsts; ++i) {
      const InstId id = nl_.addInstance("g" + std::to_string(i), lib_.findCell("INV_X1"));
      nl_.instance(id).pos = Point{umToDbu(2.0 + static_cast<double>(rng() % 95)),
                                   umToDbu(2.0 + static_cast<double>(rng() % 95))};
      insts.push_back(id);
    }
    // Deterministic shuffle of the sink pool (each INV has one A pin).
    std::vector<int> sinks(kInsts);
    for (int i = 0; i < kInsts; ++i) sinks[static_cast<std::size_t>(i)] = i;
    for (int i = kInsts - 1; i > 0; --i) {
      const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i + 1));
      std::swap(sinks[static_cast<std::size_t>(i)], sinks[static_cast<std::size_t>(j)]);
    }
    std::size_t p = 0;
    for (int i = 0; i < kInsts && p < sinks.size(); ++i) {
      const int want = 1 + static_cast<int>(rng() % 3);
      const NetId n = nl_.addNet("n" + std::to_string(i));
      nl_.connect(n, insts[static_cast<std::size_t>(i)], "Y");
      int got = 0;
      while (got < want && p < sinks.size()) {
        const int s = sinks[p++];
        if (s == i) continue;  // no self-loop
        nl_.connect(n, insts[static_cast<std::size_t>(s)], "A");
        ++got;
      }
    }
  }

  RoutingResult route(int threads) {
    RouteGrid grid(nl_, die_, tech_.beol);
    RouterOptions ropt;
    ropt.numThreads = threads;
    return routeDesign(nl_, grid, ropt);
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
  Rect die_{0, 0, umToDbu(100), umToDbu(100)};
};

void expectRoutesEqual(const RoutingResult& a, const RoutingResult& b, int threads) {
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    ASSERT_EQ(a.nets[n].routed, b.nets[n].routed) << "net " << n << " threads=" << threads;
    ASSERT_EQ(a.nets[n].segs.size(), b.nets[n].segs.size())
        << "net " << n << " threads=" << threads;
    for (std::size_t s = 0; s < a.nets[n].segs.size(); ++s) {
      const RouteSeg& x = a.nets[n].segs[s];
      const RouteSeg& y = b.nets[n].segs[s];
      ASSERT_TRUE(x.isVia == y.isVia && x.layer == y.layer && x.fromNode == y.fromNode &&
                  x.toNode == y.toNode)
          << "net " << n << " seg " << s << " differs at threads=" << threads;
    }
  }
  EXPECT_EQ(a.totalWirelengthUm, b.totalWirelengthUm);
  EXPECT_EQ(a.wirelengthPerLayerUm, b.wirelengthPerLayerUm);
  EXPECT_EQ(a.viasPerCut, b.viasPerCut);
  EXPECT_EQ(a.f2fBumps, b.f2fBumps);
  EXPECT_EQ(a.overflowedEdges, b.overflowedEdges);
  EXPECT_EQ(a.totalOverflow, b.totalOverflow);
  EXPECT_EQ(a.unroutedNets, b.unroutedNets);
  EXPECT_EQ(a.iterationsUsed, b.iterationsUsed);
  // Search-kernel statistics are part of the determinism contract: pops and
  // relaxations happen inside per-net searches whose work does not depend
  // on the schedule, and the totals are integer sums over nets.
  EXPECT_EQ(a.nodesPopped, b.nodesPopped);
  EXPECT_EQ(a.nodesRelaxed, b.nodesRelaxed);
  EXPECT_EQ(a.windowFallbacks, b.windowFallbacks);
  // ECO statistics are derived from the same deterministic negotiation,
  // so they are part of the contract too.
  EXPECT_EQ(a.ecoDirtyGcells, b.ecoDirtyGcells);
  EXPECT_EQ(a.ecoNetsReused, b.ecoNetsReused);
  EXPECT_EQ(a.ecoNetsRipped, b.ecoNetsRipped);
}

TEST(RouterDeterminism, BitIdenticalAcrossThreadCounts) {
  RouterProblem problem;
  const RoutingResult ref = problem.route(1);
  EXPECT_EQ(ref.unroutedNets, 0);
  for (const int threads : {2, 8}) {
    const RoutingResult r = problem.route(threads);
    expectRoutesEqual(ref, r, threads);
  }
}

// Every search-kernel configuration -- the shipped default (windowed A*),
// full-grid search, and a degenerate zero halo exercising the fallback
// ladder -- must be bit-identical at any thread count.
TEST(RouterDeterminism, KernelConfigsBitIdenticalAcrossThreadCounts) {
  RouterProblem problem;
  for (const int halo : {1, -1, 0}) {
    auto routeWith = [&](int threads) {
      RouteGrid grid(problem.nl_, problem.die_, problem.tech_.beol);
      RouterOptions ropt;
      ropt.numThreads = threads;
      ropt.searchHaloGcells = halo;
      return routeDesign(problem.nl_, grid, ropt);
    };
    const RoutingResult ref = routeWith(1);
    EXPECT_EQ(ref.unroutedNets, 0);
    for (const int threads : {2, 8}) {
      const RoutingResult r = routeWith(threads);
      expectRoutesEqual(ref, r, threads);
    }
  }
}

TEST(RouterDeterminism, BatchSizeOneMatchesSequentialNegotiation) {
  // batchSize=1 commits after every net -- the historical fully sequential
  // algorithm. It is a *different* deterministic algorithm than batched
  // routing, but must itself be thread-count independent.
  RouterProblem problem;
  auto routeWith = [&](int threads) {
    RouteGrid grid(problem.nl_, problem.die_, problem.tech_.beol);
    RouterOptions ropt;
    ropt.numThreads = threads;
    ropt.batchSize = 1;
    return routeDesign(problem.nl_, grid, ropt);
  };
  const RoutingResult ref = routeWith(1);
  const RoutingResult par = routeWith(8);
  expectRoutesEqual(ref, par, 8);
}

// ---------------------------------------------------------------------------
// STA

/// Cloud with data ports and non-trivial wire parasitics.
class StaProblem {
 public:
  StaProblem() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {
    const PortId clkPort = nl_.addPort("clk", PinDir::kInput, Side::kWest, true);
    const NetId clk = nl_.addNet("clk");
    nl_.connectPort(clk, clkPort);
    const PortId in = nl_.addPort("in", PinDir::kInput, Side::kWest);
    const NetId nIn = nl_.addNet("n_in");
    nl_.connectPort(nIn, in);
    const PortId out = nl_.addPort("out", PinDir::kOutput, Side::kEast);
    const NetId nOut = nl_.addNet("n_out");
    nl_.connectPort(nOut, out);

    Rng rng(29);
    CloudSpec spec;
    spec.prefix = "s";
    spec.numGates = 500;
    spec.numRegs = 90;
    spec.clockNet = clk;
    spec.consumeNets = {nIn};
    spec.driveNets = {nOut};
    buildLogicCloud(nl_, rng, spec);

    const Rect die{0, 0, umToDbu(80), umToDbu(80)};
    assignPorts(nl_, die);
    std::mt19937_64 prng(31);
    for (InstId i = 0; i < nl_.numInstances(); ++i) {
      nl_.instance(i).pos = Point{static_cast<Dbu>(prng() % static_cast<std::uint64_t>(die.xhi)),
                                  static_cast<Dbu>(prng() % static_cast<std::uint64_t>(die.yhi))};
    }
    paras_ = estimateDesign(nl_, EstimationOptions{});
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
  std::vector<NetParasitics> paras_;
};

TEST(StaDeterminism, BitIdenticalAcrossThreadCounts) {
  StaProblem problem;
  const double period = 1.5e-9;

  const Sta ref(problem.nl_, problem.paras_, nullptr, kTypicalCorner, 1);
  const std::vector<double> refArrivals = ref.portArrivals(period);
  const double refWns = ref.worstSlack(period);
  const double refMinPeriod = ref.findMinPeriod();
  const double refHold = ref.worstHoldSlack();

  for (const int threads : {2, 8, 0}) {
    const Sta sta(problem.nl_, problem.paras_, nullptr, kTypicalCorner, threads);
    const std::vector<double> arrivals = sta.portArrivals(period);
    ASSERT_EQ(arrivals.size(), refArrivals.size());
    for (std::size_t p = 0; p < arrivals.size(); ++p) {
      EXPECT_EQ(arrivals[p], refArrivals[p]) << "port " << p << " threads=" << threads;
    }
    EXPECT_EQ(sta.worstSlack(period), refWns) << "threads=" << threads;
    EXPECT_EQ(sta.findMinPeriod(), refMinPeriod) << "threads=" << threads;
    EXPECT_EQ(sta.worstHoldSlack(), refHold) << "threads=" << threads;
  }
}

TEST(StaDeterminism, CriticalPathStableAcrossThreadCounts) {
  StaProblem problem;
  const Sta s1(problem.nl_, problem.paras_, nullptr, kTypicalCorner, 1);
  const Sta s8(problem.nl_, problem.paras_, nullptr, kTypicalCorner, 8);
  const TimingReport r1 = s1.analyze(1e-9);
  const TimingReport r8 = s8.analyze(1e-9);
  EXPECT_EQ(r1.wns, r8.wns);
  EXPECT_EQ(r1.tns, r8.tns);
  EXPECT_EQ(r1.failingEndpoints, r8.failingEndpoints);
  EXPECT_EQ(r1.critEndpointName, r8.critEndpointName);
  ASSERT_EQ(r1.criticalPath.size(), r8.criticalPath.size());
  for (std::size_t i = 0; i < r1.criticalPath.size(); ++i) {
    EXPECT_EQ(r1.criticalPath[i].arrival, r8.criticalPath[i].arrival) << "step " << i;
  }
}

// ---------------------------------------------------------------------------
// Full flow (named Flow* so it carries the "slow" ctest label)

void expectMetricsEqual(const DesignMetrics& a, const DesignMetrics& b, int threads) {
  EXPECT_EQ(a.fclkMhz, b.fclkMhz) << "threads=" << threads;
  EXPECT_EQ(a.minPeriodNs, b.minPeriodNs) << "threads=" << threads;
  EXPECT_EQ(a.emeanFj, b.emeanFj) << "threads=" << threads;
  EXPECT_EQ(a.powerMw, b.powerMw) << "threads=" << threads;
  EXPECT_EQ(a.footprintMm2, b.footprintMm2) << "threads=" << threads;
  EXPECT_EQ(a.logicCellAreaMm2, b.logicCellAreaMm2) << "threads=" << threads;
  EXPECT_EQ(a.totalWirelengthM, b.totalWirelengthM) << "threads=" << threads;
  EXPECT_EQ(a.wirelengthLogicDieM, b.wirelengthLogicDieM) << "threads=" << threads;
  EXPECT_EQ(a.wirelengthMacroDieM, b.wirelengthMacroDieM) << "threads=" << threads;
  EXPECT_EQ(a.f2fBumps, b.f2fBumps) << "threads=" << threads;
  EXPECT_EQ(a.cpinNf, b.cpinNf) << "threads=" << threads;
  EXPECT_EQ(a.cwireNf, b.cwireNf) << "threads=" << threads;
  EXPECT_EQ(a.clockTreeDepth, b.clockTreeDepth) << "threads=" << threads;
  EXPECT_EQ(a.clockSkewPs, b.clockSkewPs) << "threads=" << threads;
  EXPECT_EQ(a.critPathWirelengthMm, b.critPathWirelengthMm) << "threads=" << threads;
  EXPECT_EQ(a.metalAreaMm2, b.metalAreaMm2) << "threads=" << threads;
  EXPECT_EQ(a.overflowedEdges, b.overflowedEdges) << "threads=" << threads;
  EXPECT_EQ(a.unroutedNets, b.unroutedNets) << "threads=" << threads;
  EXPECT_EQ(a.verifyViolations, b.verifyViolations) << "threads=" << threads;
  EXPECT_EQ(a.verifyWarnings, b.verifyWarnings) << "threads=" << threads;
  EXPECT_EQ(a.f2fBumpCount, b.f2fBumpCount) << "threads=" << threads;
  EXPECT_EQ(a.legalizeAvgDispUm, b.legalizeAvgDispUm) << "threads=" << threads;
  EXPECT_EQ(a.placeHpwlMm, b.placeHpwlMm) << "threads=" << threads;
  EXPECT_EQ(a.placeEngine, b.placeEngine) << "threads=" << threads;
  EXPECT_EQ(a.placeOverflow, b.placeOverflow) << "threads=" << threads;
  EXPECT_EQ(a.placeIterations, b.placeIterations) << "threads=" << threads;
  EXPECT_EQ(a.cellsResized, b.cellsResized) << "threads=" << threads;
  EXPECT_EQ(a.buffersInserted, b.buffersInserted) << "threads=" << threads;
}

TEST(FlowDeterminism, Macro3dBitIdenticalAcrossThreadCounts) {
  auto runAt = [](int threads) {
    FlowOptions opt;
    opt.maxFreqRounds = 2;
    opt.optBase.maxPasses = 6;
    opt.numThreads = threads;
    return runFlowMacro3D(makeTinyTileConfig(), opt);
  };
  const FlowOutput ref = runAt(1);
  EXPECT_EQ(ref.metrics.unroutedNets, 0);
  for (const int threads : {2, 8}) {
    const FlowOutput out = runAt(threads);
    expectMetricsEqual(ref.metrics, out.metrics, threads);
    expectRoutesEqual(ref.routes, out.routes, threads);
    // Placement bit-identity: every instance at the same position.
    const Netlist& a = ref.tile->netlist;
    const Netlist& b = out.tile->netlist;
    ASSERT_EQ(a.numInstances(), b.numInstances());
    for (InstId i = 0; i < a.numInstances(); ++i) {
      ASSERT_EQ(a.instance(i).pos, b.instance(i).pos)
          << a.instance(i).name << " threads=" << threads;
    }
    // Signoff verification bit-identity: the whole structured report
    // (violation list, counts, recomputed oracles) must match, not just
    // the scalar metrics.
    EXPECT_EQ(ref.verify, out.verify) << "threads=" << threads;
  }
}

// The verifier itself (not just the flow driving it) must be bit-identical
// at any thread count when re-run standalone over the same committed design.
TEST(FlowDeterminism, VerifyReportBitIdenticalAcrossThreadCounts) {
  FlowOptions opt;
  opt.maxFreqRounds = 2;
  opt.optBase.maxPasses = 6;
  const FlowOutput out = runFlowMacro3D(makeTinyTileConfig(), opt);
  VerifyOptions vopt;
  vopt.numThreads = 1;
  const VerifyReport ref =
      verifyDesign(out.tile->netlist, out.fp, *out.grid, out.routes, vopt);
  for (const int threads : {2, 8}) {
    vopt.numThreads = threads;
    const VerifyReport rep =
        verifyDesign(out.tile->netlist, out.fp, *out.grid, out.routes, vopt);
    EXPECT_EQ(ref, rep) << "threads=" << threads;
  }
}

// ECO determinism: a macro resize (bitcellUm2 bump) changes the netlist, so
// a warm stage cache from the pre-ECO design must not reuse any stage, and
// the incremental re-run must stay bit-identical to a cold run of the
// modified design at any thread count. Because stage keys exclude thread
// counts, the 2- and 8-thread ECO runs restore the checkpoints the 1-thread
// run wrote — exercising the restore path under the same bit-identity bar.
TEST(FlowDeterminism, EcoMacroResizeBitIdenticalToColdRunAcrossThreads) {
  namespace fs = std::filesystem;
  const std::string dir = (fs::temp_directory_path() / "m3d_det_eco_resize").string();
  fs::remove_all(dir);

  FlowOptions base;
  base.maxFreqRounds = 2;
  base.optBase.maxPasses = 6;
  base.checkpointDir = dir;
  (void)runFlowMacro3D(makeTinyTileConfig(), base);  // warm the cache with the pre-ECO design

  TileConfig eco = makeTinyTileConfig();
  eco.bitcellUm2 *= 1.1;  // resize every SRAM macro

  FlowOptions coldOpt = base;
  coldOpt.checkpointDir.clear();
  const FlowOutput ref = runFlowMacro3D(eco, coldOpt);

  for (const int threads : kThreadCounts) {
    FlowOptions opt = base;
    opt.numThreads = threads;
    const FlowOutput out = runFlowMacro3D(eco, opt);
    expectMetricsEqual(ref.metrics, out.metrics, threads);
    EXPECT_EQ(ref.verify, out.verify) << "threads=" << threads;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace m3d
