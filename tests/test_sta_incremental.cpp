#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "db/codec.hpp"
#include "extract/extraction.hpp"
#include "floorplan/floorplan.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "opt/optimizer.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

/// Incremental-vs-scratch equivalence suite (ctest label "sta"): every edit
/// sequence driven through the persistent engine's dirty-net API must leave
/// it bit-identical to a Sta built from scratch on the same netlist state --
/// arrivals, WNS, critical path, min-period, and criticalities alike. That
/// equality is what lets the optimizer and the route loops trust cone
/// updates blindly; see DESIGN.md Sec. 5j for the invariants.

namespace m3d {
namespace {

/// The StaProblem cloud, plus a half-cycle input port so the parametric
/// min-period pair and the period-dependent reseed path both get exercised.
class IncrProblem {
 public:
  IncrProblem() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {
    const PortId clkPort = nl_.addPort("clk", PinDir::kInput, Side::kWest, true);
    const NetId clk = nl_.addNet("clk");
    nl_.connectPort(clk, clkPort);
    const PortId in = nl_.addPort("in", PinDir::kInput, Side::kWest);
    const NetId nIn = nl_.addNet("n_in");
    nl_.connectPort(nIn, in);
    const PortId out = nl_.addPort("out", PinDir::kOutput, Side::kEast);
    const NetId nOut = nl_.addNet("n_out");
    nl_.connectPort(nOut, out);
    nl_.port(in).halfCycle = true;  // paper's inter-tile launch at T/2

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

/// Nets whose parasitics change when \p inst changes size (mirrors the
/// optimizer: every input-pin net sees a new pin cap).
std::vector<NetId> inputNetsOf(const Netlist& nl, InstId inst) {
  std::vector<NetId> out;
  const CellType& c = nl.cellOf(inst);
  const Instance& in = nl.instance(inst);
  for (std::size_t p = 0; p < c.pins.size(); ++p) {
    if (c.pins[p].dir != PinDir::kInput) continue;
    const NetId n = in.pinNets[p];
    if (n != kInvalidId) out.push_back(n);
  }
  return out;
}

/// Drives one batch of edits through both the netlist and \p sta following
/// the documented contract, then refreshes parasitics and invalidates.
class EditDriver {
 public:
  EditDriver(IncrProblem& p, Sta& sta) : p_(p), sta_(sta), provider_(EstimationOptions{}) {
    bufId_ = p_.lib_.findCell("BUF_X8");
    bufA_ = *p_.lib_.cell(bufId_).findPin("A");
    bufY_ = *p_.lib_.cell(bufId_).findPin("Y");
  }

  bool resize(InstId inst, bool up) {
    const CellType& c = p_.nl_.cellOf(inst);
    if (c.isMacro() || c.cls == CellClass::kFiller || c.family.empty()) return false;
    const CellTypeId next = up ? p_.lib_.nextSizeUp(p_.nl_.instance(inst).type)
                               : p_.lib_.nextSizeDown(p_.nl_.instance(inst).type);
    if (next == kInvalidCellType) return false;
    resized_.push_back({inst, p_.nl_.instance(inst).type});
    p_.nl_.resize(inst, next);
    sta_.applyResize(inst);
    for (const NetId n : inputNetsOf(p_.nl_, inst)) dirty_.push_back(n);
    return true;
  }

  bool revertLastResize() {
    if (resized_.empty()) return false;
    const auto [inst, oldType] = resized_.back();
    resized_.pop_back();
    p_.nl_.resize(inst, oldType);
    sta_.applyResize(inst);
    for (const NetId n : inputNetsOf(p_.nl_, inst)) dirty_.push_back(n);
    return true;
  }

  /// Buffer insertion shaped like the optimizer's: a new midpoint buffer on
  /// \p netId, with the chosen sink (and any sink within a quarter of its
  /// span) moved onto the buffered subnet.
  bool insertBuffer(NetId netId, int sinkIdx) {
    const Net& net = p_.nl_.net(netId);
    if (net.isClock || net.driverIdx < 0 || net.pins.size() < 2) return false;
    const std::vector<NetPin> netPins = net.pins;
    const int driverIdx = net.driverIdx;
    if (sinkIdx == driverIdx) return false;
    const NetPin b = netPins[static_cast<std::size_t>(sinkIdx)];
    const Point pa = p_.nl_.pinPosition(netPins[static_cast<std::size_t>(driverIdx)]);
    const Point pb = p_.nl_.pinPosition(b);
    const InstId buf =
        p_.nl_.addInstance("fz_buf_" + std::to_string(bufCounter_++), bufId_);
    p_.nl_.instance(buf).pos = Point{(pa.x + pb.x) / 2, (pa.y + pb.y) / 2};
    const NetId newNet = p_.nl_.addNet("fz_net_" + std::to_string(bufCounter_));
    const Dbu radius = manhattanDistance(pa, pb) / 4;
    for (int i = 0; i < static_cast<int>(netPins.size()); ++i) {
      if (i == driverIdx) continue;
      const NetPin& pin = netPins[static_cast<std::size_t>(i)];
      if (pin == b || manhattanDistance(p_.nl_.pinPosition(pin), pb) <= radius) {
        p_.nl_.disconnect(netId, pin);
        if (pin.kind == NetPin::Kind::kInstPin) {
          p_.nl_.connect(newNet, pin.inst, pin.libPin);
        } else {
          p_.nl_.connectPort(newNet, pin.port);
        }
      }
    }
    p_.nl_.connect(netId, buf, bufA_);
    p_.nl_.connect(newNet, buf, bufY_);
    sta_.applyBufferInsertion(buf, netId, newNet);
    dirty_.push_back(netId);
    dirty_.push_back(newNet);
    return true;
  }

  /// Step 2+3 of the contract: refresh parasitics of the touched nets, then
  /// re-derive the engine's edge delays from them.
  void commit() {
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    provider_.refresh(p_.nl_, dirty_, p_.paras_);
    sta_.invalidateNets(dirty_);
    dirty_.clear();
  }

 private:
  IncrProblem& p_;
  Sta& sta_;
  EstimatedParasitics provider_;
  CellTypeId bufId_ = kInvalidCellType;
  int bufA_ = 0;
  int bufY_ = 0;
  int bufCounter_ = 0;
  std::vector<NetId> dirty_;
  std::vector<std::pair<InstId, CellTypeId>> resized_;
};

/// Bisection oracle for Sta::findMinPeriod over the public worstSlack: 40
/// halvings of [50 ps, 100 ns], after doubling the upper bound (at most 8
/// times) until it is feasible. Returns Sta::kInfeasiblePeriod when it
/// never becomes feasible.
double minPeriodByBisection(const Sta& sta) {
  double lo = 50e-12;
  double hi = 100e-9;
  for (int guard = 0; guard < 8 && sta.worstSlack(hi) < 0.0; ++guard) hi *= 2.0;
  if (sta.worstSlack(hi) < 0.0) return Sta::kInfeasiblePeriod;
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    (sta.worstSlack(mid) >= 0.0 ? hi : lo) = mid;
  }
  return hi;
}

/// Asserts the persistent engine is bit-identical to a from-scratch Sta on
/// the current netlist state, across every query surface.
void expectMatchesScratch(const IncrProblem& p, const Sta& incr, const ClockModel* clock,
                          double period, const std::string& where) {
  const Sta scratch(p.nl_, p.paras_, clock, kTypicalCorner, 1);
  EXPECT_EQ(incr.worstSlack(period), scratch.worstSlack(period)) << where;
  const std::vector<double> ai = incr.portArrivals(period);
  const std::vector<double> as = scratch.portArrivals(period);
  ASSERT_EQ(ai.size(), as.size()) << where;
  for (std::size_t i = 0; i < ai.size(); ++i) EXPECT_EQ(ai[i], as[i]) << where << " port " << i;
  const double mpI = incr.findMinPeriod();
  const double mpS = scratch.findMinPeriod();
  EXPECT_EQ(mpI, mpS) << where;
  EXPECT_NEAR(mpI, minPeriodByBisection(incr), 1e-12) << where;
  const TimingReport ri = incr.analyze(period);
  const TimingReport rs = scratch.analyze(period);
  EXPECT_EQ(ri.wns, rs.wns) << where;
  EXPECT_EQ(ri.tns, rs.tns) << where;
  EXPECT_EQ(ri.failingEndpoints, rs.failingEndpoints) << where;
  EXPECT_EQ(ri.critEndpointName, rs.critEndpointName) << where;
  ASSERT_EQ(ri.criticalPath.size(), rs.criticalPath.size()) << where;
  for (std::size_t i = 0; i < ri.criticalPath.size(); ++i) {
    EXPECT_EQ(ri.criticalPath[i].arrival, rs.criticalPath[i].arrival) << where << " step " << i;
  }
}

TEST(StaIncrEquivalence, ResizeChainMatchesScratch) {
  IncrProblem p;
  ClockModel clock;  // ideal latencies, but a real uncertainty margin
  clock.uncertainty = 20e-12;
  Sta sta(p.nl_, p.paras_, &clock, kTypicalCorner, 1);
  EditDriver edit(p, sta);
  std::mt19937_64 prng(7);
  for (int batch = 0; batch < 12; ++batch) {
    int applied = 0;
    while (applied < 3) {
      const InstId inst = static_cast<InstId>(prng() % static_cast<std::uint64_t>(p.nl_.numInstances()));
      if (edit.resize(inst, (prng() & 1) != 0)) ++applied;
    }
    edit.commit();
    expectMatchesScratch(p, sta, &clock, 1.4e-9, "batch " + std::to_string(batch));
  }
  EXPECT_GT(sta.incrStats().incrUpdates, 0);
}

TEST(StaIncrEquivalence, BufferAndRevertFuzzMatchesScratch) {
  IncrProblem p;
  Sta sta(p.nl_, p.paras_, nullptr, kTypicalCorner, 1);
  EditDriver edit(p, sta);
  std::mt19937_64 prng(101);
  for (int batch = 0; batch < 10; ++batch) {
    int applied = 0;
    int guard = 0;
    while (applied < 2 && guard++ < 200) {
      const std::uint64_t op = prng() % 4;
      if (op == 0) {
        if (edit.revertLastResize()) ++applied;
      } else if (op == 1) {
        const NetId n = static_cast<NetId>(prng() % static_cast<std::uint64_t>(p.nl_.numNets()));
        const Net& net = p.nl_.net(n);
        if (net.pins.size() < 2) continue;
        const int sinkIdx = static_cast<int>(prng() % net.pins.size());
        if (edit.insertBuffer(n, sinkIdx)) ++applied;
      } else {
        const InstId inst =
            static_cast<InstId>(prng() % static_cast<std::uint64_t>(p.nl_.numInstances()));
        if (edit.resize(inst, op == 2)) ++applied;
      }
    }
    edit.commit();
    expectMatchesScratch(p, sta, nullptr, 1.2e-9, "batch " + std::to_string(batch));
  }
}

TEST(StaIncrEquivalence, PeriodChangeReseedsHalfCycleCones) {
  IncrProblem p;
  Sta sta(p.nl_, p.paras_, nullptr, kTypicalCorner, 1);
  // Same engine queried across periods (the half-cycle input port makes
  // arrivals period-dependent) must match scratch engines at each period.
  for (const double period : {1.0e-9, 2.0e-9, 1.5e-9, 1.0e-9}) {
    const Sta scratch(p.nl_, p.paras_, nullptr, kTypicalCorner, 1);
    EXPECT_EQ(sta.worstSlack(period), scratch.worstSlack(period)) << period;
    const std::vector<double> ai = sta.portArrivals(period);
    const std::vector<double> as = scratch.portArrivals(period);
    for (std::size_t i = 0; i < ai.size(); ++i) EXPECT_EQ(ai[i], as[i]) << period;
  }
  // One full sweep primed the cache; each of the three period changes then
  // either completed as a cone reseed or (if the half-cycle fanout cone is
  // too large) fell back into exactly one more full sweep.
  const Sta::IncrStats& s = sta.incrStats();
  EXPECT_EQ(s.incrUpdates + s.fullFallbacks, 3);
  EXPECT_EQ(s.fullSweeps, 1 + s.fullFallbacks);
}

TEST(StaIncrFallback, OversizedConeFallsBackToFullSweep) {
  IncrProblem p;
  Sta sta(p.nl_, p.paras_, nullptr, kTypicalCorner, 1);
  sta.setConeFallbackRatio(0.0);  // limit floors at 64 visited pins
  ASSERT_GT(sta.worstSlack(1.4e-9), -1.0);  // prime the cache
  EditDriver edit(p, sta);
  std::mt19937_64 prng(13);
  int applied = 0;
  while (applied < 40) {
    const InstId inst = static_cast<InstId>(prng() % static_cast<std::uint64_t>(p.nl_.numInstances()));
    if (edit.resize(inst, true)) ++applied;
  }
  edit.commit();
  expectMatchesScratch(p, sta, nullptr, 1.4e-9, "post-fallback");
  EXPECT_GT(sta.incrStats().fullFallbacks, 0);
}

TEST(StaIncrFallback, FullRatioNeverFallsBack) {
  IncrProblem p;
  Sta sta(p.nl_, p.paras_, nullptr, kTypicalCorner, 1);
  sta.setConeFallbackRatio(1.0);  // a cone visits each pin at most once
  ASSERT_GT(sta.worstSlack(1.4e-9), -1.0);
  EditDriver edit(p, sta);
  std::mt19937_64 prng(13);
  int applied = 0;
  while (applied < 40) {
    const InstId inst = static_cast<InstId>(prng() % static_cast<std::uint64_t>(p.nl_.numInstances()));
    if (edit.resize(inst, true)) ++applied;
  }
  edit.commit();
  expectMatchesScratch(p, sta, nullptr, 1.4e-9, "no-fallback");
  EXPECT_EQ(sta.incrStats().fullFallbacks, 0);
  EXPECT_GT(sta.incrStats().incrUpdates, 0);
  EXPECT_GT(sta.incrStats().coneNodes, 0);
}

TEST(StaIncrDeterminism, EditSequenceBitIdenticalAcrossThreadCounts) {
  // The determinism matrix entry for cone updates: the same edit+query
  // sequence at 1/2/8 threads must produce bit-identical results after
  // every batch (the cone's per-level active list is sorted and each pin
  // writes only its own slot, so the schedule cannot matter).
  struct Trace {
    std::vector<double> wns;
    std::vector<double> minPeriod;
    std::vector<std::vector<double>> arrivals;
  };
  const auto run = [](int threads) {
    Trace t;
    IncrProblem p;
    Sta sta(p.nl_, p.paras_, nullptr, kTypicalCorner, threads);
    EditDriver edit(p, sta);
    std::mt19937_64 prng(23);
    for (int batch = 0; batch < 6; ++batch) {
      int applied = 0;
      while (applied < 4) {
        const InstId inst =
            static_cast<InstId>(prng() % static_cast<std::uint64_t>(p.nl_.numInstances()));
        if (edit.resize(inst, (prng() & 1) != 0)) ++applied;
      }
      edit.commit();
      t.wns.push_back(sta.worstSlack(1.3e-9));
      t.minPeriod.push_back(sta.findMinPeriod());
      t.arrivals.push_back(sta.portArrivals(1.3e-9));
    }
    return t;
  };
  const Trace ref = run(1);
  for (const int threads : {2, 8}) {
    const Trace got = run(threads);
    ASSERT_EQ(got.wns.size(), ref.wns.size());
    for (std::size_t b = 0; b < ref.wns.size(); ++b) {
      EXPECT_EQ(got.wns[b], ref.wns[b]) << "threads=" << threads << " batch=" << b;
      EXPECT_EQ(got.minPeriod[b], ref.minPeriod[b]) << "threads=" << threads << " batch=" << b;
      ASSERT_EQ(got.arrivals[b].size(), ref.arrivals[b].size());
      for (std::size_t i = 0; i < ref.arrivals[b].size(); ++i) {
        EXPECT_EQ(got.arrivals[b][i], ref.arrivals[b][i])
            << "threads=" << threads << " batch=" << b << " port=" << i;
      }
    }
  }
}

TEST(StaIncrMinPeriod, ExactMatchesBisectionOnCloud) {
  IncrProblem p;
  const Sta sta(p.nl_, p.paras_, nullptr, kTypicalCorner, 1);
  const double exact = sta.findMinPeriod();
  const double bisect = minPeriodByBisection(sta);
  ASSERT_TRUE(std::isfinite(exact));
  EXPECT_NEAR(exact, bisect, 1e-12);
  // The exact solve must itself be feasible under the conventional check.
  EXPECT_GE(sta.worstSlack(exact), 0.0);
}

TEST(StaIncrMinPeriod, InfeasibleHalfCyclePathReturnsSentinel) {
  // A half-cycle launch into a half-cycle output port can never make
  // timing: T/2 + delay <= T/2 has no solution. The exact solve and the
  // bisection oracle must both return the sentinel instead of a bogus
  // finite period.
  TechNode tech = makeTech28(6);
  Library lib = makeStdCellLib(tech);
  Netlist nl(&lib);
  const PortId in = nl.addPort("hin", PinDir::kInput, Side::kWest);
  const PortId out = nl.addPort("hout", PinDir::kOutput, Side::kEast);
  nl.port(in).halfCycle = true;
  nl.port(out).halfCycle = true;
  const NetId a = nl.addNet("a");
  const NetId y = nl.addNet("y");
  nl.connectPort(a, in);
  nl.connectPort(y, out);
  const CellTypeId bufId = lib.findCell("BUF_X8");
  ASSERT_NE(bufId, kInvalidCellType);
  const InstId buf = nl.addInstance("b0", bufId);
  nl.connect(a, buf, *lib.cell(bufId).findPin("A"));
  nl.connect(y, buf, *lib.cell(bufId).findPin("Y"));
  const Rect die{0, 0, umToDbu(20), umToDbu(20)};
  nl.instance(buf).pos = Point{die.xhi / 2, die.yhi / 2};
  assignPorts(nl, die);
  const std::vector<NetParasitics> paras = estimateDesign(nl, EstimationOptions{});
  const Sta sta(nl, paras, nullptr, kTypicalCorner, 1);
  EXPECT_EQ(sta.findMinPeriod(), Sta::kInfeasiblePeriod);
  EXPECT_EQ(minPeriodByBisection(sta), Sta::kInfeasiblePeriod);
}

TEST(StaIncrOptimizer, CallerEngineMatchesScratchAfterOptimization) {
  // optimizeTiming(sta, ...) mirrors every resize and buffer insertion into
  // the caller's engine, so after each call that engine must agree with a
  // Sta built from scratch on the edited netlist. The calls replay the
  // max-frequency schedule by hand, which optimizeForMaxFrequency (driving
  // its own engine) must then reproduce edit for edit.
  constexpr int kRounds = 2;
  constexpr double kTighten = 0.93;
  EstimatedParasitics provider(EstimationOptions{});
  OptimizerOptions opt;
  opt.maxPasses = 8;
  opt.numThreads = 1;
  IncrProblem p;
  Sta sta(p.nl_, p.paras_, nullptr, kTypicalCorner, 1);
  double best = sta.findMinPeriod();
  int resized = 0;
  int buffers = 0;
  for (int round = 0; round < kRounds; ++round) {
    opt.targetPeriod = best * kTighten;
    const OptimizeResult res = optimizeTiming(sta, p.nl_, p.paras_, provider, opt);
    resized += res.cellsResized;
    buffers += res.buffersInserted;
    const std::string where = "round " + std::to_string(round);
    const Sta scratch(p.nl_, p.paras_, nullptr, kTypicalCorner, 1);
    EXPECT_EQ(res.finalWns, scratch.worstSlack(opt.targetPeriod)) << where;
    expectMatchesScratch(p, sta, nullptr, opt.targetPeriod, where);
    const double now = sta.findMinPeriod();
    // Every round must improve, or optimizeForMaxFrequency would stop early.
    ASSERT_LT(now, best * 0.999) << where;
    best = now;
  }
  EXPECT_GT(resized + buffers, 0);

  IncrProblem q;
  const MaxFreqOptResult mf =
      optimizeForMaxFrequency(q.nl_, q.paras_, provider, nullptr, opt, kRounds, kTighten);
  EXPECT_EQ(mf.rounds, kRounds);
  EXPECT_EQ(mf.cellsResized, resized);
  EXPECT_EQ(mf.buffersInserted, buffers);
  EXPECT_EQ(mf.minPeriod, best);
  EXPECT_EQ(db::contentHash(q.nl_), db::contentHash(p.nl_));
}

TEST(StaIncrOptimizer, ZeroPassesSkipsTheInitialProbe) {
  IncrProblem p;
  EstimatedParasitics provider(EstimationOptions{});
  OptimizerOptions opt;
  opt.maxPasses = 0;
  const OptimizeResult res = optimizeTiming(p.nl_, p.paras_, provider, nullptr, opt);
  EXPECT_EQ(res.passes, 0);
  EXPECT_EQ(res.cellsResized, 0);
  EXPECT_EQ(res.initialWns, 0.0);  // never measured: maxPasses == 0 is a no-op
}

}  // namespace
}  // namespace m3d
