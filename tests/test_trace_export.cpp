/// \file test_trace_export.cpp
/// Chrome-trace export unit tests: collector gating, JSON round-trip
/// through the in-repo parser, pool worker tracks, thread-count
/// determinism of the RunReport, and the span RSS-delta semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/macro3d.hpp"
#include "core/parallel.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "place/placer.hpp"
#include "route/route_grid.hpp"
#include "route/router.hpp"

namespace m3d {
namespace {

/// Disables the global trace collector and clears the thread tracer on
/// scope exit so tests don't leak trace state into each other.
class TraceGuard {
 public:
  TraceGuard() {
    obs::TraceCollector::global().disable();
    obs::Tracer::local().clear();
  }
  ~TraceGuard() {
    obs::TraceCollector::global().disable();
    obs::Tracer::local().clear();
  }
};

std::string tempPath(const std::string& leaf) { return ::testing::TempDir() + leaf; }

TEST(ObsChromeTrace, DisabledByDefaultRecordsNothing) {
  TraceGuard guard;
  obs::TraceCollector& tc = obs::TraceCollector::global();
  EXPECT_FALSE(tc.enabled());
  tc.recordComplete("ignored", 0, 10);
  tc.recordCounter("ignored", 1.0);
  {
    obs::ScopedPhase root("unit.disabled", /*forceRoot=*/true);
  }
  EXPECT_EQ(tc.eventCount(), 0u);
  EXPECT_EQ(tc.droppedEvents(), 0u);
}

TEST(ObsChromeTrace, UnwritablePathLeavesCollectorDisabled) {
  TraceGuard guard;
  obs::TraceCollector& tc = obs::TraceCollector::global();
  // The parent directory does not exist, so the writability probe at
  // enable() must fail without aborting anything.
  EXPECT_FALSE(tc.enable("/nonexistent-m3d-trace-dir/sub/trace.json"));
  EXPECT_FALSE(tc.enabled());
  {
    obs::ScopedPhase root("unit.after-bad-enable", /*forceRoot=*/true);
  }
  EXPECT_EQ(tc.eventCount(), 0u);
}

TEST(ObsChromeTrace, SpanAndCounterEventsRoundTrip) {
  TraceGuard guard;
  obs::TraceCollector& tc = obs::TraceCollector::global();
  const std::string path = tempPath("m3d_trace_roundtrip.json");
  ASSERT_TRUE(tc.enable(path));
  {
    obs::ScopedPhase root("unit.root", /*forceRoot=*/true);
    {
      obs::ScopedPhase child("unit.child");
      child.attr("widgets", 3.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    obs::series("unit.trace_counter").record(7.0);
    obs::series("unit.trace_counter").record(9.0);
  }
  EXPECT_GE(tc.eventCount(), 4u);  // two spans + two counter samples

  std::string err;
  const auto doc = obs::parseJson(tc.toJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  ASSERT_FALSE(events->arr.empty());

  bool sawThreadName = false;
  bool sawChildSpan = false;
  bool sawCounter = false;
  double lastTs = -1.0;
  double minTs = 1e300;
  for (const obs::JsonValue& e : events->arr) {
    const obs::JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->isString());
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph->str == "M") {
      const obs::JsonValue* name = e.find("name");
      if (name != nullptr && name->str == "thread_name") sawThreadName = true;
      continue;
    }
    const obs::JsonValue* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->isNumber());
    EXPECT_GE(ts->number, lastTs);  // exporter sorts by timestamp
    lastTs = ts->number;
    minTs = std::min(minTs, ts->number);
    const obs::JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    if (ph->str == "X" && name->str == "unit.child") {
      sawChildSpan = true;
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GT(e.numberOr("dur", 0.0), 0.0);
      const obs::JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->numberOr("widgets", -1.0), 3.0);
    }
    if (ph->str == "C" && name->str == "unit.trace_counter") {
      sawCounter = true;
      const obs::JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      const double v = args->numberOr("value", -1.0);
      EXPECT_TRUE(v == 7.0 || v == 9.0);
    }
  }
  EXPECT_TRUE(sawThreadName);
  EXPECT_TRUE(sawChildSpan);
  EXPECT_TRUE(sawCounter);
  EXPECT_EQ(minTs, 0.0);  // timestamps are normalized to the earliest event

  // writeFile() persists the same document and always leaves the collector
  // disabled with an empty buffer.
  ASSERT_TRUE(tc.writeFile(&err)) << err;
  EXPECT_FALSE(tc.enabled());
  EXPECT_EQ(tc.eventCount(), 0u);
}

TEST(ObsPoolTrace, WorkerTasksRecordQueueWaitOnWorkerTracks) {
  TraceGuard guard;
  obs::TraceCollector& tc = obs::TraceCollector::global();
  ASSERT_TRUE(tc.enable(tempPath("m3d_trace_pool.json")));

  // Sleepy elements guarantee the pool workers wake up and claim chunks
  // before the participating caller drains the queue alone.
  std::atomic<std::int64_t> sum{0};
  par::parallelFor(
      0, 256, 1,
      [&](std::int64_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        sum.fetch_add(i, std::memory_order_relaxed);
      },
      /*numThreads=*/4);
  EXPECT_EQ(sum.load(), 256 * 255 / 2);

  std::string err;
  const auto doc = obs::parseJson(tc.toJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  int poolTasks = 0;
  int workerTrackTasks = 0;
  for (const obs::JsonValue& e : events->arr) {
    const obs::JsonValue* ph = e.find("ph");
    const obs::JsonValue* name = e.find("name");
    if (ph == nullptr || name == nullptr || ph->str != "X" || name->str != "pool.task") continue;
    ++poolTasks;
    const obs::JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_GE(args->numberOr("queue_wait_us", -1.0), 0.0);
    EXPECT_GE(args->numberOr("chunks", 0.0), 1.0);
    const double tid = e.numberOr("tid", -1.0);
    if (tid >= 1.0 && tid <= 63.0) ++workerTrackTasks;
  }
  EXPECT_GE(poolTasks, 2);
  EXPECT_GE(workerTrackTasks, 1) << "no pool.task event landed on a worker track";
}

/// Small congested routing problem (mirrors the bench_route smoke shape but
/// sized for a unit test).
struct MiniCluster {
  MiniCluster() : tech(makeTech28(6)), lib(makeStdCellLib(tech)), nl(&lib) {
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<int> coord(70, 130);
    std::uniform_int_distribution<int> fanout(1, 3);
    int instances = 0;
    auto addInv = [&]() {
      const InstId i = nl.addInstance("i" + std::to_string(instances++), lib.findCell("INV_X1"));
      nl.instance(i).pos = Point{umToDbu(static_cast<double>(coord(rng))),
                                 umToDbu(static_cast<double>(coord(rng)))};
      return i;
    };
    for (int n = 0; n < 40; ++n) {
      const InstId drv = addInv();
      const NetId net = nl.addNet("n" + std::to_string(n));
      nl.connect(net, drv, "Y");
      const int sinks = fanout(rng);
      for (int s = 0; s < sinks; ++s) nl.connect(net, addInv(), "A");
    }
  }

  TechNode tech;
  Library lib;
  Netlist nl;
  Rect die{0, 0, umToDbu(200), umToDbu(200)};
};

/// Counters + series of a RunReport as an exact text form (hexfloat keeps
/// doubles bit-exact), excluding gauges: parallel.threads legitimately
/// differs across thread counts.
std::string canonicalMetrics(const obs::RunReport& report) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [name, value] : report.counters) os << name << '=' << value << '\n';
  for (const auto& slice : report.series) {
    os << slice.name << ':';
    for (double p : slice.points) os << ' ' << p;
    os << '\n';
  }
  return os.str();
}

TEST(ObsTraceDeterminism, ReportCountersAndSeriesIdenticalAcrossThreads) {
  TraceGuard guard;
  // Tracing stays ON during the runs: instrumentation must never perturb
  // the algorithm, so the reports still have to match bit for bit.
  ASSERT_TRUE(obs::TraceCollector::global().enable(tempPath("m3d_trace_det.json")));

  MiniCluster prob;
  RouteGridOptions gridOpt;
  gridOpt.trackUtilization = 0.08;  // force a couple of negotiation rounds

  auto routeReportAt = [&](int threads) {
    obs::Tracer::local().clear();
    obs::ScopedRun run("trace-determinism", "mini-cluster");
    RouterOptions ropt;
    ropt.maxIterations = 4;
    ropt.numThreads = threads;
    RouteGrid grid(prob.nl, prob.die, prob.tech.beol, gridOpt);
    const RoutingResult rr = routeDesign(prob.nl, grid, ropt);
    run.final("total_overflow", static_cast<double>(rr.totalOverflow));
    return canonicalMetrics(run.finish());
  };

  const std::string at1 = routeReportAt(1);
  const std::string at2 = routeReportAt(2);
  const std::string at8 = routeReportAt(8);
  ASSERT_FALSE(at1.empty());
  EXPECT_NE(at1.find("route.iter_pops"), std::string::npos);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
}

/// Counter \p name of \p report (0 when the run never touched it).
std::int64_t reportCounter(const obs::RunReport& report, const std::string& name) {
  for (const auto& [key, value] : report.counters) {
    if (key == name) return value;
  }
  return 0;
}

TEST(ObsTraceDeterminism, PlacerLeafSpansAndCgItersIdenticalAcrossThreads) {
  TraceGuard guard;
  ASSERT_TRUE(obs::TraceCollector::global().enable(tempPath("m3d_trace_place.json")));
  const TechNode tech = makeTech28(6);

  auto placeReportAt = [&](int threads) {
    Library lib = makeStdCellLib(tech);
    Netlist nl(&lib);
    const PortId clkPort = nl.addPort("clk", PinDir::kInput, Side::kWest, true);
    const NetId clk = nl.addNet("clk");
    nl.connectPort(clk, clkPort);
    Rng rng(11);
    CloudSpec spec;
    spec.prefix = "c";
    spec.numGates = 300;
    spec.numRegs = 60;
    spec.clockNet = clk;
    buildLogicCloud(nl, rng, spec);
    Floorplan fp;
    fp.die = Rect{0, 0, snapUp(umToDbu(70.0), tech.siteWidth),
                  snapUp(umToDbu(70.0), tech.rowHeight)};
    fp.rowHeight = tech.rowHeight;
    fp.siteWidth = tech.siteWidth;
    assignPorts(nl, fp.die);

    obs::Tracer::local().clear();
    obs::ScopedRun run("place-spans", "cloud");
    PlacerOptions popt;
    popt.numThreads = threads;
    EXPECT_TRUE(globalPlace(nl, fp, popt).success);
    return run.finish();
  };

  std::int64_t cgIters1 = 0;
  std::string metrics1;
  for (const int threads : {1, 2, 8}) {
    const obs::RunReport report = placeReportAt(threads);
    const obs::Span& root = report.root;
    // The pure-solve rounds precede the iterations; each iteration holds its
    // solve, diffusion and legalization as leaf spans, in that order. All of
    // them are opened on the calling thread, outside the parallel regions.
    ASSERT_FALSE(root.children.empty());
    EXPECT_EQ(root.children[0].name, "place.pure_solve") << "at numThreads=" << threads;
    EXPECT_TRUE(root.children[0].children.empty());
    int iters = 0;
    for (const obs::Span& child : root.children) {
      if (child.name != "place.iter") continue;
      ++iters;
      ASSERT_EQ(child.children.size(), 3u) << "iteration " << iters;
      EXPECT_EQ(child.children[0].name, "place.solve");
      EXPECT_EQ(child.children[1].name, "place.diffuse");
      EXPECT_EQ(child.children[2].name, "place.legalize");
      for (const obs::Span& leaf : child.children) EXPECT_TRUE(leaf.children.empty());
    }
    EXPECT_GT(iters, 0);

    const std::int64_t cgIters = reportCounter(report, "place.cg_iters");
    EXPECT_GT(cgIters, 0);
    if (threads == 1) {
      cgIters1 = cgIters;
      metrics1 = canonicalMetrics(report);
      continue;
    }
    EXPECT_EQ(cgIters, cgIters1) << "CG iterations drifted at numThreads=" << threads;
    EXPECT_EQ(canonicalMetrics(report), metrics1) << "at numThreads=" << threads;
  }
}

TEST(ObsSpanRss, SiblingSpanRssDeltasAreIndependent) {
  TraceGuard guard;
  if (obs::currentPeakRssKb() <= 0) GTEST_SKIP() << "peak RSS not readable on this platform";

  obs::Tracer& tracer = obs::Tracer::local();
  tracer.open("rss.root");
  const long startPeakKb = obs::currentPeakRssKb();

  // Child A: grow the process peak by at least 64 MB (touch every page so
  // the kernel actually commits the allocation).
  tracer.open("rss.grower");
  std::vector<std::vector<char>> ballast;
  for (int i = 0; i < 32 && obs::currentPeakRssKb() - startPeakKb < 64 * 1024; ++i) {
    ballast.emplace_back(16u << 20, '\0');
    std::vector<char>& block = ballast.back();
    for (std::size_t off = 0; off < block.size(); off += 4096) block[off] = 1;
  }
  const bool grew = obs::currentPeakRssKb() - startPeakKb >= 64 * 1024;
  tracer.close();

  // Child B: allocates nothing, so even though the process-global peak is
  // now high, its delta must be ~zero (this is the bug the delta fixes:
  // siblings used to all report the same process-global maximum).
  tracer.open("rss.idle");
  tracer.close();
  tracer.close();

  ASSERT_TRUE(tracer.hasCompletedRoot());
  const obs::Span root = tracer.takeLastRoot();
  ASSERT_EQ(root.children.size(), 2u);
  const obs::Span& grower = root.children[0];
  const obs::Span& idle = root.children[1];
  if (!grew) GTEST_SKIP() << "could not grow peak RSS (already huge?)";
  EXPECT_GE(grower.rssDeltaKb, 64 * 1024);
  EXPECT_LE(idle.rssDeltaKb, 1024);  // idle sibling: no growth attributed
  EXPECT_GE(root.rssDeltaKb, grower.rssDeltaKb);
  EXPECT_EQ(idle.peakRssAtCloseKb, grower.peakRssAtCloseKb);  // global peak is monotone
}

TEST(ObsSpanSelfTime, SelfDurExcludesDirectChildren) {
  TraceGuard guard;
  obs::Tracer& tracer = obs::Tracer::local();
  tracer.open("self.root");
  tracer.open("self.child");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tracer.close();
  tracer.close();
  const obs::Span root = tracer.takeLastRoot();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.selfDurNs(), root.durNs - root.children[0].durNs);
  EXPECT_LT(root.selfDurNs(), root.durNs);
  EXPECT_EQ(root.children[0].selfDurNs(), root.children[0].durNs);
}

}  // namespace
}  // namespace m3d
