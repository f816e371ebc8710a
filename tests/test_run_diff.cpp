/// \file test_run_diff.cpp
/// Run-diff regression gate unit tests: metric flattening for both JSON
/// schemas, direction-aware thresholding, per-metric overrides, and the
/// m3d_report CLI exit codes (driven in-process via runReportToolMain).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "report/run_diff.hpp"

namespace m3d {
namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

Metrics flatten(const std::string& json) {
  std::string err;
  const auto doc = obs::parseJson(json, &err);
  EXPECT_TRUE(doc.has_value()) << err;
  if (!doc.has_value()) return {};
  Metrics out = flattenMetricsJson(*doc, &err);
  EXPECT_TRUE(err.empty()) << err;
  return out;
}

double valueOf(const Metrics& m, const std::string& key) {
  for (const auto& [k, v] : m) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "missing metric " << key;
  return 0.0;
}

Metrics withValue(Metrics m, const std::string& key, double value) {
  for (auto& [k, v] : m) {
    if (k == key) v = value;
  }
  return m;
}

const char* kRunReportDoc = R"({
  "schema": "m3d.run_report/1",
  "flow": "Macro-3D", "tile": "unit",
  "wall_ms": 1000.0,
  "peak_rss_kb": 50000,
  "span": { "name": "macro3d", "dur_ms": 1000.0, "self_ms": 10.0,
            "children": [
              { "name": "place", "dur_ms": 400.0, "self_ms": 390.0 },
              { "name": "route", "dur_ms": 500.0, "self_ms": 480.0 } ] },
  "counters": { "route.nodes_popped": 123456, "opt.cells_resized": 40 },
  "series_stats": { "place.hpwl": { "count": 5, "last": 8200.0 } },
  "final": { "fclk_mhz": 950.0, "total_overflow": 0.0 }
})";

const char* kBenchDoc = R"({
  "schema": "m3d.bench/1",
  "bench": "route_smoke",
  "wall_s": 0.08,
  "scalars": { "pops_windowed": 52000.0, "unrouted_nets": 0.0 },
  "flows": [ { "label": "macro3d", "metrics": { "wirelength_um": 104000.0 } } ]
})";

TEST(ObsRunDiff, FlattensRunReportSchema) {
  const Metrics m = flatten(kRunReportDoc);
  EXPECT_EQ(valueOf(m, "wall_ms"), 1000.0);
  EXPECT_EQ(valueOf(m, "peak_rss_kb"), 50000.0);
  EXPECT_EQ(valueOf(m, "counters.route.nodes_popped"), 123456.0);
  EXPECT_EQ(valueOf(m, "span.place.dur_ms"), 400.0);
  EXPECT_EQ(valueOf(m, "span.route.self_ms"), 480.0);
  EXPECT_EQ(valueOf(m, "series.place.hpwl.last"), 8200.0);
  EXPECT_EQ(valueOf(m, "final.fclk_mhz"), 950.0);
}

TEST(ObsRunDiff, FlattensBenchSchema) {
  const Metrics m = flatten(kBenchDoc);
  EXPECT_EQ(valueOf(m, "wall_s"), 0.08);
  EXPECT_EQ(valueOf(m, "scalars.pops_windowed"), 52000.0);
  EXPECT_EQ(valueOf(m, "flow.macro3d.wirelength_um"), 104000.0);
}

TEST(ObsRunDiff, UnknownSchemaReportsError) {
  std::string err;
  const auto doc = obs::parseJson(R"({"schema": "bogus/9", "wall_ms": 1.0})", &err);
  ASSERT_TRUE(doc.has_value());
  const Metrics m = flattenMetricsJson(*doc, &err);
  EXPECT_TRUE(m.empty());
  EXPECT_NE(err.find("bogus/9"), std::string::npos);
}

TEST(ObsRunDiff, MetricDirections) {
  EXPECT_EQ(metricDirection("wall_ms"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("span.route.self_ms"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("counters.route.nodes_popped"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("series.place.hpwl.last"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("final.fclk_mhz"), MetricDirection::kHigherBetter);
  EXPECT_EQ(metricDirection("final.wns_ps"), MetricDirection::kHigherBetter);
  EXPECT_EQ(metricDirection("counters.db.stage_cache_hits"), MetricDirection::kHigherBetter);
  EXPECT_EQ(metricDirection("counters.opt.cells_resized"), MetricDirection::kInfo);
}

// Direction policy lock for the incremental-STA telemetry: a jump in
// full-sweep fallbacks (or a design going min-period infeasible) is a
// regression, the opt stage wall gates as wall-clock, and the raw cone
// update/visit volume is informational only.
TEST(ObsRunDiff, IncrementalStaKeysGatePolicy) {
  EXPECT_EQ(metricDirection("counters.sta.full_fallbacks"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("counters.sta.min_period_infeasible"),
            MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("span.pre_route_opt.dur_ms"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("span.post_route_opt.self_ms"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("counters.sta.incr_updates"), MetricDirection::kInfo);
  EXPECT_EQ(metricDirection("counters.sta.cone_nodes"), MetricDirection::kInfo);
}

// Direction policy lock for the placer-engine ablation gate: HPWL and
// density-overflow keys (bench table + flow finals + per-iteration series)
// must gate as higher-worse so a QoR slip in either engine fails the diff.
TEST(ObsRunDiff, PlaceQorKeysGateHigherWorse) {
  EXPECT_EQ(metricDirection("final.place_hpwl_mm"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("final.place_overflow"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("series.place.iter_hpwl.last"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("series.place.iter_overflow.last"), MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("bench.hpwl_ablation.analytic_small.hpwl_um"),
            MetricDirection::kHigherWorse);
  EXPECT_EQ(metricDirection("bench.hpwl_ablation.b2b_small.route_overflow"),
            MetricDirection::kHigherWorse);
  // Iteration counts carry no monotone quality meaning: info, never gating.
  EXPECT_EQ(metricDirection("final.place_iterations"), MetricDirection::kInfo);
}

TEST(ObsRunDiff, IdenticalRunsProduceNoRegressions) {
  const Metrics base = flatten(kRunReportDoc);
  const DiffResult r = diffMetrics(base, base, DiffOptions{});
  EXPECT_EQ(r.regressions, 0);
  for (const DiffRow& row : r.rows) {
    EXPECT_FALSE(row.regression) << row.key;
    EXPECT_FALSE(row.improvement) << row.key;
  }
}

TEST(ObsRunDiff, WallClockRegressionGatesAtTenPercent) {
  const Metrics base = flatten(kRunReportDoc);
  const Metrics cur = withValue(base, "wall_ms", 1100.0);  // +10%
  // Default wall threshold is 5%: a 10% slowdown must gate.
  const DiffResult r = diffMetrics(base, cur, DiffOptions{});
  EXPECT_EQ(r.regressions, 1);
  // A 10% speedup is an improvement, never a regression.
  const DiffResult faster = diffMetrics(base, withValue(base, "wall_ms", 900.0), DiffOptions{});
  EXPECT_EQ(faster.regressions, 0);
}

TEST(ObsRunDiff, HigherBetterMetricGatesOnDrop) {
  const Metrics base = flatten(kRunReportDoc);
  const DiffResult drop = diffMetrics(base, withValue(base, "final.fclk_mhz", 850.0),
                                      DiffOptions{});
  EXPECT_EQ(drop.regressions, 1);
  const DiffResult rise = diffMetrics(base, withValue(base, "final.fclk_mhz", 1050.0),
                                      DiffOptions{});
  EXPECT_EQ(rise.regressions, 0);
}

TEST(ObsRunDiff, InfoMetricsNeverGate) {
  const Metrics base = flatten(kRunReportDoc);
  const DiffResult r = diffMetrics(base, withValue(base, "counters.opt.cells_resized", 80.0),
                                   DiffOptions{});
  EXPECT_EQ(r.regressions, 0);
}

TEST(ObsRunDiff, ZeroBaseRegressionStillFlagged) {
  // deltaPct is undefined at base==0 but the absolute comparison must
  // still catch new overflow appearing.
  const Metrics base = flatten(kRunReportDoc);
  const DiffResult r = diffMetrics(base, withValue(base, "final.total_overflow", 3.0),
                                   DiffOptions{});
  EXPECT_EQ(r.regressions, 1);
}

TEST(ObsRunDiff, PerMetricOverrideWins) {
  const Metrics base = flatten(kRunReportDoc);
  const Metrics cur = withValue(base, "wall_ms", 1100.0);
  DiffOptions loose;
  loose.perMetricPct.emplace_back("wall_ms", 25.0);
  EXPECT_EQ(diffMetrics(base, cur, loose).regressions, 0);
  DiffOptions tight;
  tight.perMetricPct.emplace_back("counters.route.nodes_popped", 0.001);
  const Metrics popped = withValue(base, "counters.route.nodes_popped", 123466.0);
  EXPECT_EQ(diffMetrics(base, popped, tight).regressions, 1);
}

TEST(ObsRunDiff, AddedAndRemovedMetricsDoNotGate) {
  Metrics base = flatten(kRunReportDoc);
  Metrics cur = base;
  cur.emplace_back("final.brand_new", 1.0);
  base.emplace_back("final.gone", 2.0);
  const DiffResult r = diffMetrics(base, cur, DiffOptions{});
  EXPECT_EQ(r.regressions, 0);
  bool sawAdded = false;
  bool sawRemoved = false;
  for (const DiffRow& row : r.rows) {
    if (row.key == "final.brand_new") sawAdded = !row.inBase && row.inCur;
    if (row.key == "final.gone") sawRemoved = row.inBase && !row.inCur;
  }
  EXPECT_TRUE(sawAdded);
  EXPECT_TRUE(sawRemoved);
}

class ObsRunDiffCli : public ::testing::Test {
 protected:
  std::string writeDoc(const std::string& leaf, const std::string& contents) {
    const std::string path = ::testing::TempDir() + leaf;
    std::ofstream os(path);
    os << contents;
    EXPECT_TRUE(os.good());
    return path;
  }

  int runCli(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "m3d_report");
    return runReportToolMain(static_cast<int>(argv.size()), argv.data());
  }
};

TEST_F(ObsRunDiffCli, IdenticalFilesExitZero) {
  const std::string a = writeDoc("diff_base.json", kRunReportDoc);
  const std::string b = writeDoc("diff_same.json", kRunReportDoc);
  EXPECT_EQ(runCli({"diff", a.c_str(), b.c_str(), "--quiet"}), 0);
}

TEST_F(ObsRunDiffCli, InjectedWallRegressionExitsNonZero) {
  const std::string a = writeDoc("diff_base2.json", kRunReportDoc);
  std::string slower = kRunReportDoc;
  const auto pos = slower.find("\"wall_ms\": 1000.0");
  ASSERT_NE(pos, std::string::npos);
  slower.replace(pos, std::string("\"wall_ms\": 1000.0").size(), "\"wall_ms\": 1100.0");
  const std::string b = writeDoc("diff_slower.json", slower);
  EXPECT_EQ(runCli({"diff", a.c_str(), b.c_str(), "--quiet"}), 1);
  // A loose enough wall threshold waves the same pair through.
  EXPECT_EQ(runCli({"diff", a.c_str(), b.c_str(), "--wall-threshold", "25", "--quiet"}), 0);
}

TEST_F(ObsRunDiffCli, BadUsageAndMissingFilesExitTwo) {
  EXPECT_EQ(runCli({}), 2);
  EXPECT_EQ(runCli({"frobnicate"}), 2);
  EXPECT_EQ(runCli({"diff", "/nonexistent/a.json", "/nonexistent/b.json"}), 2);
  const std::string a = writeDoc("diff_base3.json", kRunReportDoc);
  EXPECT_EQ(runCli({"diff", a.c_str()}), 2);
  EXPECT_EQ(runCli({"diff", a.c_str(), a.c_str(), "--threshold", "abc"}), 2);
}

}  // namespace
}  // namespace m3d
