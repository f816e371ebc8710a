#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"

namespace m3d::obs {
namespace {

/// Restores the global log level and text sink on scope exit so tests don't
/// leak state into each other (the suite shares one process).
class LogStateGuard {
 public:
  LogStateGuard() : level_(logLevel()) {}
  ~LogStateGuard() {
    setLogTextSink(&std::cerr);
    setLogLevel(level_);
  }

 private:
  LogLevel level_;
};

TEST(ObsLog, ParseLevel) {
  EXPECT_EQ(parseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(parseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parseLogLevel("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(parseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(parseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(parseLogLevel("bogus"), std::nullopt);
  EXPECT_EQ(parseLogLevel(""), std::nullopt);
}

TEST(ObsLog, LevelFiltering) {
  LogStateGuard guard;
  std::ostringstream sink;
  setLogTextSink(&sink);

  setLogLevel(LogLevel::kWarn);
  M3D_LOG(info) << "filtered-info";
  M3D_LOG(debug) << "filtered-debug";
  M3D_LOG(warn) << "visible-warn";
  M3D_LOG(error) << "visible-error";

  const std::string out = sink.str();
  EXPECT_EQ(out.find("filtered-info"), std::string::npos);
  EXPECT_EQ(out.find("filtered-debug"), std::string::npos);
  EXPECT_NE(out.find("visible-warn"), std::string::npos);
  EXPECT_NE(out.find("visible-error"), std::string::npos);
  EXPECT_NE(out.find("[m3d:warn]"), std::string::npos);
}

TEST(ObsLog, FilteredRhsNotEvaluated) {
  LogStateGuard guard;
  setLogLevel(LogLevel::kError);
  int evals = 0;
  auto expensive = [&]() {
    ++evals;
    return 42;
  };
  M3D_LOG(debug) << "x=" << expensive();
  EXPECT_EQ(evals, 0);
  M3D_LOG(error) << "x=" << expensive();
  EXPECT_EQ(evals, 1);
}

TEST(ObsLog, EnvOverrideWins) {
  LogStateGuard guard;
  ::setenv("M3D_LOG_LEVEL", "debug", 1);
  initLogLevelFromEnv();
  EXPECT_EQ(logLevel(), LogLevel::kDebug);

  // FlowOptions-style configuration must not beat the environment.
  configureLogging(LogLevel::kError);
  EXPECT_EQ(logLevel(), LogLevel::kDebug);

  ::unsetenv("M3D_LOG_LEVEL");
  initLogLevelFromEnv();  // no env var -> keeps the current level
  EXPECT_EQ(logLevel(), LogLevel::kDebug);
  configureLogging(LogLevel::kError);  // now the request applies
  EXPECT_EQ(logLevel(), LogLevel::kError);
  configureLogging(std::nullopt);  // nullopt keeps the level
  EXPECT_EQ(logLevel(), LogLevel::kError);
}

TEST(ObsTrace, InactiveByDefault) {
  Tracer::local().clear();
  {
    ScopedPhase phase("orphan");
    EXPECT_FALSE(phase.recording());
    phase.attr("ignored", 1.0);
  }
  EXPECT_FALSE(Tracer::local().active());
  EXPECT_FALSE(Tracer::local().hasCompletedRoot());
}

TEST(ObsTrace, NestedSpanAccounting) {
  Tracer::local().clear();
  const auto work = [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); };
  {
    ScopedPhase root("root", /*forceRoot=*/true);
    ASSERT_TRUE(root.recording());
    {
      ScopedPhase a("child_a");
      ASSERT_TRUE(a.recording());
      a.attr("k", 1.5);
      work();
      {
        ScopedPhase g("grandchild");
        work();
      }
    }
    {
      ScopedPhase b("child_b");
      work();
    }
  }
  ASSERT_TRUE(Tracer::local().hasCompletedRoot());
  const Span span = Tracer::local().takeLastRoot();
  EXPECT_EQ(span.name, "root");
  ASSERT_EQ(span.children.size(), 2u);
  EXPECT_EQ(span.children[0].name, "child_a");
  EXPECT_EQ(span.children[1].name, "child_b");
  ASSERT_EQ(span.children[0].children.size(), 1u);
  EXPECT_EQ(span.children[0].children[0].name, "grandchild");
  EXPECT_EQ(span.treeSize(), 4u);

  // The parent's wall clock covers the sum of its children.
  EXPECT_GE(span.durNs, span.childrenDurNs());
  EXPECT_GE(span.children[0].durNs, span.children[0].children[0].durNs);
  EXPECT_GE(span.children[0].durNs, 5'000'000);  // slept >= 10 ms inside

  ASSERT_EQ(span.children[0].attrs.size(), 1u);
  EXPECT_EQ(span.children[0].attrs[0].first, "k");
  EXPECT_DOUBLE_EQ(span.children[0].attrs[0].second, 1.5);

  const Span* found = span.find("grandchild");
  ASSERT_NE(found, nullptr);
  EXPECT_GT(found->durNs, 0);
  EXPECT_EQ(span.find("missing"), nullptr);
}

TEST(ObsTrace, CurrentPath) {
  Tracer::local().clear();
  EXPECT_EQ(Tracer::local().currentPath(), "");
  ScopedPhase root("flow", /*forceRoot=*/true);
  ScopedPhase inner("place");
  EXPECT_EQ(Tracer::local().currentPath(), "flow/place");
  Tracer::local().clear();
}

TEST(ObsMetrics, CountersGaugesSeries) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test_obs.counter");
  const std::int64_t base = c.value();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), base + 5);
  // Same name -> same object.
  EXPECT_EQ(&reg.counter("test_obs.counter"), &c);

  reg.gauge("test_obs.gauge").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("test_obs.gauge").value(), 2.5);

  Series& s = reg.series("test_obs.series");
  const std::size_t mark = s.size();
  s.record(3.0);
  s.record(1.0);
  s.record(2.0);
  EXPECT_EQ(s.size(), mark + 3);
  const std::vector<double> tail = s.pointsFrom(mark);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_DOUBLE_EQ(tail[0], 3.0);
  EXPECT_DOUBLE_EQ(tail[2], 2.0);

  const Series::Stats st = reg.series("test_obs.stats").stats();
  EXPECT_EQ(st.count, 0u);
  reg.series("test_obs.stats").record(10.0);
  reg.series("test_obs.stats").record(20.0);
  const Series::Stats st2 = reg.series("test_obs.stats").stats();
  EXPECT_EQ(st2.count, 2u);
  EXPECT_DOUBLE_EQ(st2.min, 10.0);
  EXPECT_DOUBLE_EQ(st2.max, 20.0);
  EXPECT_DOUBLE_EQ(st2.mean, 15.0);
  EXPECT_DOUBLE_EQ(st2.last, 20.0);
}

TEST(ObsMetrics, SnapshotDelta) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test_obs.delta").add(7);  // pre-run noise
  reg.series("test_obs.delta_series").record(-1.0);

  const MetricsRegistry::Snapshot snap = reg.snapshot();
  reg.counter("test_obs.delta").add(3);
  reg.series("test_obs.delta_series").record(8.0);

  const auto itc = snap.counters.find("test_obs.delta");
  ASSERT_NE(itc, snap.counters.end());
  EXPECT_EQ(reg.counter("test_obs.delta").value() - itc->second, 3);

  const auto its = snap.seriesSizes.find("test_obs.delta_series");
  ASSERT_NE(its, snap.seriesSizes.end());
  const std::vector<double> delta = reg.series("test_obs.delta_series").pointsFrom(its->second);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_DOUBLE_EQ(delta[0], 8.0);
}

TEST(ObsJson, WriterEscaping) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.beginObject();
  w.kv("quote\"back\\slash", "line\nbreak\ttab");
  w.kv("ctl", std::string_view("\x01", 1));
  w.endObject();
  EXPECT_EQ(os.str(),
            "{\"quote\\\"back\\\\slash\":\"line\\nbreak\\ttab\",\"ctl\":\"\\u0001\"}");
}

TEST(ObsJson, ParseRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/true);
  w.beginObject();
  w.kv("str", "hello \"world\"");
  w.kv("int", static_cast<std::int64_t>(-42));
  w.kv("num", 1.5);
  w.kv("yes", true);
  w.key("null");
  w.valueNull();
  w.key("arr");
  w.beginArray();
  w.value(1);
  w.value(2.25);
  w.value("three");
  w.endArray();
  w.key("nested");
  w.beginObject();
  w.kv("deep", 9);
  w.endObject();
  w.endObject();

  std::string err;
  const auto doc = parseJson(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->isObject());
  EXPECT_EQ(doc->find("str")->str, "hello \"world\"");
  EXPECT_DOUBLE_EQ(doc->find("int")->number, -42.0);
  EXPECT_DOUBLE_EQ(doc->numberOr("num", 0.0), 1.5);
  EXPECT_TRUE(doc->find("yes")->boolean);
  EXPECT_TRUE(doc->find("null")->isNull());
  const JsonValue* arr = doc->find("arr");
  ASSERT_TRUE(arr != nullptr && arr->isArray());
  ASSERT_EQ(arr->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr->arr[1].number, 2.25);
  EXPECT_EQ(arr->arr[2].str, "three");
  EXPECT_DOUBLE_EQ(doc->find("nested")->numberOr("deep", 0.0), 9.0);
}

TEST(ObsJson, ParseErrors) {
  std::string err;
  EXPECT_FALSE(parseJson("{", &err).has_value());
  EXPECT_FALSE(parseJson("{\"a\":}", &err).has_value());
  EXPECT_FALSE(parseJson("[1,2,]", &err).has_value());
  EXPECT_FALSE(parseJson("true false", &err).has_value());
  EXPECT_FALSE(parseJson("", &err).has_value());
  EXPECT_TRUE(parseJson("[1,2,3]").has_value());
  // A 2 MB run of '[' must fail cleanly at the nesting cap, not overflow
  // the stack; nesting up to the cap still parses.
  std::string deepErr;
  EXPECT_FALSE(parseJson(std::string(2u << 20, '['), &deepErr).has_value());
  EXPECT_EQ(deepErr, "nesting too deep at offset 512");
  EXPECT_TRUE(parseJson(std::string(512, '[') + std::string(512, ']')).has_value());
}

TEST(ObsRunReport, JsonRoundTrip) {
  Tracer::local().clear();
  ScopedRun run("TestFlow", "tiny");
  counter("test_obs.run_counter").add(11);
  gauge("test_obs.run_gauge").set(3.5);
  series("test_obs.run_series").record(1.0);
  series("test_obs.run_series").record(2.0);
  {
    ScopedPhase phase("stage_one");
    phase.attr("hpwl_um", 123.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  { ScopedPhase phase("stage_two"); }
  run.final("fclk_mhz", 450.0);
  const RunReport rep = run.finish();

  EXPECT_EQ(rep.flow, "TestFlow");
  EXPECT_EQ(rep.tile, "tiny");
  EXPECT_GT(rep.wallMs, 0.0);
  ASSERT_EQ(rep.root.children.size(), 2u);
  const std::vector<double>* pts = rep.findSeries("test_obs.run_series");
  ASSERT_NE(pts, nullptr);
  EXPECT_EQ(pts->size(), 2u);

  std::string err;
  const auto doc = parseJson(rep.toJson(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("schema")->str, RunReport::kSchema);
  EXPECT_EQ(doc->find("flow")->str, "TestFlow");
  EXPECT_EQ(doc->find("tile")->str, "tiny");
  EXPECT_GT(doc->numberOr("wall_ms", 0.0), 0.0);

  const JsonValue* span = doc->find("span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->find("name")->str, "flow:TestFlow");
  const JsonValue* children = span->find("children");
  ASSERT_TRUE(children != nullptr && children->isArray());
  ASSERT_EQ(children->arr.size(), 2u);
  EXPECT_EQ(children->arr[0].find("name")->str, "stage_one");
  EXPECT_GT(children->arr[0].numberOr("dur_ms", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(children->arr[0].find("attrs")->numberOr("hpwl_um", 0.0), 123.0);

  EXPECT_DOUBLE_EQ(doc->find("counters")->numberOr("test_obs.run_counter", 0.0), 11.0);
  EXPECT_DOUBLE_EQ(doc->find("gauges")->numberOr("test_obs.run_gauge", 0.0), 3.5);
  const JsonValue* ser = doc->find("series");
  ASSERT_NE(ser, nullptr);
  const JsonValue* slice = ser->find("test_obs.run_series");
  ASSERT_TRUE(slice != nullptr && slice->isArray());
  ASSERT_EQ(slice->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(slice->arr[1].number, 2.0);
  EXPECT_DOUBLE_EQ(doc->find("final")->numberOr("fclk_mhz", 0.0), 450.0);
}

TEST(ObsRunReport, AbandonedRunLeavesTracerClean) {
  Tracer::local().clear();
  {
    ScopedRun run("Abandoned", "tiny");
    ScopedPhase phase("partial");
    // finish() never called: the destructor must unwind the open spans.
  }
  EXPECT_FALSE(Tracer::local().active());
  EXPECT_FALSE(Tracer::local().hasCompletedRoot());
}

}  // namespace
}  // namespace m3d::obs
