/// \file smoke_run_report.cpp
/// ctest smoke check for the observability layer: runs the Macro-3D flow on
/// a tiny tile with a report path AND a Chrome-trace path set (at 4 pool
/// threads), then re-reads both emitted JSON documents with the obs parser.
/// The run report must be structurally complete -- all seven pipeline
/// stages present with nonzero wall-clock, and the key metric series
/// (place.hpwl, route.f2f_bumps, sta.wns_ps) populated. The trace must
/// carry the stage spans as 'X' events on the flow track, pool.task events
/// on at least two distinct worker tracks, and counter tracks for the
/// placer HPWL and router overflow series. With the stage cache on, the
/// leaf spans that attribute checkpoint I/O (db.keys, db.save, db.restore),
/// repeater insertion and signoff STA/power must be present too, and an ECO
/// run's leaf spans for its seed pass, extraction, presize and timing-engine
/// builds.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "core/macro3d.hpp"
#include "flows/flows.hpp"
#include "obs/json.hpp"

namespace {

int gFailures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++gFailures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

/// Parses the Chrome trace written by the flow and asserts the acceptance
/// properties: well-formed, monotone timestamps, pid/tid on every event,
/// stage spans, >= 2 pool worker tracks, and the convergence counters.
void checkTrace(const std::string& tracePath) {
  using namespace m3d;

  std::ifstream is(tracePath);
  check(is.good(), "trace file exists: " + tracePath);
  std::stringstream buf;
  buf << is.rdbuf();

  std::string err;
  const auto doc = obs::parseJson(buf.str(), &err);
  check(doc.has_value(), "trace JSON parses (" + err + ")");
  if (!doc.has_value()) return;

  const obs::JsonValue* events = doc->find("traceEvents");
  check(events != nullptr && events->isArray() && !events->arr.empty(),
        "traceEvents array non-empty");
  if (events == nullptr || !events->isArray()) return;

  std::set<std::string> spanNames;
  std::set<std::string> counterNames;
  std::set<int> workerTids;
  double lastTs = -1.0;
  bool monotone = true;
  bool fieldsOk = true;
  for (const obs::JsonValue& e : events->arr) {
    const obs::JsonValue* ph = e.find("ph");
    if (ph == nullptr || !ph->isString() || e.find("pid") == nullptr ||
        e.find("tid") == nullptr) {
      fieldsOk = false;
      continue;
    }
    if (ph->str == "M") continue;  // metadata carries no timestamp
    const obs::JsonValue* ts = e.find("ts");
    if (ts == nullptr || !ts->isNumber()) {
      fieldsOk = false;
      continue;
    }
    if (ts->number < lastTs) monotone = false;
    lastTs = ts->number;
    const obs::JsonValue* name = e.find("name");
    if (name == nullptr || !name->isString()) {
      fieldsOk = false;
      continue;
    }
    if (ph->str == "X") {
      spanNames.insert(name->str);
      if (name->str == "pool.task") {
        const int tid = static_cast<int>(e.numberOr("tid", -1.0));
        if (tid >= 1 && tid < 64) workerTids.insert(tid);
      }
    } else if (ph->str == "C") {
      counterNames.insert(name->str);
    }
  }
  check(fieldsOk, "every trace event has ph/pid/tid (+ts when timed)");
  check(monotone, "trace event timestamps are monotone non-decreasing");
  for (const char* stage : kPipelineStageNames) {
    check(spanNames.count(stage) == 1, std::string("trace span '") + stage + "' present");
  }
  check(workerTids.size() >= 2,
        "pool.task events on >= 2 distinct worker tracks (got " +
            std::to_string(workerTids.size()) + ")");
  check(counterNames.count("place.hpwl") == 1, "counter track 'place.hpwl' present");
  check(counterNames.count("route.iter_overflow") == 1,
        "counter track 'route.iter_overflow' present");
}

/// The direct child of \p span named \p name (nullptr when absent).
const m3d::obs::Span* child(const m3d::obs::Span& span, const std::string& name) {
  for (const m3d::obs::Span& c : span.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

/// Asserts that \p parent has a direct child span named \p name.
void checkChild(const m3d::obs::Span* parent, const std::string& parentName,
                const std::string& name) {
  check(parent != nullptr && child(*parent, name) != nullptr,
        "span '" + name + "' under '" + parentName + "'");
}

}  // namespace

int main() {
  using namespace m3d;

  // Pin the pool width so the trace reliably shows multiple worker tracks.
  ::setenv("M3D_THREADS", "4", /*overwrite=*/1);

  const std::string path = "smoke_run_report.json";
  const std::string tracePath = "smoke_run_report.trace.json";
  const std::string cacheDir = "smoke_run_report.cache";
  std::filesystem::remove_all(cacheDir);
  FlowOptions opt;
  opt.maxFreqRounds = 2;
  opt.optBase.maxPasses = 6;
  opt.report.jsonPath = path;
  opt.traceOut = tracePath;
  opt.checkpointDir = cacheDir;

  const FlowOutput out = runFlowMacro3D(makeTinyTileConfig(), opt);

  // The in-memory report mirrors what was written.
  check(out.report.flow == "Macro-3D", "report.flow is Macro-3D");
  check(out.report.wallMs > 0.0, "report.wallMs > 0");

  std::ifstream is(path);
  check(is.good(), "report file exists: " + path);
  std::stringstream buf;
  buf << is.rdbuf();

  std::string err;
  const auto doc = obs::parseJson(buf.str(), &err);
  check(doc.has_value(), "report JSON parses (" + err + ")");
  if (!doc.has_value()) return 1;

  const obs::JsonValue* schema = doc->find("schema");
  check(schema != nullptr && schema->str == "m3d.run_report/1", "schema tag");
  const obs::JsonValue* flow = doc->find("flow");
  check(flow != nullptr && flow->str == "Macro-3D", "flow name");
  check(doc->numberOr("wall_ms", 0.0) > 0.0, "wall_ms > 0");

  // All seven pipeline stages must appear under the root span, each with a
  // nonzero duration (skipped stages still open their span).
  const obs::JsonValue* span = doc->find("span");
  check(span != nullptr && span->isObject(), "root span present");
  if (span != nullptr) {
    const obs::JsonValue* children = span->find("children");
    check(children != nullptr && children->isArray(), "root span has children");
    if (children != nullptr) {
      for (const char* stage : kPipelineStageNames) {
        bool found = false;
        for (const obs::JsonValue& c : children->arr) {
          const obs::JsonValue* name = c.find("name");
          if (name != nullptr && name->str == stage) {
            found = true;
            check(c.numberOr("dur_ms", 0.0) > 0.0,
                  std::string("stage '") + stage + "' has nonzero dur_ms");
            break;
          }
        }
        check(found, std::string("stage span '") + stage + "' present");
      }
    }
  }

  // Key metric series recorded during the run.
  const obs::JsonValue* series = doc->find("series");
  check(series != nullptr && series->isObject(), "series object present");
  if (series != nullptr) {
    for (const char* name : {"place.hpwl", "route.f2f_bumps", "sta.wns_ps"}) {
      const obs::JsonValue* s = series->find(name);
      check(s != nullptr && s->isArray() && !s->arr.empty(),
            std::string("series '") + name + "' non-empty");
    }
  }

  // Final metrics round-trip.
  const obs::JsonValue* finals = doc->find("final");
  check(finals != nullptr && finals->isObject(), "final metrics present");
  if (finals != nullptr) {
    check(finals->numberOr("fclk_mhz", 0.0) > 0.0, "final fclk_mhz > 0");
    check(finals->numberOr("f2f_bumps", -1.0) >= 0.0, "final f2f_bumps present");
  }

  checkTrace(tracePath);

  // Leaf spans of the cold run: key hashing, one checkpoint save per stage,
  // repeater insertion, and signoff STA and power.
  const obs::Span& root = out.report.root;
  checkChild(&root, "root", "db.keys");
  for (const char* stage : kPipelineStageNames) checkChild(child(root, stage), stage, "db.save");
  checkChild(child(root, "place"), "place", "place.repeaters");
  checkChild(child(root, "signoff"), "signoff", "signoff.sta");
  checkChild(child(root, "signoff"), "signoff", "signoff.power");

  // An ECO run seeded from the cold run's signoff checkpoint re-keys the
  // route stage onward: it restores the place/pre_route_opt/cts prefix and
  // loads its seed, each in a db.restore span; the router's seed pass and
  // the extraction kernels have leaf spans of their own.
  FlowOptions eco = opt;
  eco.report.jsonPath.clear();
  eco.traceOut.clear();
  eco.ecoRouteFrom = out.finalCheckpointPath;
  const FlowOutput ecoOut = runFlowMacro3D(makeTinyTileConfig(), eco);
  check(ecoOut.cacheRestoredStages == 3, "ECO run restores the 3-stage prefix");
  checkChild(&ecoOut.report.root, "root", "db.restore");
  checkChild(child(ecoOut.report.root, "route"), "route", "db.restore");
  checkChild(child(ecoOut.report.root, "route"), "route", "route.eco_seed");
  checkChild(child(ecoOut.report.root, "extract"), "extract", "extract.nets");
  checkChild(child(ecoOut.report.root, "extract"), "extract", "extract.clock");
  // Post-route sizing's presize and each timing-engine build are leaf spans
  // too (the build under post_route_opt and under signoff.sta).
  const obs::Span* postRouteOpt = child(ecoOut.report.root, "post_route_opt");
  checkChild(postRouteOpt, "post_route_opt", "opt.presize");
  checkChild(postRouteOpt, "post_route_opt", "sta.build");
  const obs::Span* signoff = child(ecoOut.report.root, "signoff");
  checkChild(signoff != nullptr ? child(*signoff, "signoff.sta") : nullptr, "signoff.sta",
             "sta.build");
  std::filesystem::remove_all(cacheDir);

  if (gFailures == 0) {
    std::cout << "smoke_run_report: OK (" << path << ", " << tracePath << ")\n";
    return 0;
  }
  std::cerr << "smoke_run_report: " << gFailures << " failure(s)\n";
  return 1;
}
