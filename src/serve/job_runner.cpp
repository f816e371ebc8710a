#include "serve/job_runner.hpp"

#include <cassert>
#include <chrono>
#include <cmath>
#include <exception>
#include <sstream>

#include "core/macro3d.hpp"
#include "db/hash.hpp"
#include "flows/flows.hpp"
#include "io/fsutil.hpp"
#include "obs/log.hpp"
#include "place/placer.hpp"

namespace m3d::serve {

namespace {

int shrinkDiv(int v, int s) { return v / s > 0 ? v / s : 1; }

/// Content hash (XXH64) of a whole file; false when unreadable.
bool hashFile(const std::string& path, std::uint64_t* out) {
  std::vector<std::uint8_t> bytes;
  if (!io::readFileBytes(path, bytes)) return false;
  *out = db::contentHash64(bytes.data(), bytes.size());
  return true;
}

}  // namespace

TileConfig tileConfigFor(const std::string& tile, int shrink) {
  TileConfig cfg;
  if (tile == "small") {
    cfg = makeSmallCacheTileConfig();
  } else if (tile == "large") {
    cfg = makeLargeCacheTileConfig();
  } else {
    cfg = makeTinyTileConfig();
  }
  if (shrink > 1) {
    cfg.name += "-s" + std::to_string(shrink);
    cfg.coreGates = shrinkDiv(cfg.coreGates, shrink);
    cfg.coreRegs = shrinkDiv(cfg.coreRegs, shrink);
    cfg.l1CtrlGates = shrinkDiv(cfg.l1CtrlGates, shrink);
    cfg.l1CtrlRegs = shrinkDiv(cfg.l1CtrlRegs, shrink);
    cfg.l2CtrlGates = shrinkDiv(cfg.l2CtrlGates, shrink);
    cfg.l2CtrlRegs = shrinkDiv(cfg.l2CtrlRegs, shrink);
    cfg.l3CtrlGates = shrinkDiv(cfg.l3CtrlGates, shrink);
    cfg.l3CtrlRegs = shrinkDiv(cfg.l3CtrlRegs, shrink);
    cfg.nocGates = shrinkDiv(cfg.nocGates, shrink);
    cfg.nocRegs = shrinkDiv(cfg.nocRegs, shrink);
  }
  return cfg;
}

FlowOptions flowOptionsFor(const JobSpec& spec, const RunnerOptions& ropt,
                           const std::string& ecoSeedPath) {
  FlowOptions opt;
  opt.maxFreqRounds = spec.maxFreqRounds;
  if (spec.optMaxPasses > 0) opt.optBase.maxPasses = spec.optMaxPasses;
  opt.signoff = spec.signoff;
  opt.resume = spec.resume;
  opt.macroDieMetals = spec.macroDieMetals;
  // validate() already rejected anything unparsable; a stale string here
  // would silently run the default engine, so assert the parse.
  [[maybe_unused]] const bool engineOk = parsePlaceEngine(spec.placeEngine, opt.placer.engine);
  assert(engineOk);
  opt.numThreads = spec.threads > 0 ? spec.threads : ropt.defaultThreads;
  opt.checkpointDir = ropt.cacheDir;
  opt.cacheMaxBytes = ropt.cacheMaxBytes;
  if (spec.f2fPitchScale != 1.0) {
    opt.f2fVia.pitch = static_cast<Dbu>(
        std::llround(static_cast<double>(opt.f2fVia.pitch) * spec.f2fPitchScale));
  }
  if (spec.kind == JobKind::kEco) opt.ecoRouteFrom = ecoSeedPath;
  // Server jobs keep the per-flow log summary quiet (the server logs one
  // line per job) and never write per-run report files of their own: the
  // daemon emits one aggregate report at shutdown.
  opt.report.logSummary = false;
  return opt;
}

bool runJob(const Job& job, const RunnerOptions& ropt, JobResult* result,
            std::string* err) {
  const auto start = std::chrono::steady_clock::now();
  const JobSpec& spec = job.spec;
  const TileConfig cfg = tileConfigFor(spec.tile, spec.shrink);
  const FlowOptions opt = flowOptionsFor(spec, ropt, job.ecoSeedPath);

  FlowOutput out;
  try {
    if (spec.flow == "macro3d") {
      out = runFlowMacro3D(cfg, opt);
    } else if (spec.flow == "2d") {
      out = runFlow2D(cfg, opt);
    } else if (spec.flow == "s2d") {
      out = runFlowS2D(cfg, /*balancedFloorplan=*/false, opt);
    } else if (spec.flow == "bf_s2d") {
      out = runFlowS2D(cfg, /*balancedFloorplan=*/true, opt);
    } else if (spec.flow == "c2d") {
      out = runFlowC2D(cfg, opt);
    } else {
      if (err != nullptr) *err = "unknown flow '" + spec.flow + "'";
      return false;
    }
  } catch (const std::exception& e) {
    if (err != nullptr) *err = std::string("flow threw: ") + e.what();
    return false;
  } catch (...) {
    if (err != nullptr) *err = "flow threw a non-standard exception";
    return false;
  }

  JobResult r;
  r.metrics = out.metrics;
  r.cachePrefixStages = out.cacheRestoredStages;
  if (spec.kind == JobKind::kEco && !job.ecoSeedPath.empty()) {
    r.ecoRipped = out.routes.ecoNetsRipped;
    r.ecoReused = out.routes.ecoNetsReused;
  }
  r.coalesced = job.coalesced;
  r.finalCheckpoint = out.finalCheckpointPath;

  // Artifact hash: the signoff-stage checkpoint bytes when the cache is on
  // (the strongest identity: the full serialized design), else the metrics
  // JSON. Either way two runs of the same spec must produce equal hashes.
  if (!out.finalCheckpointPath.empty() && hashFile(out.finalCheckpointPath, &r.artifactHash)) {
    r.artifactSource = "checkpoint";
  } else {
    std::ostringstream os;
    obs::JsonWriter w(os, /*pretty=*/false);
    writeDesignMetricsJson(w, out.metrics);
    const std::string json = os.str();
    r.artifactHash = db::contentHash64(json.data(), json.size());
    r.artifactSource = "metrics";
  }

  r.wallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  *result = r;
  return true;
}

}  // namespace m3d::serve
