#include "flows/flow_common.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/parallel.hpp"
#include "db/codec.hpp"
#include "db/hash.hpp"
#include "db/stage_cache.hpp"
#include "io/fsutil.hpp"
#include "obs/chrome_trace.hpp"

#include "flows/case_study.hpp"
#include "flows/flow_checkpoint.hpp"
#include "lib/macro_projection.hpp"
#include "opt/net_buffering.hpp"

namespace m3d {

namespace {

std::string sanitizeForFilename(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.') {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back('_');
    }
  }
  return out;
}

/// Integer environment knob (M3D_CACHE_MAX_BYTES), with the same
/// malformed-env hardening convention as M3D_THREADS (core/parallel.cpp):
/// a value that fails to parse warns via the logger
/// and leaves the option at its built-in default. Env values only apply
/// while the option still equals its default -- an explicit FlowOptions
/// setting always wins.
bool envLong(const char* name, long minVal, long* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  char* endp = nullptr;
  const long parsed = std::strtol(v, &endp, 10);
  if (endp == v || *endp != '\0' || parsed < minVal) {
    M3D_LOG(warn) << "ignoring invalid " << name << "='" << v << "' (expected an integer >= "
                  << minVal << "); keeping the default";
    return false;
  }
  *out = parsed;
  return true;
}

/// M3D_PLACE_ENGINE override for the global-place engine, with the same
/// malformed-env hardening convention: an unknown engine name warns and
/// keeps the built-in default (b2b). Only applies while the option still
/// equals its default -- an explicit FlowOptions setting always wins.
void applyPlacerEnvOverrides(PlacerOptions& popt) {
  const PlacerOptions defaults;
  if (popt.engine != defaults.engine) return;
  const char* v = std::getenv("M3D_PLACE_ENGINE");
  if (v == nullptr || *v == '\0') return;
  PlaceEngine parsed = PlaceEngine::kB2B;
  if (!parsePlaceEngine(v, parsed)) {
    M3D_LOG(warn) << "ignoring invalid M3D_PLACE_ENGINE='" << v
                  << "' (expected 'b2b' or 'analytic'); keeping the default";
    return;
  }
  popt.engine = parsed;
}

/// Guard for post-route in-place sizing: no re-legalization happens after
/// routing, so a wider master is acceptable only while the cell still fits
/// between its frozen row neighbors, inside the die, and clear of hard
/// blockages. Right limits are snapshotted once -- cells only grow rightward
/// (origin is frozen), so a neighbor's own growth can never reach past its
/// frozen xlo.
std::function<bool(InstId, CellTypeId)> frozenFootprintGuard(const Netlist& nl,
                                                             const Floorplan& fp) {
  std::vector<Dbu> rightLimit(static_cast<std::size_t>(nl.numInstances()), fp.die.xhi);
  std::map<int, std::vector<std::pair<Dbu, InstId>>> byRow;
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const Instance& inst = nl.instance(i);
    if (inst.fixed || nl.cellOf(i).isMacro()) continue;
    const int row = static_cast<int>((inst.pos.y - fp.die.ylo) / fp.rowHeight);
    byRow[row].push_back({inst.pos.x, i});
  }
  for (auto& [row, cells] : byRow) {
    (void)row;
    std::sort(cells.begin(), cells.end());
    for (std::size_t k = 0; k + 1 < cells.size(); ++k) {
      rightLimit[static_cast<std::size_t>(cells[k].second)] = cells[k + 1].first;
    }
  }
  return [&nl, &fp, rightLimit = std::move(rightLimit)](InstId i, CellTypeId newType) {
    const Instance& inst = nl.instance(i);
    if (inst.fixed) return false;
    const CellType& c = nl.library().cell(newType);
    const Rect r{inst.pos.x, inst.pos.y, inst.pos.x + c.width, inst.pos.y + c.height};
    if (r.xhi > rightLimit[static_cast<std::size_t>(i)]) return false;
    if (!fp.die.contains(r)) return false;
    for (const Blockage& b : fp.blockages) {
      if (b.density >= 0.99 && b.rect.overlaps(r)) return false;
    }
    return true;
  };
}

}  // namespace

obs::ScopedRun beginFlowRun(FlowKind kind, const std::string& tileName,
                            const FlowOptions& opt) {
  // Trace export: option wins, M3D_TRACE_OUT is the fallback. A collector
  // already enabled (an outer flow of a multi-flow run) is left alone; a
  // bad path warns and the flow runs untraced -- tracing never aborts.
  std::string tracePath = opt.traceOut;
  if (tracePath.empty()) {
    if (const char* env = std::getenv("M3D_TRACE_OUT")) tracePath = env;
  }
  obs::TraceCollector& trace = obs::TraceCollector::global();
  if (!tracePath.empty() && !trace.enabled()) {
    if (trace.enable(tracePath)) {
      M3D_LOG(info) << "trace: recording to " << tracePath;
    } else {
      M3D_LOG(warn) << "trace: cannot open '" << tracePath
                    << "' for writing; tracing disabled";
    }
  }
  obs::ScopedRun run(flowName(kind), tileName);
  M3D_LOG(info) << "flow start: " << flowName(kind) << " tile=" << tileName;
  return run;
}

void finishFlowRun(FlowOutput& out, const FlowOptions& opt, obs::ScopedRun& run) {
  forEachDesignMetric(out.metrics, [&run](const char* key, const auto& v) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>) {
      run.final(key, static_cast<double>(v));
    }
  });
  out.report = run.finish();

  std::string path = opt.report.jsonPath;
  if (path.empty()) {
    if (const char* dir = std::getenv("M3D_RUN_REPORT_DIR")) {
      path = std::string(dir) + "/run_" + sanitizeForFilename(out.report.flow) + "_" +
             sanitizeForFilename(out.report.tile) + ".json";
    }
  }
  if (!path.empty()) {
    std::string err;
    if (out.report.writeJsonFile(path, &err)) {
      M3D_LOG(info) << "run report written: " << path;
    } else {
      M3D_LOG(error) << "run report write failed: " << err;
    }
  }
  obs::TraceCollector& trace = obs::TraceCollector::global();
  if (trace.enabled() && !trace.externallyManaged()) {
    const std::string tracePath = trace.path();
    const std::size_t events = trace.eventCount();
    const std::size_t dropped = trace.droppedEvents();
    std::string err;
    if (trace.writeFile(&err)) {
      M3D_LOG(info) << "trace written: " << tracePath << " (" << events << " events"
                    << (dropped > 0 ? ", " + std::to_string(dropped) + " dropped" : "")
                    << ")";
    } else {
      M3D_LOG(warn) << "trace write failed: " << err;
    }
  }
  if (opt.report.logSummary) {
    M3D_LOG(info) << "flow end: " << out.report.flow << " tile=" << out.report.tile
                  << " wall_ms=" << out.report.wallMs
                  << " peak_rss_kb=" << out.report.peakRssKb;
    M3D_LOG(debug) << "\n" << out.report.summaryText();
  }
}

void writeDesignMetricsJson(obs::JsonWriter& w, const DesignMetrics& m) {
  w.beginObject();
  forEachDesignMetric(m, [&w](const char* key, const auto& v) {
    w.key(key);
    w.value(v);
  });
  w.endObject();
}

const char* flowName(FlowKind kind) {
  switch (kind) {
    case FlowKind::k2D: return "2D";
    case FlowKind::kS2D: return "MoL S2D";
    case FlowKind::kBfS2D: return "BF S2D";
    case FlowKind::kC2D: return "C2D";
    case FlowKind::kMacro3D: return "Macro-3D";
  }
  return "?";
}

void projectMacroDieMacros(Netlist& nl, Library& lib, const TechNode& tech) {
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    Instance& inst = nl.instance(i);
    if (inst.die != DieId::kMacro) continue;
    const CellType& c = lib.cell(inst.type);
    if (!c.isMacro()) continue;
    const std::string projName = c.name + "_PROJ";
    CellTypeId projId = lib.findCell(projName);
    if (projId == kInvalidCellType) {
      projId = lib.addCell(projectToMacroDie(c, tech));
    }
    nl.resize(i, projId);
  }
}

std::vector<Blockage> compositeBlockages(const std::vector<Rect>& rects, const Rect& die,
                                         Dbu resolution, double densityPerRect) {
  std::vector<Blockage> out;
  if (rects.empty()) return out;
  const GridMapping map(die, resolution);
  Grid2D<float> density(map.nx(), map.ny(), 0.0f);
  for (const Rect& r : rects) {
    const Rect clipped = r.intersection(die);
    if (clipped.isEmpty()) continue;
    const int x0 = map.xIndex(clipped.xlo);
    const int x1 = map.xIndex(clipped.xhi - 1);
    const int y0 = map.yIndex(clipped.ylo);
    const int y1 = map.yIndex(clipped.yhi - 1);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const Rect cell = map.cellRect(x, y);
        const Rect inter = clipped.intersection(cell);
        if (inter.isEmpty() || cell.area() == 0) continue;
        density.at(x, y) += static_cast<float>(
            densityPerRect * static_cast<double>(inter.area()) / static_cast<double>(cell.area()));
      }
    }
  }
  // Emit runs of equal (quantized) density per grid row.
  for (int y = 0; y < map.ny(); ++y) {
    int runStart = -1;
    int runDens = 0;  // quantized to 5% steps
    auto flush = [&](int xEnd) {
      if (runStart < 0 || runDens == 0) return;
      Blockage b;
      const Rect first = map.cellRect(runStart, y);
      const Rect last = map.cellRect(xEnd - 1, y);
      b.rect = Rect{first.xlo, first.ylo, last.xhi, first.yhi};
      b.density = std::min(1.0, runDens / 20.0);
      out.push_back(b);
    };
    for (int x = 0; x < map.nx(); ++x) {
      const int q = std::min(20, static_cast<int>(density.at(x, y) * 20.0f + 0.5f));
      if (q != runDens) {
        flush(x);
        runStart = x;
        runDens = q;
      } else if (runStart < 0) {
        runStart = x;
      }
    }
    flush(map.nx());
  }
  return out;
}

void seedPlacementByModules(Tile& tile, const Floorplan& fp) {
  Netlist& nl = tile.netlist;
  const Point dieCenter = fp.die.center();
  for (const auto& [name, cells] : tile.groups.modules) {
    (void)name;
    // Fixed attachments of this module: macro pins and port positions on
    // nets touching the module's cells.
    std::int64_t sx = 0;
    std::int64_t sy = 0;
    std::int64_t cnt = 0;
    for (InstId i : cells) {
      const Instance& inst = nl.instance(i);
      if (inst.fixed) continue;
      for (const NetId netId : inst.pinNets) {
        if (netId == kInvalidId || nl.net(netId).isClock) continue;
        for (const NetPin& p : nl.net(netId).pins) {
          Point at;
          if (p.kind == NetPin::Kind::kPort) {
            at = nl.port(p.port).pos;
          } else if (nl.instance(p.inst).fixed) {
            at = nl.pinPosition(p);
          } else {
            continue;
          }
          sx += at.x;
          sy += at.y;
          ++cnt;
        }
      }
    }
    const Point seed = cnt > 0 ? Point{sx / cnt, sy / cnt} : dieCenter;
    // Region side from the module's cell area at a moderate target density.
    std::int64_t area = 0;
    std::vector<InstId> movables;
    for (InstId i : cells) {
      const Instance& inst = nl.instance(i);
      if (inst.fixed || nl.cellOf(i).isMacro()) continue;
      area += nl.cellOf(i).substrateArea();
      movables.push_back(i);
    }
    if (movables.empty()) continue;
    // Serpentine order = creation order (the generator's locality metric).
    std::sort(movables.begin(), movables.end());
    const Dbu side = std::max<Dbu>(
        umToDbu(6.0), static_cast<Dbu>(std::sqrt(static_cast<double>(area) / 0.5)));
    // Serpentine fill in creation order: the netlist generator's locality is
    // strongest between instances created close together, so neighbors in
    // creation order become spatial neighbors in the seed.
    const Dbu x0 = seed.x - side / 2;
    const Dbu y0 = seed.y - side / 2;
    const Dbu stripe = std::max<Dbu>(fp.rowHeight, side / 24);
    Dbu cx = 0;
    Dbu cy = 0;
    bool leftToRight = true;
    const double pitch = static_cast<double>(side) * static_cast<double>(stripe) /
                         (static_cast<double>(area) / 0.5);
    for (InstId i : movables) {
      Instance& inst = nl.instance(i);
      const Dbu step = static_cast<Dbu>(
          static_cast<double>(nl.cellOf(i).substrateArea()) / static_cast<double>(stripe) /
          0.5);
      (void)pitch;
      const Dbu px = leftToRight ? cx : side - cx;
      inst.pos = fp.die.clamp(Point{x0 + px, y0 + cy});
      cx += std::max<Dbu>(step, fp.siteWidth);
      if (cx >= side) {
        cx = 0;
        cy += stripe;
        leftToRight = !leftToRight;
        if (cy >= side) cy = 0;  // wrap (slight overfill)
      }
    }
  }
}

FlowOptions resolveFlowOptions(const FlowOptions& optIn) {
  // Fan the flow-wide thread knob into every stage option still at "auto"
  // (stage-specific overrides win).
  FlowOptions opt = optIn;
  if (opt.placer.numThreads == 0) opt.placer.numThreads = opt.numThreads;
  if (opt.router.numThreads == 0) opt.router.numThreads = opt.numThreads;
  if (opt.optBase.numThreads == 0) opt.optBase.numThreads = opt.numThreads;
  applyPlacerEnvOverrides(opt.placer);
  return opt;
}

MaxFreqOptResult optimizeForTimingGoal(Netlist& nl, std::vector<NetParasitics>& paras,
                                       ParasiticsProvider& provider, const ClockModel* clock,
                                       OptimizerOptions base, const FlowOptions& opt) {
  if (opt.maxPerformance) {
    return optimizeForMaxFrequency(nl, paras, provider, clock, std::move(base),
                                   opt.maxFreqRounds);
  }
  base.targetPeriod = opt.targetPeriodNs * 1e-9;
  const OptimizeResult res = optimizeTiming(nl, paras, provider, clock, base);
  MaxFreqOptResult r;
  r.cellsResized = res.cellsResized;
  r.buffersInserted = res.buffersInserted;
  return r;
}

namespace {

using db::HashStream;

// --- The pipeline stages -----------------------------------------------------
// Each body reads the flow state left by the stages before it plus the
// options its table entry (below) hashes.

/// Seeding, global placement and repeater insertion -- or, for a pseudo
/// flow's inherited placement, only its overlap-fix legalization.
void runPlace(FlowOutput& out, const FlowOptions& opt, const PipelineFlags& flags,
              std::ostringstream& trace, obs::ScopedPhase& phase) {
  Netlist& nl = out.tile->netlist;
  if (flags.inheritPlacement) {
    const LegalizeResult lr = legalize(nl, out.fp);
    out.metrics.legalizeAvgDispUm = displayUm(lr.avgDisplacementUm);
    out.metrics.placeHpwlMm = displayMm(dbuToUm(static_cast<Dbu>(nl.totalHpwl())));
    obs::series("place.hpwl").record(dbuToUm(static_cast<Dbu>(nl.totalHpwl())));
    phase.attr("hpwl_mm", out.metrics.placeHpwlMm);
    phase.attr("overlap_fix_disp_um", out.metrics.legalizeAvgDispUm);
    trace << "overlap-fix legalize: avg_disp_um=" << out.metrics.legalizeAvgDispUm
          << " max_disp_um=" << displayUm(lr.maxDisplacementUm) << " fail=" << lr.failedCells
          << "\n";
    M3D_LOG(info) << "place done (overlap-fix): avg_disp_um="
                  << out.metrics.legalizeAvgDispUm << " legal_fail=" << lr.failedCells;
    return;
  }
  seedPlacementByModules(*out.tile, out.fp);
  PlacerOptions popt = opt.placer;
  popt.useExistingPositions = true;
  const PlaceResult pr = globalPlace(nl, out.fp, popt);
  out.metrics.placeHpwlMm = displayMm(pr.hpwlUm);
  out.metrics.legalizeAvgDispUm = displayUm(pr.legal.avgDisplacementUm);
  out.metrics.placeEngine = placeEngineName(pr.engine);
  out.metrics.placeOverflow = pr.overflow;
  out.metrics.placeIterations = pr.iterations;
  phase.attr("hpwl_mm", out.metrics.placeHpwlMm);
  phase.attr("iterations", pr.iterations);
  phase.attr("overflow", pr.overflow);
  trace << "place: engine=" << out.metrics.placeEngine
        << " hpwl_mm=" << out.metrics.placeHpwlMm
        << " overflow=" << pr.overflow
        << " legal_fail=" << pr.legal.failedCells << "\n";
  M3D_LOG(info) << "place done: engine=" << out.metrics.placeEngine
                << " hpwl_mm=" << out.metrics.placeHpwlMm
                << " overflow=" << pr.overflow
                << " iters=" << pr.iterations << " legal_fail=" << pr.legal.failedCells;
  // Global repeater insertion belongs to the placement stage.
  obs::ScopedPhase repeaters("place.repeaters");
  const NetBufferingResult nb = bufferLongNets(nl, out.fp);
  out.metrics.buffersInserted += nb.buffersInserted;
  obs::counter("place.repeaters_inserted").add(nb.buffersInserted);
  const LegalizeResult lr = legalize(nl, out.fp);
  trace << "repeaters: inserted=" << nb.buffersInserted << " legal_fail=" << lr.failedCells
        << "\n";
  M3D_LOG(info) << "repeaters inserted=" << nb.buffersInserted
                << " legal_fail=" << lr.failedCells;
}

/// Pre-route optimization on estimated parasitics.
void runPreRouteOpt(FlowOutput& out, const FlowOptions& opt, const PipelineFlags& flags,
                    std::ostringstream& trace, obs::ScopedPhase& phase) {
  if (!flags.preRouteOpt) {
    M3D_LOG(debug) << "pre-route opt skipped";
    return;
  }
  Netlist& nl = out.tile->netlist;
  const EstimationOptions eopt = makeEstimationOptions(out.routingBeol);
  EstimatedParasitics provider(eopt);
  out.paras = estimateDesign(nl, eopt);
  const int presized = presizeForLoad(nl, out.paras, provider);
  trace << "presize: resized=" << presized << "\n";
  MaxFreqOptResult r = optimizeForTimingGoal(nl, out.paras, provider, nullptr, opt.optBase, opt);
  if (!opt.maxPerformance) {
    // A fixed target does not probe the achievable period; the trace reports it.
    r.minPeriod = Sta(nl, out.paras, nullptr, kTypicalCorner, opt.numThreads).findMinPeriod();
  }
  out.metrics.cellsResized += r.cellsResized;
  out.metrics.buffersInserted += r.buffersInserted;
  phase.attr("cells_resized", r.cellsResized);
  phase.attr("buffers_inserted", r.buffersInserted);
  trace << "pre-route opt: resized=" << r.cellsResized << " buffers=" << r.buffersInserted
        << " est_minT_ns=" << r.minPeriod * 1e9 << "\n";
  M3D_LOG(info) << "pre-route opt done: resized=" << r.cellsResized
                << " buffers=" << r.buffersInserted << " est_minT_ns=" << r.minPeriod * 1e9;
  // Inserted buffers need legal positions.
  const LegalizeResult lr = legalize(nl, out.fp);
  if (lr.failedCells > 0) {
    trace << "WARN pre-route-opt legalize fail=" << lr.failedCells << "\n";
    M3D_LOG(warn) << "pre-route-opt legalize fail=" << lr.failedCells;
  }
}

/// Clock tree synthesis.
void runCts(FlowOutput& out, const FlowOptions& opt, const PipelineFlags&,
            std::ostringstream& trace, obs::ScopedPhase& phase) {
  Netlist& nl = out.tile->netlist;
  out.cts = synthesizeClockTree(nl, out.tile->groups.clockNet, out.fp, opt.cts);
  legalize(nl, out.fp);
  // The pre-route estimate no longer fits the netlist (new buffer nets, a
  // split clock net) and nothing reads it before extraction replaces it.
  out.paras.clear();
  phase.attr("sinks", out.cts.numSinks);
  phase.attr("buffers", static_cast<double>(out.cts.buffers.size()));
  phase.attr("depth", out.cts.maxDepth);
  trace << "cts: sinks=" << out.cts.numSinks << " buffers=" << out.cts.buffers.size()
        << " depth=" << out.cts.maxDepth << "\n";
  M3D_LOG(info) << "cts done: sinks=" << out.cts.numSinks
                << " buffers=" << out.cts.buffers.size() << " depth=" << out.cts.maxDepth;
}

/// Routing: builds out.grid, then a full route or an incremental ECO
/// reroute seeded from a prior run's checkpoint.
void runRoute(FlowOutput& out, const FlowOptions& opt, const PipelineFlags&,
              std::ostringstream& trace, obs::ScopedPhase& phase) {
  const Netlist& nl = out.tile->netlist;
  out.grid = std::make_unique<RouteGrid>(nl, out.fp.die, out.routingBeol, opt.grid);
  // Any load/compat failure of the ECO seed degrades to a full route.
  bool ecoRouted = false;
  if (!opt.ecoRouteFrom.empty()) {
    FlowOutput prevOut;
    db::DbStatus st;
    {
      obs::ScopedPhase restore("db.restore");
      st = loadFlowCheckpoint(opt.ecoRouteFrom, prevOut);
    }
    if (st.ok() && prevOut.tile != nullptr && !prevOut.routes.nets.empty()) {
      const RouteGrid prevGrid(prevOut.tile->netlist, prevOut.fp.die, prevOut.routingBeol,
                               opt.grid);
      out.routes = routeDesignEco(nl, *out.grid, prevGrid, prevOut.routes, opt.router);
      ecoRouted = true;
      phase.attr("eco_nets_ripped", static_cast<double>(out.routes.ecoNetsRipped));
      phase.attr("eco_nets_reused", static_cast<double>(out.routes.ecoNetsReused));
      // The seed's file name is its content key; its directory must not
      // reach the checkpointed trace (and through it the artifact hash).
      trace << "eco route: seed=" << std::filesystem::path(opt.ecoRouteFrom).filename().string()
            << " ripped=" << out.routes.ecoNetsRipped
            << " reused=" << out.routes.ecoNetsReused
            << " dirty_gcells=" << out.routes.ecoDirtyGcells << "\n";
      M3D_LOG(info) << "eco route: ripped=" << out.routes.ecoNetsRipped << " reused="
                    << out.routes.ecoNetsReused << " of "
                    << (out.routes.ecoNetsRipped + out.routes.ecoNetsReused) << " nets";
    } else {
      M3D_LOG(warn) << "eco route: cannot seed from '" << opt.ecoRouteFrom << "' ("
                    << (st.ok() ? "checkpoint lacks routes" : st.detail)
                    << "); running a full route";
    }
  }
  if (!ecoRouted) out.routes = routeDesign(nl, *out.grid, opt.router);
  phase.attr("wl_m", displayM(out.routes.totalWirelengthUm));
  phase.attr("f2f_bumps", static_cast<double>(out.routes.f2fBumps));
  phase.attr("overflow_edges", out.routes.overflowedEdges);
  phase.attr("unrouted", out.routes.unroutedNets);
  trace << "route: wl_m=" << displayM(out.routes.totalWirelengthUm)
        << " f2f=" << out.routes.f2fBumps << " overflow=" << out.routes.overflowedEdges
        << " unrouted=" << out.routes.unroutedNets << "\n";
  M3D_LOG(info) << "route done: wl_m=" << displayM(out.routes.totalWirelengthUm)
                << " f2f=" << out.routes.f2fBumps
                << " overflow=" << out.routes.overflowedEdges
                << " unrouted=" << out.routes.unroutedNets;
}

/// Extraction + clock model.
void runExtract(FlowOutput& out, const FlowOptions&, const PipelineFlags&,
                std::ostringstream& trace, obs::ScopedPhase& phase) {
  const Netlist& nl = out.tile->netlist;
  {
    obs::ScopedPhase netsPhase("extract.nets");
    out.paras = extractDesign(nl, *out.grid, out.routes);
  }
  {
    obs::ScopedPhase clockPhase("extract.clock");
    out.clock = updateClockModel(nl, out.paras, out.cts);
  }
  phase.attr("nets", nl.numNets());
  phase.attr("clock_latency_ps", out.clock.maxLatency * 1e12);
  trace << "clock: latency_ps=" << out.clock.maxLatency * 1e12
        << " skew_ps=" << out.clock.skew * 1e12 << "\n";
  M3D_LOG(info) << "extract done: nets=" << nl.numNets()
                << " clock_latency_ps=" << out.clock.maxLatency * 1e12
                << " skew_ps=" << out.clock.skew * 1e12;
}

/// Post-route sizing on routed parasitics (placement is frozen).
void runPostRouteOpt(FlowOutput& out, const FlowOptions& opt, const PipelineFlags& flags,
                     std::ostringstream& trace, obs::ScopedPhase& phase) {
  if (!flags.postRouteOpt) {
    M3D_LOG(debug) << "post-route opt skipped";
    return;
  }
  Netlist& nl = out.tile->netlist;
  RoutedParasitics provider(*out.grid, out.routes);
  // Placement is frozen from here on: sizing must not create overlaps.
  OptimizerOptions guarded = opt.optBase;
  guarded.resizeGuard = frozenFootprintGuard(nl, out.fp);
  const int presized = presizeForLoad(nl, out.paras, provider, 130e-12, guarded.resizeGuard);
  trace << "post-route presize: resized=" << presized << "\n";
  const MaxFreqOptResult r =
      optimizeForTimingGoal(nl, out.paras, provider, &out.clock, guarded, opt);
  out.metrics.cellsResized += r.cellsResized;
  out.metrics.buffersInserted += r.buffersInserted;
  phase.attr("cells_resized", r.cellsResized);
  trace << "post-route opt: resized=" << r.cellsResized << "\n";
  M3D_LOG(info) << "post-route opt done: resized=" << r.cellsResized;
}

/// Sum of substrate areas of placed standard cells (excl. macros/fillers).
std::int64_t logicCellArea(const Netlist& nl) {
  std::int64_t area = 0;
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const CellType& c = nl.cellOf(i);
    if (c.isMacro() || c.cls == CellClass::kFiller) continue;
    area += c.substrateArea();
  }
  return area;
}

/// Sign-off STA + power, then independent physical verification.
void runSignoff(FlowOutput& out, const FlowOptions& opt, const PipelineFlags&,
                std::ostringstream& trace, obs::ScopedPhase& phase) {
  const Netlist& nl = out.tile->netlist;
  double minPeriod = 0.0;
  double signoffPeriod = 0.0;
  TimingReport rep;
  {
    obs::ScopedPhase staPhase("signoff.sta");
    Sta sta(nl, out.paras, &out.clock, opt.signoffCorner, opt.numThreads);
    minPeriod = sta.findMinPeriod();
    if (!std::isfinite(minPeriod)) {
      // No feasible period (see Sta::kInfeasiblePeriod): report at the target
      // instead of poisoning the metrics JSON with inf.
      M3D_LOG(warn) << "signoff: no feasible period; reporting timing at the target period";
      trace << "WARN signoff: no feasible period\n";
      minPeriod = opt.targetPeriodNs * 1e-9;
    }
    signoffPeriod =
        opt.maxPerformance ? minPeriod : std::max(minPeriod, opt.targetPeriodNs * 1e-9);
    rep = sta.analyze(signoffPeriod);
  }
  const double freq = 1.0 / signoffPeriod;
  PowerReport pwr;
  {
    obs::ScopedPhase powerPhase("signoff.power");
    pwr = analyzePower(nl, out.paras, out.logicTech.vdd, freq);
  }

  DesignMetrics& m = out.metrics;
  m.fclkMhz = freq * 1e-6;
  m.minPeriodNs = minPeriod * 1e9;
  m.emeanFj = pwr.energyPerCycle * 1e15;
  m.powerMw = pwr.totalW * 1e3;
  m.logicCellAreaMm2 = displayMm2(dbu2ToUm2(logicCellArea(nl)));
  m.totalWirelengthM = displayM(out.routes.totalWirelengthUm);
  m.wirelengthLogicDieM =
      displayM(out.routes.wirelengthOfDieUm(out.routingBeol, DieId::kLogic));
  m.wirelengthMacroDieM =
      displayM(out.routes.wirelengthOfDieUm(out.routingBeol, DieId::kMacro));
  m.f2fBumps = out.routes.f2fBumps;
  m.cpinNf = fToNf(pwr.caps.pinCapTotal);
  m.cwireNf = fToNf(pwr.caps.wireCapTotal);
  m.clockTreeDepth = out.clock.maxTreeDepth;
  m.clockSkewPs = out.clock.skew * 1e12;
  m.critPathWirelengthMm = displayMm(rep.critPathWirelengthUm);
  m.overflowedEdges = out.routes.overflowedEdges;
  m.unroutedNets = out.routes.unroutedNets;
  phase.attr("fclk_mhz", m.fclkMhz);
  phase.attr("emean_fj", m.emeanFj);
  obs::gauge("signoff.fclk_mhz").set(m.fclkMhz);
  obs::gauge("signoff.emean_fj").set(m.emeanFj);
  trace << "signoff: fclk_MHz=" << m.fclkMhz << " Emean_fJ=" << m.emeanFj
        << " critWL_mm=" << m.critPathWirelengthMm << "\n";
  M3D_LOG(info) << "signoff done: fclk_MHz=" << m.fclkMhz << " Emean_fJ=" << m.emeanFj
                << " critWL_mm=" << m.critPathWirelengthMm;

  if (!opt.signoff) return;
  obs::ScopedPhase verifyPhase("verify");
  VerifyOptions vopt = opt.verify;
  if (vopt.numThreads == 0) vopt.numThreads = opt.numThreads;
  out.verify = verifyDesign(nl, out.fp, *out.grid, out.routes, vopt);
  m.verifyViolations = static_cast<int>(out.verify.errors);
  m.verifyWarnings = static_cast<int>(out.verify.warnings);
  m.f2fBumpCount = out.verify.f2fBumpCount;
  verifyPhase.attr("errors", static_cast<double>(out.verify.errors));
  verifyPhase.attr("warnings", static_cast<double>(out.verify.warnings));
  verifyPhase.attr("f2f_bumps", static_cast<double>(out.verify.f2fBumpCount));
  trace << "verify: " << out.verify.verdictLine() << "\n";
  M3D_LOG(info) << "signoff verdict: " << out.verify.verdictLine();
}

/// The timing goal optimizeForTimingGoal reads; signoff reports at it too.
void hashTimingGoal(HashStream& h, const FlowOptions& opt) {
  h.b(opt.maxPerformance);
  h.f64(opt.targetPeriodNs);
  h.i32(opt.maxFreqRounds);
}

/// One pipeline stage: its name, its cache key and its body. The key hashes
/// exactly what the body reads beyond what the chain already covers -- the
/// pipeline entry state (the root hash) and every earlier stage's inputs
/// (the previous key). Thread counts never enter a key: results are
/// bit-identical at any count.
struct PipelineStage {
  const char* name;
  void (*key)(HashStream& h, const FlowOutput& out, const FlowOptions& opt,
              const PipelineFlags& flags);
  void (*body)(FlowOutput& out, const FlowOptions& opt, const PipelineFlags& flags,
               std::ostringstream& trace, obs::ScopedPhase& phase);
};

constexpr PipelineStage kPipeline[] = {
    {"place",
     [](HashStream& h, const FlowOutput&, const FlowOptions& opt, const PipelineFlags& flags) {
       h.b(flags.inheritPlacement);
       h.str(placeEngineName(opt.placer.engine));
       h.i32(opt.placer.maxIters);
       h.f64(opt.placer.legalizer.cellWidthScale);
     },
     runPlace},
    {"pre_route_opt",
     [](HashStream& h, const FlowOutput& out, const FlowOptions& opt,
        const PipelineFlags& flags) {
       h.b(flags.preRouteOpt);
       if (!flags.preRouteOpt) return;
       const EstimationOptions eopt = makeEstimationOptions(out.routingBeol);
       h.f64(eopt.rPerUm);
       h.f64(eopt.cPerUm);
       hashTimingGoal(h, opt);
       h.i32(opt.optBase.maxPasses);
     },
     runPreRouteOpt},
    {"cts",
     [](HashStream& h, const FlowOutput&, const FlowOptions& opt, const PipelineFlags&) {
       h.i32(opt.cts.maxSinksPerLeaf);
     },
     runCts},
    // The full BEOL first enters the chain here: a bump-pitch or macro-die
    // stack change re-keys route and everything after it, nothing above.
    {"route",
     [](HashStream& h, const FlowOutput& out, const FlowOptions& opt, const PipelineFlags&) {
       h.u64(db::contentHash(out.routingBeol));
       h.f64(opt.grid.trackUtilization);
       h.f64(opt.grid.m1Utilization);
       h.i32(opt.router.maxIterations);
       h.f64(opt.router.f2fViaCost);
       h.i32(opt.router.batchSize);
       h.i32(opt.router.searchHaloGcells);
       // The ECO seed's routes are a route input, so its content enters the
       // key (an unreadable path hashes as the path: the stage then warns
       // and runs a full route).
       h.b(!opt.ecoRouteFrom.empty());
       if (opt.ecoRouteFrom.empty()) return;
       std::vector<std::uint8_t> bytes;
       if (io::readFileBytes(opt.ecoRouteFrom, bytes)) {
         h.u64(db::contentHash64(bytes.data(), bytes.size()));
       } else {
         h.str(opt.ecoRouteFrom);
       }
     },
     runRoute},
    // A pure function of the routes and the BEOL, both already in the chain.
    {"extract",
     [](HashStream&, const FlowOutput&, const FlowOptions&, const PipelineFlags&) {},
     runExtract},
    {"post_route_opt",
     [](HashStream& h, const FlowOutput&, const FlowOptions& opt, const PipelineFlags& flags) {
       h.b(flags.postRouteOpt);
       if (!flags.postRouteOpt) return;
       hashTimingGoal(h, opt);
       // The stage installs its own resizeGuard, from state already in the chain.
       h.i32(opt.optBase.maxPasses);
     },
     runPostRouteOpt},
    {"signoff",
     [](HashStream& h, const FlowOutput& out, const FlowOptions& opt, const PipelineFlags&) {
       h.str(opt.signoffCorner.name == nullptr ? "" : opt.signoffCorner.name);
       h.f64(opt.signoffCorner.delayDerate);
       hashTimingGoal(h, opt);
       h.f64(out.logicTech.vdd);
       h.b(opt.signoff);
       h.b(opt.verify.drc);
       h.b(opt.verify.connectivity);
       h.b(opt.verify.placement);
       h.b(opt.verify.f2f);
     },
     runSignoff},
};
constexpr int kNumStages = static_cast<int>(std::size(kPipeline));
/// The stage that builds out.grid: a restore at or past it rebuilds the grid.
constexpr int kRouteStage = 3;

static_assert(
    [] {
      if (std::size(kPipeline) != std::size(kPipelineStageNames)) return false;
      for (std::size_t i = 0; i < std::size(kPipeline); ++i) {
        if (std::string_view(kPipeline[i].name) != kPipelineStageNames[i]) return false;
      }
      return std::string_view(kPipeline[kRouteStage].name) == "route";
    }(),
    "kPipeline must list the stages of kPipelineStageNames, in order");

/// Restores the deepest stage the cache holds (scanning from signoff down)
/// into \p out and appends its checkpointed step log to \p trace. Returns
/// the number of leading stages restored: 0 on a miss, and on a failed
/// restore, whose corrupt entry is dropped so this run's recompute
/// re-publishes a good copy (the single-winner publish would otherwise keep
/// skipping the existing bytes, shadowing the key with garbage forever).
int restoreCachedPrefix(db::StageCache& cache, const std::array<std::uint64_t, 7>& keys,
                        FlowOutput& out, const FlowOptions& opt, std::ostringstream& trace) {
  int deepest = kNumStages - 1;
  while (deepest >= 0 && !cache.has(deepest, kPipeline[deepest].name, keys[deepest])) --deepest;
  if (deepest < 0) return 0;
  obs::ScopedPhase span("db.restore");
  const std::string path = cache.path(deepest, kPipeline[deepest].name, keys[deepest]);
  std::string restoredTrace;
  const db::DbStatus st = restoreStageCheckpoint(path, out, restoredTrace);
  if (!st.ok()) {
    obs::counter("db.stage_cache_restore_failures").add(1);
    M3D_LOG(warn) << "stage cache: restore failed (" << db::dbErrorName(st.error) << ": "
                  << st.detail << "); recomputing from scratch";
    cache.removeEntry(path);
    return 0;
  }
  trace << restoredTrace;
  obs::counter("db.stage_cache_hits").add(deepest + 1);
  cache.noteUsed(path);  // LRU touch
  if (const std::int64_t bytes = io::fileSizeBytes(path); bytes > 0) {
    obs::counter("db.stage_cache_bytes_read").add(bytes);
  }
  M3D_LOG(info) << "stage cache: restored through '" << kPipeline[deepest].name << "' from "
                << path;
  if (deepest >= kRouteStage) {
    // The RouteGrid is rebuilt, never serialized: it is a pure function of
    // the fixed macros, die, BEOL and grid options, and post-route sizing
    // only touches non-fixed cells, so the rebuild is bit-identical to the
    // grid the routes were committed on.
    out.grid =
        std::make_unique<RouteGrid>(out.tile->netlist, out.fp.die, out.routingBeol, opt.grid);
  }
  return deepest + 1;
}

/// Publishes a stage checkpoint. Single winner: when a concurrent job
/// already published this key (entries are content-addressed and the flows
/// deterministic, so the bytes are identical), the write is skipped and
/// the entry's LRU slot touched.
void publishCheckpoint(db::StageCache& cache, const std::string& path, const FlowOutput& out,
                       const std::string& trace, int stageIdx, std::uint64_t key) {
  obs::ScopedPhase span("db.save");
  if (io::fileExists(path)) {
    cache.noteUsed(path);
    return;
  }
  const db::DbStatus st = saveStageCheckpoint(out, trace, stageIdx, key, path);
  if (!st.ok()) {
    M3D_LOG(warn) << "stage cache: checkpoint write failed (" << db::dbErrorName(st.error)
                  << ": " << st.detail << ")";
    return;
  }
  obs::counter("db.stage_checkpoints_written").add(1);
  if (const std::int64_t bytes = io::fileSizeBytes(path); bytes > 0) {
    obs::counter("db.stage_cache_bytes_written").add(bytes);
  }
  cache.noteStored(path);  // LRU eviction under the budget
}

}  // namespace

std::array<std::uint64_t, 7> computeStageKeys(const FlowOutput& out, const FlowOptions& opt,
                                              const PipelineFlags& flags) {
  // Root: the pipeline entry state every stage transitively depends on.
  HashStream root;
  root.u32(kStageKeyVersion);
  root.u64(db::contentHash(*out.lib));
  root.u64(db::contentHash(out.tile->netlist));
  root.u64(db::contentHash(out.fp));
  root.u64(db::contentHash(out.tile->groups));
  std::array<std::uint64_t, 7> keys{};
  std::uint64_t prev = root.digest();
  for (int i = 0; i < kNumStages; ++i) {
    HashStream h;
    h.u64(prev);
    h.str(kPipeline[i].name);
    kPipeline[i].key(h, out, opt, flags);
    keys[i] = prev = h.digest();
  }
  return keys;
}

void runPnrPipeline(FlowOutput& out, const FlowOptions& optIn, const PipelineFlags& flags,
                    std::ostringstream& callerTrace) {
  // Resolved before the stage keys are computed: the keys hash the
  // effective knobs. Report the resolved thread count once so run reports
  // record what the machine actually used.
  const FlowOptions opt = resolveFlowOptions(optIn);
  obs::gauge("parallel.threads").set(static_cast<double>(par::resolveThreads(opt.numThreads)));

  // Stage cache: content keys are computed once at pipeline entry; with
  // resume enabled, the longest cached prefix is restored from disk and the
  // remaining stages run as usual, saving their own checkpoints.
  std::string cacheDir = opt.checkpointDir;
  if (cacheDir.empty()) {
    if (const char* env = std::getenv("M3D_CHECKPOINT_DIR")) cacheDir = env;
  }
  db::StageCacheOptions cacheOpt;
  cacheOpt.maxBytes = opt.cacheMaxBytes;
  if (cacheOpt.maxBytes == 0) {
    long budget = 0;
    if (envLong("M3D_CACHE_MAX_BYTES", 0, &budget)) cacheOpt.maxBytes = budget;
  }
  db::StageCache cache(cacheDir, opt.resume, cacheOpt);
  std::array<std::uint64_t, 7> keys{};
  const auto pathOf = [&](int i) { return cache.path(i, kPipeline[i].name, keys[i]); };

  // Pipeline-local trace: checkpointed with each stage, so a restored run
  // replays the exact step log the cold run produced; appended to the
  // caller's trace when the pipeline finishes.
  std::ostringstream trace;
  int restored = 0;  // leading stages restored from the cache
  if (cache.enabled()) {
    {
      obs::ScopedPhase span("db.keys");
      keys = computeStageKeys(out, opt, flags);
    }
    out.finalCheckpointPath = pathOf(kNumStages - 1);
    if (cache.resumeEnabled()) restored = restoreCachedPrefix(cache, keys, out, opt, trace);
    obs::counter("db.stage_cache_misses").add(kNumStages - restored);
  }
  out.cacheRestoredStages = restored;

  // One span per stage, for every flow: restored and skipped stages still
  // open theirs, so run reports compare across flows and cache states.
  for (int i = 0; i < kNumStages; ++i) {
    const PipelineStage& stage = kPipeline[i];
    obs::ScopedPhase phase(stage.name);
    if (cache.enabled()) phase.attr("cache_hit", i < restored ? 1.0 : 0.0);
    if (i < restored) continue;
    stage.body(out, opt, flags, trace, phase);
    if (cache.enabled()) {
      publishCheckpoint(cache, pathOf(i), out, trace.str(), i, keys[i]);
    }
  }
  callerTrace << trace.str();
}

}  // namespace m3d
