#pragma once

/// \file flow_common.hpp
/// Shared flow machinery: options, metrics, the common P&R pipeline
/// (place -> pre-route opt -> CTS -> route -> extract -> post-route opt ->
/// sign-off STA/power), and helpers used by the individual flows.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cts/cts.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/run_report.hpp"
#include "extract/extraction.hpp"
#include "floorplan/floorplan.hpp"
#include "netlist/openpiton.hpp"
#include "opt/optimizer.hpp"
#include "place/placer.hpp"
#include "power/power.hpp"
#include "route/router.hpp"
#include "sta/sta.hpp"
#include "tech/combined_beol.hpp"
#include "verify/verify.hpp"

namespace m3d {

enum class FlowKind { k2D, kS2D, kBfS2D, kC2D, kMacro3D };
const char* flowName(FlowKind kind);

/// Canonical names of the seven pipeline stages. runPnrPipeline opens one
/// span per stage, in this order, for every flow -- stages a flow skips
/// still appear (with near-zero duration) so run reports are uniformly
/// comparable across flows.
inline constexpr const char* kPipelineStageNames[7] = {
    "place", "pre_route_opt", "cts", "route", "extract", "post_route_opt", "signoff"};

/// Run-report emission knobs.
struct ReportOptions {
  /// Write the RunReport JSON here after the flow ("" = no file unless the
  /// M3D_RUN_REPORT_DIR environment variable names a directory, in which
  /// case <dir>/run_<flow>_<tile>.json is written).
  std::string jsonPath;
  /// Log the phase/metric summary at info level when the flow ends.
  bool logSummary = true;
};

struct FlowOptions {
  /// Max-performance mode (paper Tables I-III) vs iso-performance mode
  /// (optimize to a fixed target period; used for the power comparison).
  bool maxPerformance = true;
  double targetPeriodNs = 3.05;  ///< used when maxPerformance == false.

  int macroDieMetals = 6;        ///< Table III knob: 6 (M6-M6) or 4 (M6-M4).
  MacroDieStackOrder stackOrder = MacroDieStackOrder::kFlipped;
  /// Sign-off corner for the final STA (paper signs off at the slowest
  /// corner; the default keeps typical so all flows stay comparable --
  /// switch to kSlowCorner to model the paper's setup; power is always
  /// reported at typical).
  Corner signoffCorner = kTypicalCorner;

  /// Flow-wide thread count (0 = auto: M3D_THREADS env, else
  /// hardware_concurrency; 1 = fully sequential). Fanned into every stage
  /// knob (placer/router/optimizer/STA) still at its "auto" default, so one
  /// option drives the whole pipeline. Every parallel stage is
  /// deterministic: results are bit-identical at any thread count.
  int numThreads = 0;

  /// Run the independent physical-verification engine as part of the
  /// signoff stage and emit a verdict (FlowOutput::verify, DesignMetrics).
  bool signoff = true;
  VerifyOptions verify;

  /// Directory of the design-database stage cache ("" = disabled; the
  /// M3D_CHECKPOINT_DIR environment variable supplies a default when
  /// empty). When set, runPnrPipeline writes one .m3ddb checkpoint per
  /// completed stage, keyed by a content hash of the stage's inputs and
  /// the FlowOptions subset it reads (see flows/flow_checkpoint.hpp).
  std::string checkpointDir;
  /// --resume semantics: with the stage cache enabled, restore the longest
  /// cached prefix of the pipeline from disk instead of recomputing it.
  /// false warms the cache without reading it (forced cold run). Restored
  /// results are bit-identical to recomputation — keys capture every
  /// input, and thread counts never enter them.
  bool resume = true;
  /// Byte budget of the stage-cache directory (0 = unbounded; the
  /// M3D_CACHE_MAX_BYTES environment variable supplies a default when 0).
  /// Over budget, publishing a checkpoint evicts least-recently-used
  /// entries under the cache's cross-process file lock — the knob that
  /// keeps a long-lived m3d_serve cache bounded. Never affects results:
  /// an evicted entry is just a future miss.
  std::int64_t cacheMaxBytes = 0;

  /// F2F bond-layer via specification used by the 3D flows when building
  /// the combined BEOL. The ECO knob for bump-pitch studies: changing
  /// f2fVia.pitch re-keys only the route stage and downstream, so a warm
  /// cache replays place/pre_route_opt/cts and re-runs the rest.
  F2fViaSpec f2fVia;

  /// Incremental ECO routing seed: path of a stage checkpoint (.m3ddb, at
  /// least the route stage) from a *previous* run of this design. When set,
  /// the route stage loads that checkpoint, diffs its grid capacities against
  /// the current ones, and reroutes only the dirtied nets via
  /// routeDesignEco -- every untouched route is reused byte-identically.
  /// An unreadable or incompatible seed warns and falls back to a full
  /// route; it never aborts the flow.
  std::string ecoRouteFrom;

  PlacerOptions placer;
  CtsOptions cts;
  RouteGridOptions grid;
  RouterOptions router;
  OptimizerOptions optBase;
  int maxFreqRounds = 4;
  bool preRouteOpt = true;
  bool postRouteOpt = true;
  /// Ablation knob: give the pseudo flows (S2D/BF-S2D/C2D) a post-route
  /// sizing pass they do not have in the paper's methodology.
  bool pseudoPostRouteOpt = false;
  /// F2F via cost used when routing a pseudo flow's final design: prior
  /// flows plan F2F vias in a separate step without the global router's
  /// crossing economy, modeled as a cheap crossing. Raise toward
  /// RouterOptions::f2fViaCost to grant S2D/C2D the router's bump economy
  /// (ablation).
  double s2dF2fPlanningCost = 0.8;

  Dbu macroHalo = umToDbu(1.0);
  /// Stripe resolution for partial blockages in S2D/C2D pseudo designs.
  Dbu partialBlockageResolution = umToDbu(8.0);

  ReportOptions report;

  /// Chrome Trace Event JSON output path ("" = no trace unless the
  /// M3D_TRACE_OUT environment variable names one). When set, the whole
  /// run's span tree plus the thread pool's per-worker task tracks and the
  /// metric series (as counter tracks) are written here at flow end;
  /// loadable in Perfetto / chrome://tracing. An unwritable path warns and
  /// disables tracing -- it never aborts the flow. Tracing does not change
  /// any design result: traced and untraced runs are bit-identical.
  std::string traceOut;
};

/// Metrics of one implemented design (paper-scale display units).
struct DesignMetrics {
  std::string flow;
  std::string tileName;

  double fclkMhz = 0.0;
  double minPeriodNs = 0.0;
  double emeanFj = 0.0;            ///< energy per cycle [fJ].
  double powerMw = 0.0;
  double footprintMm2 = 0.0;       ///< per-die footprint (display scale).
  double logicCellAreaMm2 = 0.0;
  double totalWirelengthM = 0.0;
  double wirelengthLogicDieM = 0.0;
  double wirelengthMacroDieM = 0.0;
  std::int64_t f2fBumps = 0;
  double cpinNf = 0.0;
  double cwireNf = 0.0;
  int clockTreeDepth = 0;
  double clockSkewPs = 0.0;
  double critPathWirelengthMm = 0.0;
  double metalAreaMm2 = 0.0;       ///< footprint x metal layer count.

  // Implementation health / diagnostics.
  int overflowedEdges = 0;
  int unroutedNets = 0;
  /// Error-grade signoff violations (-1 = verification not run).
  int verifyViolations = -1;
  /// Warning-grade signoff findings (-1 = verification not run).
  int verifyWarnings = -1;
  /// F2F bump count independently recomputed by the verifier
  /// (-1 = not run; cross-check against f2fBumps for Table IV).
  std::int64_t f2fBumpCount = -1;
  double legalizeAvgDispUm = 0.0;  ///< displacement of the overlap-fix step
                                   ///< (pseudo flows) or final legalization.
  double placeHpwlMm = 0.0;
  /// Global-place engine that produced the placement ("b2b" / "analytic";
  /// "" when the flow skipped global placement).
  std::string placeEngine;
  /// Engine-neutral density overflow of the final placement (PlaceResult).
  double placeOverflow = 0.0;
  /// Global-place iterations of the engine that ran.
  int placeIterations = 0;
  int cellsResized = 0;
  int buffersInserted = 0;
};

/// The DesignMetrics field table: calls \p field(jsonKey, member) for every
/// field, in the order of the metrics JSON object and of the checkpoint's
/// metrics section. \p M is DesignMetrics or const DesignMetrics; members are
/// std::string, double, int or std::int64_t. Drives writeDesignMetricsJson,
/// the run-report finals, the checkpoint codec and JobResult::fromJson, so a
/// new field is added here once.
template <typename M, typename F>
void forEachDesignMetric(M& m, F&& field) {
  field("flow", m.flow);
  field("tile", m.tileName);
  field("fclk_mhz", m.fclkMhz);
  field("min_period_ns", m.minPeriodNs);
  field("emean_fj", m.emeanFj);
  field("power_mw", m.powerMw);
  field("footprint_mm2", m.footprintMm2);
  field("logic_cell_area_mm2", m.logicCellAreaMm2);
  field("total_wirelength_m", m.totalWirelengthM);
  field("wirelength_logic_die_m", m.wirelengthLogicDieM);
  field("wirelength_macro_die_m", m.wirelengthMacroDieM);
  field("f2f_bumps", m.f2fBumps);
  field("cpin_nf", m.cpinNf);
  field("cwire_nf", m.cwireNf);
  field("clock_tree_depth", m.clockTreeDepth);
  field("clock_skew_ps", m.clockSkewPs);
  field("crit_path_wl_mm", m.critPathWirelengthMm);
  field("metal_area_mm2", m.metalAreaMm2);
  field("overflowed_edges", m.overflowedEdges);
  field("unrouted_nets", m.unroutedNets);
  field("verify_violations", m.verifyViolations);
  field("verify_warnings", m.verifyWarnings);
  field("verify_f2f_bumps", m.f2fBumpCount);
  field("legalize_avg_disp_um", m.legalizeAvgDispUm);
  field("place_hpwl_mm", m.placeHpwlMm);
  field("place_engine", m.placeEngine);
  field("place_overflow", m.placeOverflow);
  field("place_iterations", m.placeIterations);
  field("cells_resized", m.cellsResized);
  field("buffers_inserted", m.buffersInserted);
}

/// Everything a flow produces (kept alive for rendering and inspection).
struct FlowOutput {
  std::unique_ptr<Library> lib;
  std::unique_ptr<Tile> tile;
  TechNode logicTech;
  TechNode macroTech;      ///< only meaningful for 3D flows.
  Beol routingBeol;        ///< the stack P&R ran on.
  Floorplan fp;
  std::unique_ptr<RouteGrid> grid;
  RoutingResult routes;
  std::vector<NetParasitics> paras;
  CtsResult cts;
  ClockModel clock;
  DesignMetrics metrics;
  VerifyReport verify;     ///< signoff verification result (empty if skipped).
  std::string trace;       ///< human-readable flow step log (Fig. 2 style).
  obs::RunReport report;   ///< span tree + metrics of this run.

  /// Stage-cache outcome of this run (0 / "" when the cache was disabled):
  /// number of leading pipeline stages restored from the cache (7 = fully
  /// warm, 3 = place/pre_route_opt/cts prefix — the coalesced-ECO case),
  /// and the cache path of the signoff-stage checkpoint this run read or
  /// wrote (m3d_serve hands it to coalesced ECO jobs as their
  /// routeDesignEco seed).
  int cacheRestoredStages = 0;
  std::string finalCheckpointPath;
};

/// Pipeline knobs that differ per flow.
struct PipelineFlags {
  bool preRouteOpt = true;
  bool postRouteOpt = true;
  /// The pseudo flows hand over a placement mapped from the pseudo design,
  /// repeaters included: the place stage then only legalizes it instead of
  /// running global placement and repeater insertion.
  bool inheritPlacement = false;
};

/// A flow's effective options: FlowOptions::numThreads fanned into every
/// stage option still at "auto", plus the M3D_PLACE_ENGINE environment
/// override (an explicit option always wins). Idempotent. runPnrPipeline
/// resolves its options on entry; a flow that uses stage options before the
/// pipeline (the pseudo flows' placement) resolves once up front and hands
/// the result on, so every stage of the run sees the same knobs.
FlowOptions resolveFlowOptions(const FlowOptions& opt);

/// Optimizes \p nl toward the flow's timing goal: the max-frequency
/// schedule (FlowOptions::maxFreqRounds) in max-performance mode, else one
/// optimization to FlowOptions::targetPeriodNs (base.targetPeriod is
/// overwritten either way). Only the max-frequency schedule reports
/// minPeriod.
MaxFreqOptResult optimizeForTimingGoal(Netlist& nl, std::vector<NetParasitics>& paras,
                                       ParasiticsProvider& provider, const ClockModel* clock,
                                       OptimizerOptions base, const FlowOptions& opt);

/// Runs the common pipeline on out.tile->netlist over out.fp/out.routingBeol
/// and fills out.metrics (except flow/tile names and footprint fields, which
/// the caller owns). \p trace accumulates step logs.
void runPnrPipeline(FlowOutput& out, const FlowOptions& opt, const PipelineFlags& flags,
                    std::ostringstream& trace);

/// Swaps every fixed macro instance on the macro die to its projected master
/// ("_PROJ": filler-size substrate, _MD pin/obstruction layers), extending
/// the library on first use. This is Macro-3D's floorplan-projection step;
/// the pseudo flows apply it after tier partitioning when the true combined
/// stack becomes the routing target.
void projectMacroDieMacros(Netlist& nl, Library& lib, const TechNode& tech);

/// Rasterizes overlapping partial blockages: each rect contributes
/// \p densityPerRect; cell densities are clamped at 1. Cells are merged
/// horizontally. Mirrors the coarse spatial resolution of commercial partial
/// blockage handling.
std::vector<Blockage> compositeBlockages(const std::vector<Rect>& rects, const Rect& die,
                                         Dbu resolution, double densityPerRect);

/// Flow-driver observability bracket. beginFlowRun starts the trace export
/// (FlowOptions::traceOut / M3D_TRACE_OUT), opens the run's root span, and
/// logs the start line; finishFlowRun copies the numeric DesignMetrics into
/// the report's finals, stores it on \p out, writes the JSON file
/// (ReportOptions / M3D_RUN_REPORT_DIR), and logs the summary.
obs::ScopedRun beginFlowRun(FlowKind kind, const std::string& tileName,
                            const FlowOptions& opt);
void finishFlowRun(FlowOutput& out, const FlowOptions& opt, obs::ScopedRun& run);

/// Serializes every DesignMetrics field as one flat JSON object (used by
/// the bench BENCH_*.json dumps and the m3d_serve job results).
void writeDesignMetricsJson(obs::JsonWriter& w, const DesignMetrics& m);

/// Hierarchical placement seed: puts each logical module's cells near the
/// centroid of its fixed attachments (macro pins, ports) with a deterministic
/// spread, mirroring the region guidance a hand-optimized floorplan gives a
/// commercial placer (the paper's floorplans are "highly optimized ...
/// considering the tile architecture"). The global placer then refines from
/// these seeds.
void seedPlacementByModules(Tile& tile, const Floorplan& fp);

}  // namespace m3d
