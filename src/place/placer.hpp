#pragma once

/// \file placer.hpp
/// Quadratic global placement (bound-to-bound net model) with SimPL-style
/// legalization anchoring, followed by Tetris legalization.
///
/// The same engine places every flow's design — 2D, S2D (shrunk), C2D
/// (inflated) and Macro-3D (superimposed MoL floorplan) — mirroring the
/// paper's use of one commercial P&R engine for all flows.

#include "floorplan/floorplan.hpp"
#include "netlist/netlist.hpp"
#include "place/legalizer.hpp"

namespace m3d {

/// Global-placement engine selector. kB2B is the original quadratic
/// bound-to-bound + diffusion engine; kAnalytic is the ePlace-style
/// analytic engine (src/place/analytic/): WA wirelength + electrostatic
/// density + Nesterov.
enum class PlaceEngine : std::uint8_t { kB2B = 0, kAnalytic = 1 };

/// Canonical engine names used by CLI flags, env knobs, the serve protocol
/// and the stage-cache key ("b2b" / "analytic").
const char* placeEngineName(PlaceEngine e);
/// Parses an engine name; returns false (leaving \p out untouched) on an
/// unknown name.
bool parsePlaceEngine(const std::string& name, PlaceEngine& out);

/// Fixed settings both global-place engines share.
/// Objective weight of clock nets (the clock tree is built after placement).
inline constexpr double kClockNetWeight = 0.1;
/// Seed of the deterministic initial jitter.
inline constexpr std::uint64_t kPlaceSeed = 1;
/// Bin capacity derate (utilization target) of the analytic engine's density
/// model and of the engine-neutral PlaceResult::overflow.
inline constexpr double kTargetDensity = 0.8;

struct PlacerOptions {
  PlaceEngine engine = PlaceEngine::kB2B;
  int maxIters = 12;              ///< B2B solve/legalize alternations.
  /// When true, current instance positions seed the solver (hierarchical /
  /// region hints from the caller) instead of random jitter.
  bool useExistingPositions = false;
  /// Threads (0 = auto: M3D_THREADS env, else hardware_concurrency). B2B
  /// builds and solves its x and y systems concurrently (so it uses two),
  /// HPWL sums and the analytic engine's kernels use up to this many. The
  /// placement is bit-identical at any thread count.
  int numThreads = 0;
  LegalizerOptions legalizer;
};

struct PlaceResult {
  bool success = false;
  double hpwlUm = 0.0;          ///< total HPWL after legalization [um].
  int iterations = 0;
  /// Engine that produced the result (serialized into the metrics codec).
  PlaceEngine engine = PlaceEngine::kB2B;
  /// Normalized density overflow of the final placement, measured with the
  /// engine-neutral smoothed-footprint model so B2B and analytic results
  /// compare apples-to-apples.
  double overflow = 0.0;
  LegalizeResult legal;         ///< stats of the final legalization pass.
};

/// Places all movable cells of \p nl inside \p fp. Fixed instances (macros,
/// pre-placed cells) and ports act as fixed pins. Positions are written back
/// into the netlist; the final state is legalized.
PlaceResult globalPlace(Netlist& nl, const Floorplan& fp,
                        const PlacerOptions& opt = PlacerOptions{});

}  // namespace m3d
