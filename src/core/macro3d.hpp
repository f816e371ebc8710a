#pragma once

/// \file macro3d.hpp
/// The Macro-3D physical design methodology (the paper's contribution,
/// Sec. IV). Four steps, exactly as Fig. 2:
///
///  1. Two per-die floorplans with the final F2F footprint; macros placed
///     (the macro die carries only macros; the logic die may carry macros
///     too — none in the MoL case study).
///  2. Memory-on-logic projection: build the combined double-die BEOL
///     (logic M1..M6 -> F2F_VIA -> macro-die layers renamed *_MD), shrink
///     macro-die macro substrates to filler size, rename their pin and
///     obstruction layers to *_MD, and superimpose both floorplans into one
///     2D floorplan.
///  3. Feed the superimposed floorplan plus the combined BEOL to the
///     standard 2D P&R engine. Because the engine sees every macro pin at
///     its true position on its true layer and has the full stack for
///     routing and extraction, the resulting placement/routing/PPA are
///     directly valid for the 3D stack — no tier partitioning, F2F-via
///     planning or incremental re-routing step exists.
///  4. Die separation: split the result into per-die layouts (both carrying
///     the F2F_VIA layer) for tape-out.

#include "flows/flow_common.hpp"

namespace m3d {

/// Runs the Macro-3D flow. opt.macroDieMetals selects the macro-die BEOL
/// depth (6 = M6-M6, 4 = the heterogeneous M6-M4 stack of Table III);
/// opt.stackOrder selects the combined-stack layer ordering.
FlowOutput runFlowMacro3D(const TileConfig& cfg, const FlowOptions& opt = FlowOptions{});

/// Steps 1-2: the pipeline entry state runFlowMacro3D hands to
/// runPnrPipeline (and that the stage keys hash). Appends its steps to
/// \p trace.
FlowOutput macro3dEntryState(const TileConfig& cfg, const FlowOptions& opt,
                             std::ostringstream& trace);

/// Step-4 result: the separated per-die views.
struct SeparatedDesign {
  Beol logicDieBeol;
  Beol macroDieBeol;
  /// Wirelength routed in each die's metals [um, local scale].
  double logicDieWirelengthUm = 0.0;
  double macroDieWirelengthUm = 0.0;
  std::int64_t f2fBumps = 0;
};

/// Performs die separation on a finished Macro-3D implementation.
SeparatedDesign separateDies(const FlowOutput& out, MacroDieStackOrder order);

}  // namespace m3d
