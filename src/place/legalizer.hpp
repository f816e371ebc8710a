#pragma once

/// \file legalizer.hpp
/// Tetris-style row legalizer.
///
/// Snaps movable standard cells to rows and sites, avoiding blockages.
/// Partial blockages (S2D/C2D macro modeling) are realized as alternating
/// blocked/free stripes at a configurable spatial resolution — commercial
/// engines honor partial blockages at a similarly coarse granularity, which
/// is exactly the inaccuracy the paper calls out (Sec. III: "the spatial
/// resolution used by commercial 2D P&R tools to take care of partial
/// blockages is not fine enough").

#include <vector>

#include "floorplan/floorplan.hpp"
#include "netlist/netlist.hpp"

namespace m3d {

struct LegalizerOptions {
  /// Stripe period for partial blockages [DBU]. legalize() does not read it:
  /// it dithers partial blockages at whole-row granularity instead.
  Dbu partialBlockageResolution = umToDbu(8.0);
  /// Width multiplier applied to every movable cell during legalization.
  /// The S2D/C2D pseudo phase legalizes at sqrt(2)x width so that after the
  /// 1/sqrt(2) tier-partitioning mapping the full-size cells are spaced
  /// legally -- the inflated-view equivalent of S2D's cell shrinking.
  double cellWidthScale = 1.0;
};

struct LegalizeResult {
  bool success = false;
  double avgDisplacementUm = 0.0;
  double maxDisplacementUm = 0.0;
  int failedCells = 0;
};

/// Legalizes every movable (non-fixed, non-macro) instance of \p nl into the
/// rows of \p fp. Positions are updated in place. Cells whose target row
/// region is exhausted spill to farther rows; if nothing fits at all the
/// cell counts as failed (success=false).
LegalizeResult legalize(Netlist& nl, const Floorplan& fp,
                        const LegalizerOptions& opt = LegalizerOptions{});

/// Checks that all movable cells sit on row/site grid inside the die and do
/// not overlap each other or full blockages. Returns a diagnostic string.
std::string checkLegality(const Netlist& nl, const Floorplan& fp);

}  // namespace m3d
