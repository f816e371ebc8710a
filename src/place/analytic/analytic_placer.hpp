#pragma once

/// \file analytic_placer.hpp
/// ePlace-style analytic global placement: WA wirelength (wirelength.hpp) +
/// electrostatic density penalty (density.hpp) minimized by a Nesterov
/// accelerated gradient method with Lipschitz-estimated step lengths and
/// overflow-driven penalty scheduling, followed by the shared legalizer.
/// Entry point behind PlacerOptions::engine == PlaceEngine::kAnalytic.

#include "floorplan/floorplan.hpp"
#include "netlist/netlist.hpp"
#include "place/placer.hpp"

namespace m3d::place {

/// Density overflow the Nesterov loop stops at (once wirelength plateaus).
inline constexpr double kTargetOverflow = 0.07;

/// Analytic counterpart of globalPlace(); same contract (writes legalized
/// positions back into \p nl). Called by globalPlace() on engine dispatch —
/// use that entry point instead of calling this directly.
PlaceResult analyticGlobalPlace(Netlist& nl, const Floorplan& fp, const PlacerOptions& opt);

}  // namespace m3d::place
