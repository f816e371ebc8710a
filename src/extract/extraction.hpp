#pragma once

/// \file extraction.hpp
/// Parasitic extraction: RC trees from routed geometry (Elmore delays), or
/// HPWL-based estimation for pre-route / pseudo-design stages.
///
/// The estimation path carries a parasitic scale knob: Compact-2D scales
/// per-unit-length parasitics by 1/sqrt(2) in its inflated pseudo-2D design
/// (paper Sec. III), and Shrunk-2D halves geometric lengths — both are
/// expressed through EstimationOptions.

#include <vector>

#include "netlist/netlist.hpp"
#include "route/router.hpp"

namespace m3d {

/// Per-net parasitics and Elmore wire delays.
struct NetParasitics {
  double wireCap = 0.0;  ///< total routed/estimated wire capacitance [F].
  double pinCap = 0.0;   ///< sum of sink pin capacitances [F].
  double totalRes = 0.0; ///< total wire resistance [ohm] (reporting only).
  /// Elmore wire delay from the driver pin to each net pin, indexed like
  /// Net::pins (0.0 at the driver) [s]. Excludes the driver's own
  /// driveRes * Cload term, which the STA adds.
  std::vector<double> sinkWireDelay;
  /// Routed (or estimated Manhattan) wire length from the driver to each net
  /// pin [um], same indexing. Feeds the critical-path wirelength metric of
  /// the paper's Table II.
  std::vector<double> sinkWireLengthUm;

  double totalLoad() const { return wireCap + pinCap; }
};

/// Extracts parasitics for net \p netId from its route. Falls back to a
/// lumped zero-length node when the route is empty (pins share a gcell).
NetParasitics extractRouted(const Netlist& nl, NetId netId, const RouteGrid& grid,
                            const NetRoute& route);

/// Extracts every net; result indexed by NetId. One working memory serves
/// every net, so nothing is allocated per net beyond its result's vectors.
std::vector<NetParasitics> extractDesign(const Netlist& nl, const RouteGrid& grid,
                                         const RoutingResult& routes);

/// Re-extracts the nets \p nets into \p paras (indexed by NetId), sharing
/// one working memory like extractDesign. Each entry equals
/// extractRouted(nl, n, grid, routes.nets[n]).
void extractNets(const Netlist& nl, const RouteGrid& grid, const RoutingResult& routes,
                 const std::vector<NetId>& nets, std::vector<NetParasitics>& paras);

struct EstimationOptions {
  double rPerUm = 2.0;       ///< representative wire resistance [ohm/um].
  double cPerUm = 0.21e-15;  ///< representative wire capacitance [F/um].
  /// Multiplier on per-unit-length parasitics (C2D: 1/sqrt(2)).
  double parasiticScale = 1.0;
  /// Multiplier on geometric distances (S2D shrunk design: 1.0 because
  /// geometry itself is shrunk; kept for flexibility).
  double lengthScale = 1.0;
};

/// Builds representative estimation options from a BEOL (average of the
/// intermediate routing layers).
EstimationOptions makeEstimationOptions(const Beol& beol, double parasiticScale = 1.0);

/// HPWL/star-model estimate: each sink sees a private wire of its Manhattan
/// distance from the driver.
NetParasitics estimateNet(const Netlist& nl, NetId netId, const EstimationOptions& opt);

/// Estimates every net; result indexed by NetId.
std::vector<NetParasitics> estimateDesign(const Netlist& nl, const EstimationOptions& opt);

/// Aggregate capacitance totals (paper Table II reports Cpin,total and
/// Cwire,total).
struct CapTotals {
  double pinCapTotal = 0.0;   ///< [F], includes every sink pin cap.
  double wireCapTotal = 0.0;  ///< [F].
};
CapTotals capTotals(const std::vector<NetParasitics>& paras);

}  // namespace m3d
