#pragma once

/// \file router.hpp
/// Negotiated-congestion (PathFinder-style) global router.
///
/// Multi-pin nets are routed as Steiner trees grown by multi-source A*
/// (search from the partial tree to the next pin). Congested edges get
/// present- and history-based penalties; overflowed nets are ripped up and
/// rerouted for a bounded number of iterations.

#include <cstdint>
#include <vector>

#include "route/route_grid.hpp"

namespace m3d {

/// One edge of a routed net.
struct RouteSeg {
  bool isVia = false;
  /// Wire: metal layer index. Via: lower metal layer index (cut index).
  int layer = 0;
  /// Grid node the segment starts at.
  int fromNode = 0;
  /// Grid node the segment ends at (adjacent to fromNode).
  int toNode = 0;
};

struct NetRoute {
  std::vector<RouteSeg> segs;
  bool routed = false;
};

struct RouterOptions {
  int maxIterations = 5;         ///< rip-up & reroute rounds.
  /// Base cost of an F2F via (gcell units; a regular via costs 2).
  double f2fViaCost = 3.0;
  /// Threads for the per-batch net search (0 = auto: M3D_THREADS env, else
  /// hardware_concurrency). Results are bit-identical at any thread count.
  int numThreads = 0;
  /// Nets per snapshot batch. Nets inside a batch are routed concurrently
  /// against a read-only view of the congestion state and committed in
  /// fixed net order afterwards; congestion negotiates *between* batches.
  /// Must not depend on the thread count (it is part of the deterministic
  /// algorithm, not the schedule). 1 reproduces fully sequential
  /// negotiation; larger batches expose more parallelism.
  int batchSize = 24;
  /// Windowed A*: restrict each sink search to the bounding box of the
  /// current tree plus the sink, inflated by this many gcells. When a
  /// window search fails the halo doubles deterministically until the
  /// window covers the whole grid, so any net routable on the full grid
  /// stays routable (the fallback ladder is counted in
  /// RoutingResult::windowFallbacks). < 0 disables windowing and always
  /// searches the full grid. The tight default is deliberate: confining
  /// congestion-driven detours to the net's own neighborhood both prunes
  /// the search and keeps negotiation local (measurably lower overflow
  /// than full-grid search on the benchmark tiles).
  int searchHaloGcells = 1;
};

struct RoutingResult {
  std::vector<NetRoute> nets;    ///< indexed by NetId.
  double totalWirelengthUm = 0.0;
  std::vector<double> wirelengthPerLayerUm;  ///< indexed by metal layer.
  std::vector<std::int64_t> viasPerCut;      ///< indexed by cut layer.
  std::int64_t f2fBumps = 0;     ///< number of F2F via crossings (bumps).
  int overflowedEdges = 0;       ///< edges with usage > capacity at the end.
  std::int64_t totalOverflow = 0;
  int unroutedNets = 0;
  int iterationsUsed = 0;

  // Search-kernel statistics (deterministic: per-net searches are
  // sequential and integer totals commute across the batch threads).
  std::int64_t nodesPopped = 0;    ///< open-list pops across all searches.
  std::int64_t nodesRelaxed = 0;   ///< accepted relaxations (dist improved).
  std::int64_t windowFallbacks = 0;  ///< window widenings after a failed windowed search.

  // Incremental (ECO) reroute statistics (0 for a full route).
  std::int64_t ecoDirtyGcells = 0;   ///< gcell columns with >= 1 capacity-changed edge.
  std::int64_t ecoNetsReused = 0;    ///< nets whose previous route was kept verbatim.
  std::int64_t ecoNetsRipped = 0;    ///< nets ripped up (dirty seed or later negotiation).

  /// Wirelength [um] routed on layers of \p die (combined stacks only).
  double wirelengthOfDieUm(const Beol& beol, DieId die) const;
};

/// Routes every multi-pin net of \p nl on \p grid. Single-pin and degenerate
/// nets are skipped (marked routed with empty geometry).
RoutingResult routeDesign(const Netlist& nl, RouteGrid& grid,
                          const RouterOptions& opt = RouterOptions{});

/// Incremental (ECO) reroute: seeds the congestion state with \p prev's
/// routes, rips up only the *dirty* nets -- those unrouted before, touching
/// an edge whose capacity differs between \p prevGrid and \p grid, or whose
/// pins moved off their previous route -- and negotiates just that set (a
/// reused net can still be ripped by a later iteration if the capacity
/// change left it overflowing). Every untouched net keeps its segment list
/// byte-identical to \p prev. Falls back to a full routeDesign (with a
/// warning) when \p prev is incompatible with the current grid/netlist.
RoutingResult routeDesignEco(const Netlist& nl, RouteGrid& grid, const RouteGrid& prevGrid,
                             const RoutingResult& prev,
                             const RouterOptions& opt = RouterOptions{});

}  // namespace m3d
