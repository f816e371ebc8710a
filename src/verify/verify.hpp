#pragma once

/// \file verify.hpp
/// Independent physical-verification (signoff) engine.
///
/// The flows in this library self-report health (router overflow counters,
/// legalizer diagnostics), but the paper's headline claim -- the combined
/// double-die BEOL makes an unmodified 2D engine's output *directly valid*
/// for the F2F-stacked 3D IC (Sec. IV) -- deserves an auditor that does not
/// trust the tools it audits. verifyDesign() recomputes everything from the
/// committed design data (placement + route segments + the combined stack)
/// and reports structured violations in four checker families:
///
///  - DRC: geometric shorts (distinct nets exceeding the *physical* track
///    count of a gcell, confirmed by track-rect overlap in a RectIndex),
///    off-grid/off-direction segments, routing through fully obstructed
///    gcells, and per-edge capacity recomputed from committed segments
///    (never read from the router's incremental accounting).
///  - Connectivity / LVS-lite: each net's route graph must form one
///    connected component touching every pin's projected grid node --
///    catches opens and stacked-via gaps the router's own bookkeeping
///    cannot see.
///  - Placement legality: row/site alignment, core containment, keepout
///    (hard blockage) violations, per-row cell overlaps, macro containment
///    and macro-macro overlaps per die.
///  - 3D F2F interface: every logic<->macro-die net crosses the bond layer
///    through F2F_VIA cuts, cuts fit the physical bump-site grid of their
///    gcell, macro-die ("_MD") layer segments on purely-logic nets are
///    flagged (resource borrowing -- the paper's routability benefit --
///    is accounted, not hidden), and per-net F2F bump counts are collected
///    for the Table-IV comparison.
///
/// Severity calibration: a healthy PathFinder result legitimately carries
/// residual *global-route* overflow (usage > derated capacity) -- that is
/// detail-routing risk, not a proven failure -- so recomputed capacity
/// overflow grades as a warning. Errors are reserved for situations with no
/// physical escape: a short is error-grade only when distinct nets exceed
/// the physical (underated) track count of a gcell AND the perpendicular
/// 3-gcell detour window is also out of tracks (single-gcell overfill can
/// still be detoured by detail routing and stays inside the congestion
/// warning); bump-pitch overflow analogously requires the 3x3 gcell window
/// to be out of bump sites. Opens, off-grid segments, and illegal placement
/// are always errors. clean() therefore means "zero errors"; warnings are
/// reported and counted but do not fail signoff.
///
/// Determinism: every checker either runs a fixed-order sequential scan or
/// a par::parallelReduce whose chunking is a pure function of the range and
/// a fixed grain, with partials folded in ascending chunk order -- the
/// VerifyReport is bit-identical at any thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "geom/rect.hpp"
#include "netlist/netlist.hpp"
#include "route/route_grid.hpp"
#include "route/router.hpp"

namespace m3d {

/// Checker family a violation kind belongs to.
enum class CheckFamily { kDrc, kConnectivity, kPlacement, kF2f };

enum class Severity { kError, kWarning };

enum class ViolationKind {
  // DRC
  kShort,              ///< distinct nets exceed the physical tracks of a gcell
                       ///< and of its perpendicular detour window.
  kOffGrid,            ///< segment not a legal grid hop (direction/adjacency).
  kMacroObstruction,   ///< segment through a fully obstructed (cap-0) gcell.
  kCapacityOverflow,   ///< recomputed usage > derated capacity (congestion).
  // Connectivity / LVS-lite
  kOpen,               ///< pin not reached by the net's route graph.
  kDanglingSegment,    ///< route component touching no pin of its net.
  kUnroutedNet,        ///< multi-pin net with no committed route.
  // Placement legality
  kCellOverlap,
  kOffRow,
  kOffSite,
  kOutsideCore,
  kKeepout,            ///< standard cell inside a hard (density>=0.99) blockage.
  // 3D F2F interface
  kMissingF2fCrossing, ///< logic<->macro-die net without an F2F via.
  kBumpPitchOverflow,  ///< more F2F cuts than bump sites in a gcell's 3x3 window.
  kMacroDieLayerLeak,  ///< _MD-layer segment on a net with no macro-die pin.
};

const char* violationKindName(ViolationKind k);
CheckFamily familyOf(ViolationKind k);
Severity severityOf(ViolationKind k);

/// One violation. Payload fields are filled where meaningful for the kind
/// (kInvalidId / -1 / empty rect otherwise); \p detail is a human-readable
/// one-liner naming the objects involved.
struct Violation {
  ViolationKind kind = ViolationKind::kShort;
  NetId net = kInvalidId;       ///< offending net.
  NetId otherNet = kInvalidId;  ///< second net (shorts).
  InstId cell = kInvalidId;     ///< offending instance (placement, opens).
  int layer = -1;               ///< metal index (wire kinds) / cut index (via kinds).
  Rect rect = Rect::makeEmpty();///< die-coordinate region of the violation.
  std::string detail;

  friend bool operator==(const Violation&, const Violation&) = default;
};

struct VerifyOptions {
  // Per-family toggles (fault-injection tests scope a run to one family).
  bool drc = true;
  bool connectivity = true;
  bool placement = true;
  bool f2f = true;
  /// Threads (0 = auto: M3D_THREADS env, else hardware_concurrency).
  /// Results are bit-identical at any count.
  int numThreads = 0;
};

/// Stored-violation cap per kind (full counts are always kept; the list is
/// truncated deterministically in emission order).
inline constexpr int kMaxViolationsPerKind = 1000;

struct VerifyReport {
  /// Deterministic order: family order (DRC, connectivity, placement, F2F),
  /// fixed scan order within each family. Truncated per kind at
  /// kMaxViolationsPerKind; errors/warnings count everything.
  std::vector<Violation> violations;
  std::int64_t errors = 0;
  std::int64_t warnings = 0;

  // Independent recomputations (oracles for the router's own accounting).
  int recomputedOverflowedEdges = 0;
  std::int64_t recomputedTotalOverflow = 0;
  std::int64_t f2fBumpCount = 0;             ///< total F2F via crossings.
  std::vector<std::int64_t> f2fBumpsPerNet;  ///< indexed by NetId; empty on 2D stacks.

  /// Signoff verdict: no error-grade violations (warnings allowed).
  bool clean() const { return errors == 0; }
  /// Stored violations of \p k (post-truncation).
  int countOf(ViolationKind k) const;
  /// "CLEAN" / "VIOLATIONS(errors=..., warnings=...)" one-liner.
  std::string verdictLine() const;
  /// Multi-line human-readable summary (up to \p maxLines violations).
  std::string summaryText(std::size_t maxLines = 12) const;

  friend bool operator==(const VerifyReport&, const VerifyReport&) = default;
};

/// Verifies the committed design: placement in \p nl / \p fp, routing in
/// \p routes over \p grid (whose Beol supplies the stack, including the F2F
/// cut for combined Macro-3D stacks). Pure function of its inputs.
VerifyReport verifyDesign(const Netlist& nl, const Floorplan& fp, const RouteGrid& grid,
                          const RoutingResult& routes,
                          const VerifyOptions& opt = VerifyOptions{});

}  // namespace m3d
