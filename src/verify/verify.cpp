#include "verify/verify.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/checkers.hpp"

namespace m3d {

const char* violationKindName(ViolationKind k) {
  switch (k) {
    case ViolationKind::kShort: return "short";
    case ViolationKind::kOffGrid: return "off_grid";
    case ViolationKind::kMacroObstruction: return "macro_obstruction";
    case ViolationKind::kCapacityOverflow: return "capacity_overflow";
    case ViolationKind::kOpen: return "open";
    case ViolationKind::kDanglingSegment: return "dangling_segment";
    case ViolationKind::kUnroutedNet: return "unrouted_net";
    case ViolationKind::kCellOverlap: return "cell_overlap";
    case ViolationKind::kOffRow: return "off_row";
    case ViolationKind::kOffSite: return "off_site";
    case ViolationKind::kOutsideCore: return "outside_core";
    case ViolationKind::kKeepout: return "keepout";
    case ViolationKind::kMissingF2fCrossing: return "missing_f2f_crossing";
    case ViolationKind::kBumpPitchOverflow: return "bump_pitch_overflow";
    case ViolationKind::kMacroDieLayerLeak: return "macro_die_layer_leak";
  }
  return "?";
}

CheckFamily familyOf(ViolationKind k) {
  switch (k) {
    case ViolationKind::kShort:
    case ViolationKind::kOffGrid:
    case ViolationKind::kMacroObstruction:
    case ViolationKind::kCapacityOverflow:
      return CheckFamily::kDrc;
    case ViolationKind::kOpen:
    case ViolationKind::kDanglingSegment:
    case ViolationKind::kUnroutedNet:
      return CheckFamily::kConnectivity;
    case ViolationKind::kCellOverlap:
    case ViolationKind::kOffRow:
    case ViolationKind::kOffSite:
    case ViolationKind::kOutsideCore:
    case ViolationKind::kKeepout:
      return CheckFamily::kPlacement;
    case ViolationKind::kMissingF2fCrossing:
    case ViolationKind::kBumpPitchOverflow:
    case ViolationKind::kMacroDieLayerLeak:
      return CheckFamily::kF2f;
  }
  return CheckFamily::kDrc;
}

Severity severityOf(ViolationKind k) {
  switch (k) {
    // Residual global-route congestion is detail-routing risk, not a proven
    // failure (see file comment in verify.hpp) -- warning. Macro-die layer
    // borrowing by logic nets is the combined stack's intended routability
    // benefit (paper Sec. IV) -- accounted as a warning, never an error.
    case ViolationKind::kCapacityOverflow:
    case ViolationKind::kMacroDieLayerLeak:
      return Severity::kWarning;
    default:
      return Severity::kError;
  }
}

int VerifyReport::countOf(ViolationKind k) const {
  int n = 0;
  for (const Violation& v : violations) n += (v.kind == k) ? 1 : 0;
  return n;
}

std::string VerifyReport::verdictLine() const {
  std::ostringstream os;
  if (clean()) {
    os << "CLEAN";
    if (warnings > 0) os << " (warnings=" << warnings << ")";
  } else {
    os << "VIOLATIONS(errors=" << errors << ", warnings=" << warnings << ")";
  }
  return os.str();
}

std::string VerifyReport::summaryText(std::size_t maxLines) const {
  std::ostringstream os;
  os << "signoff " << verdictLine() << "\n";
  std::size_t shown = 0;
  for (const Violation& v : violations) {
    if (shown >= maxLines) {
      os << "  ... " << (violations.size() - shown) << " more\n";
      break;
    }
    os << "  " << (severityOf(v.kind) == Severity::kError ? "ERROR " : "WARN  ")
       << violationKindName(v.kind) << ": " << v.detail << "\n";
    ++shown;
  }
  return os.str();
}

VerifyReport verifyDesign(const Netlist& nl, const Floorplan& fp, const RouteGrid& grid,
                          const RoutingResult& routes, const VerifyOptions& opt) {
  VerifyReport rep;
  const verify_detail::Ctx ctx{nl, fp, grid, routes, opt};

  // Fixed family order keeps the violation list deterministic.
  if (opt.drc) {
    obs::ScopedPhase phase("verify.drc");
    const std::size_t before = rep.violations.size();
    verify_detail::checkDrc(ctx, rep);
    phase.attr("violations", static_cast<double>(rep.violations.size() - before));
  }
  if (opt.connectivity) {
    obs::ScopedPhase phase("verify.connectivity");
    const std::size_t before = rep.violations.size();
    verify_detail::checkConnectivity(ctx, rep);
    phase.attr("violations", static_cast<double>(rep.violations.size() - before));
  }
  if (opt.placement) {
    obs::ScopedPhase phase("verify.placement");
    const std::size_t before = rep.violations.size();
    verify_detail::checkPlacement(ctx, rep);
    phase.attr("violations", static_cast<double>(rep.violations.size() - before));
  }
  if (opt.f2f) {
    obs::ScopedPhase phase("verify.f2f");
    const std::size_t before = rep.violations.size();
    verify_detail::checkF2f(ctx, rep);
    phase.attr("violations", static_cast<double>(rep.violations.size() - before));
  }

  // Full severity totals, then deterministic per-kind truncation.
  for (const Violation& v : rep.violations) {
    (severityOf(v.kind) == Severity::kError ? rep.errors : rep.warnings) += 1;
  }
  std::map<ViolationKind, int> perKind;
  std::vector<Violation> kept;
  kept.reserve(rep.violations.size());
  for (Violation& v : rep.violations) {
    if (perKind[v.kind]++ < kMaxViolationsPerKind) kept.push_back(std::move(v));
  }
  rep.violations = std::move(kept);

  obs::counter("verify.errors").add(rep.errors);
  obs::counter("verify.warnings").add(rep.warnings);
  obs::gauge("verify.f2f_bumps").set(static_cast<double>(rep.f2fBumpCount));
  M3D_LOG(info) << "verify done: " << rep.verdictLine()
                << " recomputed_overflow=" << rep.recomputedOverflowedEdges
                << " f2f_bumps=" << rep.f2fBumpCount;
  if (!rep.clean()) {
    M3D_LOG(warn) << "\n" << rep.summaryText();
  }
  return rep;
}

}  // namespace m3d
