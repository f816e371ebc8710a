#include "place/analytic/analytic_placer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "geom/units.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "place/analytic/density.hpp"
#include "place/analytic/wirelength.hpp"

namespace m3d::place {

namespace {

constexpr int kMaxIters = 420;  ///< Nesterov iteration cap.
constexpr int kMinIters = 30;   ///< don't stop on overflow before this.
/// Extra weight on F2F die-split nets (pins on fixed macro-die instances)
/// in the WA objective -- the bistratal term of the wirelength model.
constexpr double kSplitNetWeight = 1.0;

/// splitmix64 (same jitter hash as the B2B engine).
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// WA smoothing from the current overflow: several bins while the placement
/// is dense (smooth, long-range gradients), tightening toward half a bin as
/// the overflow target nears so short nets see accurate HPWL gradients.
double gammaFor(double bin, double overflow) {
  return bin * (0.5 + 7.5 * std::clamp(overflow, 0.0, 1.0));
}

/// Overflow-driven penalty growth: push hard while the placement is dense,
/// gently once it is nearly spread so wirelength recovers.
double penaltyGrowth(double overflow) {
  if (overflow >= 0.30) return 1.12;
  if (overflow >= 0.15) return 1.08;
  return 1.05;
}

}  // namespace

PlaceResult analyticGlobalPlace(Netlist& nl, const Floorplan& fp, const PlacerOptions& opt) {
  obs::ScopedPhase phase("place.analytic");
  PlaceResult result;
  result.engine = PlaceEngine::kAnalytic;

  // Movable instance indexing (same filter as the B2B engine).
  std::vector<InstId> movable;
  std::vector<int> varOf(static_cast<std::size_t>(nl.numInstances()), -1);
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const Instance& inst = nl.instance(i);
    if (inst.fixed || nl.cellOf(i).isMacro()) continue;
    varOf[static_cast<std::size_t>(i)] = static_cast<int>(movable.size());
    movable.push_back(i);
  }
  const int n = static_cast<int>(movable.size());
  if (n == 0) {
    result.success = true;
    return result;
  }
  const std::size_t un = static_cast<std::size_t>(n);

  const double dieXlo = dbuToUm(fp.die.xlo);
  const double dieYlo = dbuToUm(fp.die.ylo);
  const double dieXhi = dbuToUm(fp.die.xhi);
  const double dieYhi = dbuToUm(fp.die.yhi);

  std::vector<double> cw(un);
  std::vector<double> ch(un);
  for (int v = 0; v < n; ++v) {
    const CellType& ct = nl.cellOf(movable[static_cast<std::size_t>(v)]);
    cw[static_cast<std::size_t>(v)] = dbuToUm(ct.substrateWidth);
    ch[static_cast<std::size_t>(v)] = dbuToUm(ct.substrateHeight);
  }
  auto clampX = [&](int v, double x) {
    return std::clamp(x, dieXlo, std::max(dieXlo, dieXhi - cw[static_cast<std::size_t>(v)]));
  };
  auto clampY = [&](int v, double y) {
    return std::clamp(y, dieYlo, std::max(dieYlo, dieYhi - ch[static_cast<std::size_t>(v)]));
  };

  // Origin coordinates [um]. u = major (solution) sequence, v = reference
  // (lookahead) sequence of Nesterov's method.
  std::vector<double> ux(un), uy(un);
  for (int v = 0; v < n; ++v) {
    const std::size_t s = static_cast<std::size_t>(v);
    if (opt.useExistingPositions) {
      const Instance& inst = nl.instance(movable[s]);
      ux[s] = clampX(v, dbuToUm(inst.pos.x));
      uy[s] = clampY(v, dbuToUm(inst.pos.y));
    } else {
      const std::uint64_t h1 = mix64(kPlaceSeed * 2654435761ULL + static_cast<std::uint64_t>(v));
      const std::uint64_t h2 = mix64(h1);
      const double cx = 0.5 * (dieXlo + dieXhi);
      const double cy = 0.5 * (dieYlo + dieYhi);
      ux[s] = clampX(v, cx + (static_cast<double>(h1 % 10000) / 10000.0 - 0.5) * (dieXhi - dieXlo) * 0.5);
      uy[s] = clampY(v, cy + (static_cast<double>(h2 % 10000) / 10000.0 - 0.5) * (dieYhi - dieYlo) * 0.5);
    }
  }
  WirelengthModel wl(nl, varOf, n, kClockNetWeight, kSplitNetWeight);
  DensityGrid dg(nl, fp, movable, kTargetDensity, opt.numThreads);
  const double bin = std::max(dg.binW(), dg.binH());

  // ePlace filler cells: the Poisson field drives density toward the uniform
  // mean, not merely under capacity, so on a low-utilization die it would
  // spread the warm-seeded clusters apart long after every bin fits. Fillers
  // are wirelength-free movables that soak up the whitespace instead; they
  // join the density system and the optimizer but never the netlist.
  int nf = 0;
  {
    const double whitespace = std::max(0.0, dg.totalCapacity() - dg.totalMovableArea());
    double avgArea = 0.0;
    for (std::size_t s = 0; s < un; ++s) avgArea += cw[s] * ch[s];
    avgArea /= static_cast<double>(n);
    if (whitespace > 0.0 && avgArea > 0.0) {
      nf = std::clamp(static_cast<int>(whitespace / avgArea), 1, 4 * n);
      const double side = std::sqrt(whitespace / nf);
      dg.addFillers(static_cast<std::size_t>(nf), side, side);
      cw.insert(cw.end(), static_cast<std::size_t>(nf), side);
      ch.insert(ch.end(), static_cast<std::size_t>(nf), side);
    }
  }
  const int nAll = n + nf;
  const std::size_t uAll = static_cast<std::size_t>(nAll);
  ux.resize(uAll);
  uy.resize(uAll);
  for (int v = n; v < nAll; ++v) {
    const std::size_t s = static_cast<std::size_t>(v);
    const std::uint64_t h1 =
        mix64(kPlaceSeed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(v));
    const std::uint64_t h2 = mix64(h1);
    ux[s] = clampX(v, dieXlo + (static_cast<double>(h1 % 10000) / 10000.0) * (dieXhi - dieXlo));
    uy[s] = clampY(v, dieYlo + (static_cast<double>(h2 % 10000) / 10000.0) * (dieYhi - dieYlo));
  }
  std::vector<double> vx(ux), vy(uy);

  std::vector<double> gx(uAll), gy(uAll);    // preconditioned gradient at v
  std::vector<double> pgx(uAll), pgy(uAll);  // previous preconditioned gradient
  std::vector<double> pvx(uAll), pvy(uAll);  // previous reference point
  double lambda = 0.0;
  double ak = 1.0;
  double alpha = 0.0;
  int iters = 0;

  // Evaluates the combined preconditioned gradient at (vx, vy); returns the
  // density overflow there. All scalar folds are sequential O(n) loops —
  // deterministic by construction and negligible next to the exp-heavy
  // wirelength passes.
  auto evalGradient = [&](double& overflowOut) {
    dg.update(vx, vy);
    overflowOut = dg.overflow();
    wl.evaluate(vx, vy, gammaFor(bin, overflowOut), opt.numThreads);

    double sumW = 0.0, sumD = 0.0, sumQ = 0.0;
    for (int v = 0; v < nAll; ++v) {
      const std::size_t s = static_cast<std::size_t>(v);
      if (v < n) sumW += std::abs(wl.gradX()[s]) + std::abs(wl.gradY()[s]);
      sumD += std::abs(dg.gradX()[s]) + std::abs(dg.gradY()[s]);
      sumQ += dg.charge(v);
    }
    if (lambda == 0.0) {
      // First call: balance the two gradient fields (the ePlace convention).
      // The placement arrives warm (module seeding / region hints), so the
      // density force must hold its structure from the start — a small
      // lambda would let wirelength collapse the seed into a pile that
      // later spreading cannot fully recover from.
      lambda = sumD > 0.0 ? sumW / sumD : 1.0;
    }
    const double fieldScale = sumQ > 0.0 ? sumD / sumQ : 0.0;
    for (int v = 0; v < nAll; ++v) {
      const std::size_t s = static_cast<std::size_t>(v);
      const double wgx = v < n ? wl.gradX()[s] : 0.0;
      const double wgy = v < n ? wl.gradY()[s] : 0.0;
      const double pins = v < n ? static_cast<double>(wl.pinCount(v)) : 0.0;
      const double p = std::max(1.0, pins + lambda * dg.charge(v) * fieldScale);
      gx[s] = (wgx + lambda * dg.gradX()[s]) / p;
      gy[s] = (wgy + lambda * dg.gradY()[s]) / p;
    }
  };

  double overflow = 0.0;
  evalGradient(overflow);
  {
    // First step length: largest preconditioned component moves 0.1 bin.
    double gInf = 0.0;
    for (std::size_t s = 0; s < uAll; ++s) {
      gInf = std::max(gInf, std::max(std::abs(gx[s]), std::abs(gy[s])));
    }
    alpha = gInf > 0.0 ? 0.1 * bin / gInf : bin;
  }

  double bestHpwl = -1.0;
  constexpr std::size_t kPlateauWindow = 10;
  std::vector<double> hpwlWindow;
  for (int iter = 0; iter < kMaxIters; ++iter) {
    iters = iter + 1;
    pvx = vx;
    pvy = vy;
    pgx = gx;
    pgy = gy;

    // Nesterov major/reference update.
    const double aNext = 0.5 * (1.0 + std::sqrt(4.0 * ak * ak + 1.0));
    const double coef = (ak - 1.0) / aNext;
    for (int v = 0; v < nAll; ++v) {
      const std::size_t s = static_cast<std::size_t>(v);
      const double uxNext = clampX(v, vx[s] - alpha * gx[s]);
      const double uyNext = clampY(v, vy[s] - alpha * gy[s]);
      vx[s] = clampX(v, uxNext + coef * (uxNext - ux[s]));
      vy[s] = clampY(v, uyNext + coef * (uyNext - uy[s]));
      ux[s] = uxNext;
      uy[s] = uyNext;
    }
    ak = aNext;

    evalGradient(overflow);

    // Lipschitz step estimate from successive preconditioned gradients.
    double dv2 = 0.0, dg2 = 0.0;
    for (std::size_t s = 0; s < uAll; ++s) {
      const double dxv = vx[s] - pvx[s];
      const double dyv = vy[s] - pvy[s];
      const double dxg = gx[s] - pgx[s];
      const double dyg = gy[s] - pgy[s];
      dv2 += dxv * dxv + dyv * dyv;
      dg2 += dxg * dxg + dyg * dyg;
    }
    if (dg2 > 0.0 && dv2 > 0.0) {
      alpha = std::sqrt(dv2 / dg2);
      // Cap the worst-case move at a few bins to keep the trajectory stable.
      double gInf = 0.0;
      for (std::size_t s = 0; s < un; ++s) {
        gInf = std::max(gInf, std::max(std::abs(gx[s]), std::abs(gy[s])));
      }
      if (gInf > 0.0) alpha = std::min(alpha, 4.0 * bin / gInf);
    }

    // Two-sided penalty controller: grow while the target is missed, decay
    // gently once met so wirelength keeps recovering against the softest
    // spreading force that still holds the density at the target.
    if (overflow > kTargetOverflow) {
      lambda *= penaltyGrowth(overflow);
    } else {
      lambda *= 0.95;
    }

    const double iterHpwl = wl.hpwl(ux, uy, opt.numThreads);
    // place.hpwl is the engine-neutral convergence series every placement
    // engine must emit (the smoke report and trace counter tracks assert
    // it); the iter_* pair is the analytic loop's own richer telemetry.
    obs::series("place.hpwl").record(iterHpwl);
    obs::series("place.iter_hpwl").record(iterHpwl);
    obs::series("place.iter_overflow").record(overflow);
    if (bestHpwl < 0.0 || iterHpwl < bestHpwl) bestHpwl = iterHpwl;
    hpwlWindow.push_back(iterHpwl);

    // Converged: overflow at target AND wirelength plateaued — the mean
    // improvement over the trailing window dropped under 0.1%. Stopping on
    // overflow alone would cut healthy trajectories off mid-descent.
    if (iter + 1 >= kMinIters && overflow <= kTargetOverflow &&
        hpwlWindow.size() > kPlateauWindow) {
      const double past = hpwlWindow[hpwlWindow.size() - 1 - kPlateauWindow];
      if (iterHpwl > past * (1.0 - 0.001 * kPlateauWindow)) break;
    }
    // Divergence guard: nearly spread but wirelength blowing up — stop and
    // let the legalizer take it from here.
    if (overflow <= 1.5 * kTargetOverflow && bestHpwl > 0.0 && iterHpwl > 2.0 * bestHpwl) {
      M3D_LOG(warn) << "analytic place: wirelength diverging at overflow " << overflow
                    << ", stopping early";
      break;
    }
  }

  // Write the major solution back and legalize with the shared pipeline.
  for (int v = 0; v < n; ++v) {
    const std::size_t s = static_cast<std::size_t>(v);
    Instance& inst = nl.instance(movable[s]);
    inst.pos = Point{std::clamp<Dbu>(umToDbu(ux[s]), fp.die.xlo, fp.die.xhi),
                     std::clamp<Dbu>(umToDbu(uy[s]), fp.die.ylo, fp.die.yhi)};
  }
  result.legal = legalize(nl, fp, opt.legalizer);
  if (!result.legal.success) {
    // One retry, on the first pass's output. The legalizer already searches
    // every row, so the retry differs only in its input, but that input's x
    // order can seat cells the first pass could not: dropping the retry
    // could change results.
    result.legal = legalize(nl, fp, opt.legalizer);
  }
  result.iterations = iters;

  // Final overflow over the real (legalized) cells only — the fillers have
  // served their purpose and are dropped here.
  ux.resize(un);
  uy.resize(un);
  for (int v = 0; v < n; ++v) {
    const std::size_t s = static_cast<std::size_t>(v);
    const Instance& inst = nl.instance(movable[s]);
    ux[s] = dbuToUm(inst.pos.x);
    uy[s] = dbuToUm(inst.pos.y);
  }
  result.overflow = dg.measureOverflow(ux, uy);
  result.hpwlUm = dbuToUm(static_cast<Dbu>(nl.totalHpwl(opt.numThreads)));
  result.success = result.legal.success;
  phase.attr("iters", static_cast<double>(iters));
  phase.attr("overflow", result.overflow);
  phase.attr("hpwl_um", result.hpwlUm);
  M3D_LOG(info) << "analytic place: " << iters << " iters, overflow " << result.overflow
                << ", hpwl_um " << result.hpwlUm << (result.success ? "" : " (LEGALIZE FAILED)");
  return result;
}

}  // namespace m3d::place
