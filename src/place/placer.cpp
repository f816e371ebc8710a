#include "place/placer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/parallel.hpp"
#include "geom/grid.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "place/analytic/analytic_placer.hpp"
#include "place/analytic/density.hpp"
#include "place/cg_solver.hpp"

namespace m3d {

const char* placeEngineName(PlaceEngine e) {
  return e == PlaceEngine::kAnalytic ? "analytic" : "b2b";
}

bool parsePlaceEngine(const std::string& name, PlaceEngine& out) {
  if (name == "b2b") {
    out = PlaceEngine::kB2B;
    return true;
  }
  if (name == "analytic") {
    out = PlaceEngine::kAnalytic;
    return true;
  }
  return false;
}

namespace {

constexpr int kPureSolveRounds = 5;         ///< initial B2B reweighting rounds without anchors.
constexpr double kAnchorWeightInit = 0.01;  ///< first anchor weight (grows geometrically).
constexpr double kAnchorWeightGrowth = 1.8;
constexpr int kMinIters = 9;                ///< don't trigger convergence before this.

/// splitmix64: cheap deterministic hash for the initial jitter.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The cells of one diffusion bin. Each entry keeps its own copy of its
/// cell's coordinates, so the pick scans the bin's own arrays sequentially
/// instead of gathering x[v]/y[v] from the whole placement.
struct Bin {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<int> cell;

  void clear() {
    x.clear();
    y.clear();
    cell.clear();
  }
  void push(double cx, double cy, int v) {
    x.push_back(cx);
    y.push_back(cy);
    cell.push_back(v);
  }
  /// Removes entry k; the last entry takes its position.
  void swapRemove(std::size_t k) {
    x[k] = x.back();
    y[k] = y.back();
    cell[k] = cell.back();
    x.pop_back();
    y.pop_back();
    cell.pop_back();
  }
};

/// Buffers reused across diffuse() calls within one globalPlace(): the bin
/// capacities and cell areas are pure functions of (floorplan, targetUtil,
/// movable, areaScale) — all loop-invariant across placer iterations — and
/// the per-round bin/demand vectors keep their allocations between rounds
/// and calls instead of reallocating nx*ny vectors each round.
struct DiffuseScratch {
  std::vector<double> cap;
  std::vector<double> areas;
  std::vector<Bin> bins;
  std::vector<double> demand;
  std::vector<int> binOf;  ///< bin index of each cell, kept up to date by moves.
  bool primed = false;
};

/// Position in \p c of the cell to move out of its bin: the first entry
/// with the largest (kPositive) or smallest coordinate, or 0 when no
/// coordinate passes the ±1e30 sentinel. This is the rule of a linear scan
/// that keeps the running extreme and moves the pick on strict improvement
/// only, ties included. It runs in two passes: the extreme value from four
/// independent accumulators (no loop-carried dependence on one running
/// best), then the first position that holds it.
template <bool kPositive>
std::size_t pickExtreme(const std::vector<double>& c) {
  auto better = [](double a, double b) { return kPositive ? a > b : a < b; };
  constexpr double kSentinel = kPositive ? -1e30 : 1e30;
  double m[4] = {kSentinel, kSentinel, kSentinel, kSentinel};
  const std::size_t size = c.size();
  std::size_t k = 0;
  for (; k + 4 <= size; k += 4) {
    for (std::size_t l = 0; l < 4; ++l) m[l] = better(c[k + l], m[l]) ? c[k + l] : m[l];
  }
  for (; k < size; ++k) m[0] = better(c[k], m[0]) ? c[k] : m[0];
  double extreme = m[0];
  for (std::size_t l = 1; l < 4; ++l) extreme = better(m[l], extreme) ? m[l] : extreme;
  if (!better(extreme, kSentinel)) return 0;
  for (k = 0; k < size; ++k) {
    if (c[k] == extreme) return k;
  }
  return 0;
}

/// Bin-diffusion spreading: moves cells out of overfull bins into the least
/// utilized neighbor bin until every bin respects its capacity. Preserves
/// locality (cells hop one bin at a time) so the follow-up legalization only
/// makes small moves instead of scattering dense clusters across the die.
void diffuse(const Netlist& nl, const Floorplan& fp, const std::vector<InstId>& movable,
             std::vector<double>& x, std::vector<double>& y, double targetUtil, int rounds,
             double areaScale, DiffuseScratch& scratch) {
  const Dbu binSize = umToDbu(8.0);
  const GridMapping map(fp.die, binSize);
  const int nx = map.nx();
  const int ny = map.ny();

  if (!scratch.primed) {
    // Capacity per bin: free area after blockages, derated to targetUtil.
    // O(bins * blockages) — computed once and reused by every placer
    // iteration (the floorplan is frozen during global placement).
    scratch.cap.resize(static_cast<std::size_t>(nx * ny));
    for (int by = 0; by < ny; ++by) {
      for (int bx = 0; bx < nx; ++bx) {
        const Rect r = map.cellRect(bx, by);
        double blocked = 0.0;
        for (const Blockage& b : fp.blockages) {
          const Rect inter = b.rect.intersection(r);
          if (!inter.isEmpty()) blocked += b.density * static_cast<double>(inter.area());
        }
        scratch.cap[static_cast<std::size_t>(by * nx + bx)] =
            std::max(0.0, (static_cast<double>(r.area()) - blocked)) * targetUtil;
      }
    }
    scratch.areas.resize(movable.size());
    for (std::size_t v = 0; v < movable.size(); ++v) {
      scratch.areas[v] = static_cast<double>(nl.cellOf(movable[v]).substrateArea()) * areaScale;
    }
    scratch.bins.resize(static_cast<std::size_t>(nx * ny));
    scratch.primed = true;
  }
  const std::vector<double>& cap = scratch.cap;
  const std::vector<double>& areas = scratch.areas;
  std::vector<Bin>& bins = scratch.bins;
  std::vector<double>& demand = scratch.demand;
  std::vector<int>& binOf = scratch.binOf;

  // A cell changes bin only when a move below sends it to a neighbor bin,
  // and the move sets its coordinate a quarter bin inside that bin, so the
  // index recorded at the move is the one its coordinates map to.
  binOf.resize(movable.size());
  for (std::size_t v = 0; v < movable.size(); ++v) {
    binOf[v] = map.yIndex(umToDbu(y[v])) * nx + map.xIndex(umToDbu(x[v]));
  }
  for (int round = 0; round < rounds; ++round) {
    // Bucket cells by bin in cell order (bins keep their capacity across
    // rounds).
    for (Bin& bin : bins) bin.clear();
    demand.assign(static_cast<std::size_t>(nx * ny), 0.0);
    for (std::size_t v = 0; v < movable.size(); ++v) {
      const std::size_t b = static_cast<std::size_t>(binOf[v]);
      bins[b].push(x[v], y[v], static_cast<int>(v));
      demand[b] += areas[v];
    }
    bool anyMove = false;
    for (int by = 0; by < ny; ++by) {
      for (int bx = 0; bx < nx; ++bx) {
        const std::size_t b = static_cast<std::size_t>(by * nx + bx);
        if (demand[b] <= cap[b]) continue;
        // Move excess cells (last-in order: deterministic) to the least
        // utilized 4-neighbor.
        auto ratio = [&](int nbx, int nby) {
          if (nbx < 0 || nbx >= nx || nby < 0 || nby >= ny) return 1e30;
          const std::size_t nb = static_cast<std::size_t>(nby * nx + nbx);
          return cap[nb] > 0.0 ? demand[nb] / cap[nb] : 1e30;
        };
        Bin& bin = bins[b];
        while (demand[b] > cap[b] && !bin.cell.empty()) {
          struct Cand {
            int dx;
            int dy;
          };
          const Cand cands[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
          int best = -1;
          double bestRatio = 1e29;
          for (int c = 0; c < 4; ++c) {
            const double rr = ratio(bx + cands[c].dx, by + cands[c].dy);
            if (rr < bestRatio) {
              bestRatio = rr;
              best = c;
            }
          }
          if (best < 0) break;
          // Move the cell already closest to the chosen edge (minimal
          // displacement, preserves cluster structure).
          const std::size_t pick = cands[best].dx > 0   ? pickExtreme<true>(bin.x)
                                   : cands[best].dx < 0 ? pickExtreme<false>(bin.x)
                                   : cands[best].dy > 0 ? pickExtreme<true>(bin.y)
                                                        : pickExtreme<false>(bin.y);
          const std::size_t v = static_cast<std::size_t>(bin.cell[pick]);
          bin.swapRemove(pick);
          const int nbx = bx + cands[best].dx;
          const int nby = by + cands[best].dy;
          const Rect nr = map.cellRect(nbx, nby);
          // Project into the neighbor bin, keeping the orthogonal coordinate.
          const double margin = dbuToUm(binSize) * 0.25;
          if (cands[best].dx != 0) {
            x[v] = cands[best].dx > 0 ? dbuToUm(nr.xlo) + margin : dbuToUm(nr.xhi) - margin;
          } else {
            y[v] = cands[best].dy > 0 ? dbuToUm(nr.ylo) + margin : dbuToUm(nr.yhi) - margin;
          }
          const std::size_t nb = static_cast<std::size_t>(nby * nx + nbx);
          demand[b] -= areas[v];
          demand[nb] += areas[v];
          bins[nb].push(x[v], y[v], static_cast<int>(v));
          binOf[v] = static_cast<int>(nb);
          anyMove = true;
        }
      }
    }
    if (!anyMove) break;
  }
}

}  // namespace

PlaceResult globalPlace(Netlist& nl, const Floorplan& fp, const PlacerOptions& opt) {
  if (opt.engine == PlaceEngine::kAnalytic) {
    return place::analyticGlobalPlace(nl, fp, opt);
  }
  PlaceResult result;
  result.engine = PlaceEngine::kB2B;

  // Movable instance indexing.
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

  // Work in um doubles.
  const double cxDie = dbuToUm(fp.die.center().x);
  const double cyDie = dbuToUm(fp.die.center().y);
  const double wDie = dbuToUm(fp.die.width());
  const double hDie = dbuToUm(fp.die.height());

  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    if (opt.useExistingPositions) {
      const Instance& inst = nl.instance(movable[static_cast<std::size_t>(v)]);
      x[static_cast<std::size_t>(v)] = dbuToUm(inst.pos.x);
      y[static_cast<std::size_t>(v)] = dbuToUm(inst.pos.y);
      continue;
    }
    const std::uint64_t h1 = mix64(kPlaceSeed * 2654435761ULL + static_cast<std::uint64_t>(v));
    const std::uint64_t h2 = mix64(h1);
    x[static_cast<std::size_t>(v)] =
        cxDie + (static_cast<double>(h1 % 10000) / 10000.0 - 0.5) * wDie * 0.5;
    y[static_cast<std::size_t>(v)] =
        cyDie + (static_cast<double>(h2 % 10000) / 10000.0 - 0.5) * hDie * 0.5;
  }

  // Initial pure B2B rounds: iteratively reweighting springs by 1/length
  // approximates the linear HPWL objective and lets connected clusters
  // contract before any spreading force appears.

  // Anchor targets (legalized positions of the previous round).
  std::vector<double> ax(x);
  std::vector<double> ay(y);
  bool haveAnchors = false;
  double anchorW = kAnchorWeightInit;

  constexpr double kMinLen = 0.5;  // um, avoids singular weights

  // The B2B pins of every net with two or more pins, flattened once: the
  // pins of springNets[k] are springPins[begin, end). A pin is a movable
  // variable (var >= 0) or a fixed location -- fixed instances and ports do
  // not move during global placement.
  struct SpringPin {
    int var;
    double fixedX;
    double fixedY;
  };
  struct SpringNet {
    std::size_t begin;
    std::size_t end;
    double weight;
  };
  std::vector<SpringPin> springPins;
  std::vector<SpringNet> springNets;
  for (NetId netId = 0; netId < nl.numNets(); ++netId) {
    const Net& net = nl.net(netId);
    if (net.pins.size() < 2) continue;
    const std::size_t begin = springPins.size();
    for (const NetPin& p : net.pins) {
      const int var = p.kind == NetPin::Kind::kInstPin ? varOf[static_cast<std::size_t>(p.inst)] : -1;
      if (var >= 0) {
        springPins.push_back({var, 0.0, 0.0});
      } else {
        const Point pp = nl.pinPosition(p);
        springPins.push_back({var, dbuToUm(pp.x), dbuToUm(pp.y)});
      }
    }
    springNets.push_back({begin, springPins.size(), net.isClock ? kClockNetWeight : 1.0});
  }

  // Builds and solves one axis' system; returns the CG iteration count.
  // Reads only that axis' coordinates and anchors and the fixed pins, and
  // writes only that axis' coordinates. Springs are added net by net in
  // NetId order, so the system -- and the solution -- is a pure function of
  // the inputs.
  auto buildAndSolve = [&](bool horizontal) {
    CgSystem sys(n);
    std::vector<double>& coord = horizontal ? x : y;
    struct PinCoord {
      int var;  // -1 for fixed
      double c;
    };
    std::vector<PinCoord> pins;
    for (const SpringNet& net : springNets) {
      pins.clear();
      for (std::size_t k = net.begin; k < net.end; ++k) {
        const SpringPin& p = springPins[k];
        const double fixed = horizontal ? p.fixedX : p.fixedY;
        pins.push_back({p.var, p.var >= 0 ? coord[static_cast<std::size_t>(p.var)] : fixed});
      }
      // Bound pins.
      std::size_t iMin = 0;
      std::size_t iMax = 0;
      for (std::size_t k = 1; k < pins.size(); ++k) {
        if (pins[k].c < pins[iMin].c) iMin = k;
        if (pins[k].c > pins[iMax].c) iMax = k;
      }
      const double scale = 2.0 * net.weight / static_cast<double>(pins.size() - 1);
      auto addSpring = [&](std::size_t a, std::size_t b) {
        if (a == b) return;
        const double len = std::max(kMinLen, std::abs(pins[a].c - pins[b].c));
        const double w = scale / len;
        if (pins[a].var >= 0 && pins[b].var >= 0) {
          sys.addEdge(pins[a].var, pins[b].var, w);
        } else if (pins[a].var >= 0) {
          sys.addFixed(pins[a].var, w, pins[b].c);
        } else if (pins[b].var >= 0) {
          sys.addFixed(pins[b].var, w, pins[a].c);
        }
      };
      addSpring(iMin, iMax);
      for (std::size_t k = 0; k < pins.size(); ++k) {
        if (k == iMin || k == iMax) continue;
        addSpring(k, iMin);
        addSpring(k, iMax);
      }
    }
    if (haveAnchors) {
      const std::vector<double>& anchor = horizontal ? ax : ay;
      for (int v = 0; v < n; ++v) sys.addFixed(v, anchorW, anchor[static_cast<std::size_t>(v)]);
    }
    return sys.solve(coord);
  };

  // The x and y systems share nothing mutable, so they run as the two
  // chunks of one parallelFor and each computes exactly what it computes
  // alone. Iteration counts are summed after the join.
  obs::Counter& cgIters = obs::counter("place.cg_iters");
  auto solveBoth = [&] {
    int iters[2] = {0, 0};
    par::parallelFor(
        0, 2, 1, [&](std::int64_t axis) { iters[axis] = buildAndSolve(axis == 0); },
        opt.numThreads);
    cgIters.add(iters[0] + iters[1]);
  };

  double prevHpwlUm = -1.0;
  double bestHpwlUm = -1.0;
  std::vector<Point> bestPos;
  bool bestLegal = false;
  LegalizeResult bestLegalResult;
  {
    obs::ScopedPhase pure("place.pure_solve");
    for (int r = 0; r < kPureSolveRounds; ++r) solveBoth();
  }
  DiffuseScratch diffuseScratch;  // capacities/buffers shared by all iterations
  for (int iter = 0; iter < opt.maxIters; ++iter) {
    obs::ScopedPhase it("place.iter");
    {
      obs::ScopedPhase solve("place.solve");
      solveBoth();
    }

    // Spread the quadratic solution to legal density, legalize, and read
    // the result back as anchors.
    {
      obs::ScopedPhase diffusePhase("place.diffuse");
      std::vector<double> sx(x);
      std::vector<double> sy(y);
      for (int v = 0; v < n; ++v) {
        sx[static_cast<std::size_t>(v)] =
            std::clamp(sx[static_cast<std::size_t>(v)], dbuToUm(fp.die.xlo), dbuToUm(fp.die.xhi));
        sy[static_cast<std::size_t>(v)] =
            std::clamp(sy[static_cast<std::size_t>(v)], dbuToUm(fp.die.ylo), dbuToUm(fp.die.yhi));
      }
      diffuse(nl, fp, movable, sx, sy, 0.75, 40,
              opt.legalizer.cellWidthScale * opt.legalizer.cellWidthScale, diffuseScratch);
      for (int v = 0; v < n; ++v) {
        Instance& inst = nl.instance(movable[static_cast<std::size_t>(v)]);
        inst.pos = Point{umToDbu(sx[static_cast<std::size_t>(v)]),
                         umToDbu(sy[static_cast<std::size_t>(v)])};
      }
    }
    {
      obs::ScopedPhase legalizePhase("place.legalize");
      result.legal = legalize(nl, fp, opt.legalizer);
    }
    result.iterations = iter + 1;

    for (int v = 0; v < n; ++v) {
      const Instance& inst = nl.instance(movable[static_cast<std::size_t>(v)]);
      ax[static_cast<std::size_t>(v)] = dbuToUm(inst.pos.x);
      ay[static_cast<std::size_t>(v)] = dbuToUm(inst.pos.y);
    }
    haveAnchors = true;
    anchorW *= kAnchorWeightGrowth;

    const double hpwlUm = dbuToUm(static_cast<Dbu>(nl.totalHpwl(opt.numThreads)));
    it.attr("hpwl_um", hpwlUm);
    it.attr("legal_fail", result.legal.success ? 0.0 : 1.0);
    obs::series("place.hpwl").record(hpwlUm);
    M3D_LOG(debug) << "place iter " << (iter + 1) << ": hpwl_um=" << hpwlUm
                   << " legal=" << (result.legal.success ? "yes" : "no");
    // Keep the best legalized iterate seen so far.
    if (result.legal.success && (!bestLegal || bestHpwlUm < 0.0 || hpwlUm < bestHpwlUm)) {
      bestLegal = true;
      bestHpwlUm = hpwlUm;
      bestLegalResult = result.legal;
      bestPos.resize(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) {
        bestPos[static_cast<std::size_t>(v)] = nl.instance(movable[static_cast<std::size_t>(v)]).pos;
      }
    }
    if (iter + 1 >= kMinIters && prevHpwlUm > 0.0 &&
        std::abs(prevHpwlUm - hpwlUm) < 0.005 * prevHpwlUm && result.legal.success) {
      break;
    }
    prevHpwlUm = hpwlUm;
  }

  if (bestLegal) {
    for (int v = 0; v < n; ++v) {
      nl.instance(movable[static_cast<std::size_t>(v)]).pos = bestPos[static_cast<std::size_t>(v)];
    }
    result.legal = bestLegalResult;
  }
  result.hpwlUm = dbuToUm(static_cast<Dbu>(nl.totalHpwl(opt.numThreads)));
  // Engine-neutral density overflow so BENCH_hpwl_ablation compares B2B and
  // analytic results on the same scale.
  result.overflow = place::densityOverflow(nl, fp, kTargetDensity, opt.numThreads);
  result.success = result.legal.success;
  return result;
}

}  // namespace m3d
