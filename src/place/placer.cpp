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

/// Nets per spring-build chunk (pure function of NetId range; thread-count
/// independent, see parallel.hpp determinism contract).
constexpr std::int64_t kNetGrain = 256;

constexpr int kPureSolveRounds = 5;         ///< initial B2B reweighting rounds without anchors.
constexpr double kAnchorWeightInit = 0.01;  ///< first anchor weight (grows geometrically).
constexpr double kAnchorWeightGrowth = 1.8;
constexpr int kMinIters = 9;                ///< don't trigger convergence before this.

/// One deferred solver update emitted by the parallel spring build.
/// b >= 0: addEdge(a, b, w); b < 0: addFixed(a, w, c).
struct SpringOp {
  int a;
  int b;
  double w;
  double c;
};

/// splitmix64: cheap deterministic hash for the initial jitter.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Buffers reused across diffuse() calls within one globalPlace(): the bin
/// capacities and cell areas are pure functions of (floorplan, targetUtil,
/// movable, areaScale) — all loop-invariant across placer iterations — and
/// the per-round bucket/demand vectors keep their allocations between
/// rounds and calls instead of reallocating nx*ny vectors each round.
struct DiffuseScratch {
  std::vector<double> cap;
  std::vector<double> areas;
  std::vector<std::vector<int>> cellsIn;
  std::vector<double> demand;
  bool primed = false;
};

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
    scratch.cellsIn.resize(static_cast<std::size_t>(nx * ny));
    scratch.primed = true;
  }
  const std::vector<double>& cap = scratch.cap;
  const std::vector<double>& areas = scratch.areas;
  std::vector<std::vector<int>>& cellsIn = scratch.cellsIn;
  std::vector<double>& demand = scratch.demand;

  for (int round = 0; round < rounds; ++round) {
    // Bucket cells by bin (buckets keep their capacity across rounds).
    for (auto& bucket : cellsIn) bucket.clear();
    demand.assign(static_cast<std::size_t>(nx * ny), 0.0);
    for (std::size_t v = 0; v < movable.size(); ++v) {
      const int bx = map.xIndex(umToDbu(x[v]));
      const int by = map.yIndex(umToDbu(y[v]));
      cellsIn[static_cast<std::size_t>(by * nx + bx)].push_back(static_cast<int>(v));
      demand[static_cast<std::size_t>(by * nx + bx)] += areas[v];
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
        auto& bucket = cellsIn[b];
        while (demand[b] > cap[b] && !bucket.empty()) {
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
          std::size_t pick = 0;
          double bestCoord = cands[best].dx > 0 || cands[best].dy > 0 ? -1e30 : 1e30;
          for (std::size_t k = 0; k < bucket.size(); ++k) {
            const double coord = cands[best].dx != 0 ? x[static_cast<std::size_t>(bucket[k])]
                                                     : y[static_cast<std::size_t>(bucket[k])];
            const bool positive = cands[best].dx > 0 || cands[best].dy > 0;
            if ((positive && coord > bestCoord) || (!positive && coord < bestCoord)) {
              bestCoord = coord;
              pick = k;
            }
          }
          const int v = bucket[pick];
          bucket[pick] = bucket.back();
          bucket.pop_back();
          const int nbx = bx + cands[best].dx;
          const int nby = by + cands[best].dy;
          const Rect nr = map.cellRect(nbx, nby);
          // Project into the neighbor bin, keeping the orthogonal coordinate.
          const double margin = dbuToUm(binSize) * 0.25;
          if (cands[best].dx != 0) {
            x[static_cast<std::size_t>(v)] =
                cands[best].dx > 0 ? dbuToUm(nr.xlo) + margin : dbuToUm(nr.xhi) - margin;
          } else {
            y[static_cast<std::size_t>(v)] =
                cands[best].dy > 0 ? dbuToUm(nr.ylo) + margin : dbuToUm(nr.yhi) - margin;
          }
          const std::size_t nb = static_cast<std::size_t>(nby * nx + nbx);
          demand[b] -= areas[static_cast<std::size_t>(v)];
          demand[nb] += areas[static_cast<std::size_t>(v)];
          cellsIn[nb].push_back(v);
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

  auto buildAndSolve = [&](bool horizontal) {
    CgSystem sys(n);
    std::vector<double>& coord = horizontal ? x : y;

    // Emit the B2B spring operations of one net into \p ops. Reads coord
    // (stable during the build; solve() writes it afterwards), so chunks of
    // nets can run concurrently.
    struct PinCoord {
      int var;      // -1 for fixed
      double c;
    };
    auto emitNet = [&](NetId netId, std::vector<PinCoord>& pins,
                       std::vector<SpringOp>& ops) {
      const Net& net = nl.net(netId);
      if (net.pins.size() < 2) return;
      const double netW = (net.isClock ? kClockNetWeight : 1.0);
      pins.clear();
      for (const NetPin& p : net.pins) {
        int var = -1;
        double c = 0.0;
        if (p.kind == NetPin::Kind::kInstPin) {
          var = varOf[static_cast<std::size_t>(p.inst)];
        }
        if (var >= 0) {
          c = coord[static_cast<std::size_t>(var)];
        } else {
          const Point pp = nl.pinPosition(p);
          c = dbuToUm(horizontal ? pp.x : pp.y);
        }
        pins.push_back({var, c});
      }
      // Bound pins.
      std::size_t iMin = 0;
      std::size_t iMax = 0;
      for (std::size_t k = 1; k < pins.size(); ++k) {
        if (pins[k].c < pins[iMin].c) iMin = k;
        if (pins[k].c > pins[iMax].c) iMax = k;
      }
      const double scale = 2.0 * netW / static_cast<double>(pins.size() - 1);
      auto addSpring = [&](std::size_t a, std::size_t b) {
        if (a == b) return;
        const double len = std::max(kMinLen, std::abs(pins[a].c - pins[b].c));
        const double w = scale / len;
        if (pins[a].var >= 0 && pins[b].var >= 0) {
          ops.push_back({pins[a].var, pins[b].var, w, 0.0});
        } else if (pins[a].var >= 0) {
          ops.push_back({pins[a].var, -1, w, pins[b].c});
        } else if (pins[b].var >= 0) {
          ops.push_back({pins[b].var, -1, w, pins[a].c});
        }
      };
      addSpring(iMin, iMax);
      for (std::size_t k = 0; k < pins.size(); ++k) {
        if (k == iMin || k == iMax) continue;
        addSpring(k, iMin);
        addSpring(k, iMax);
      }
    };

    // Per-chunk op buffers concatenated in ascending chunk order give the
    // exact op sequence of the sequential net loop, so the solver sees
    // byte-identical input at any thread count.
    std::vector<SpringOp> ops = par::parallelReduce<std::vector<SpringOp>>(
        0, nl.numNets(), kNetGrain, {},
        [&](std::int64_t lo, std::int64_t hi) {
          std::vector<PinCoord> pins;
          std::vector<SpringOp> out;
          for (std::int64_t netId = lo; netId < hi; ++netId) {
            emitNet(static_cast<NetId>(netId), pins, out);
          }
          return out;
        },
        [](std::vector<SpringOp> acc, std::vector<SpringOp> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        },
        opt.numThreads);
    for (const SpringOp& op : ops) {
      if (op.b >= 0) {
        sys.addEdge(op.a, op.b, op.w);
      } else {
        sys.addFixed(op.a, op.w, op.c);
      }
    }
    if (haveAnchors) {
      const std::vector<double>& anchor = horizontal ? ax : ay;
      for (int v = 0; v < n; ++v) sys.addFixed(v, anchorW, anchor[static_cast<std::size_t>(v)]);
    }
    sys.solve(coord);
  };

  double prevHpwlUm = -1.0;
  double bestHpwlUm = -1.0;
  std::vector<Point> bestPos;
  bool bestLegal = false;
  LegalizeResult bestLegalResult;
  for (int r = 0; r < kPureSolveRounds; ++r) {
    buildAndSolve(true);
    buildAndSolve(false);
  }
  DiffuseScratch diffuseScratch;  // capacities/buffers shared by all iterations
  for (int iter = 0; iter < opt.maxIters; ++iter) {
    obs::ScopedPhase it("place.iter");
    buildAndSolve(true);
    buildAndSolve(false);

    // Record the quadratic solution, spread it to legal density, legalize,
    // and read the result back as anchors.
    for (int v = 0; v < n; ++v) {
      Instance& inst = nl.instance(movable[static_cast<std::size_t>(v)]);
      const Dbu px = std::clamp<Dbu>(umToDbu(x[static_cast<std::size_t>(v)]), fp.die.xlo, fp.die.xhi);
      const Dbu py = std::clamp<Dbu>(umToDbu(y[static_cast<std::size_t>(v)]), fp.die.ylo, fp.die.yhi);
      inst.pos = Point{px, py};
    }
    result.quadraticHpwlUm = dbuToUm(static_cast<Dbu>(nl.totalHpwl(opt.numThreads)));
    {
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
    result.legal = legalize(nl, fp, opt.legalizer);
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
