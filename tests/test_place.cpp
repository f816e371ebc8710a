#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "place/cg_solver.hpp"
#include "place/legalizer.hpp"
#include "place/placer.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

TEST(CgSolver, SolvesSmallSpdSystem) {
  // Two variables coupled by a spring, each anchored:
  //   min (x0-x1)^2 + 2*(x0-0)^2 + 2*(x1-10)^2
  CgSystem sys(2);
  sys.addEdge(0, 1, 2.0);
  sys.addFixed(0, 4.0, 0.0);
  sys.addFixed(1, 4.0, 10.0);
  std::vector<double> x{5.0, 5.0};
  sys.solve(x);
  // Analytic solution: x0 = 10/4 = 2.5, x1 = 7.5.
  EXPECT_NEAR(x[0], 2.5, 1e-4);
  EXPECT_NEAR(x[1], 7.5, 1e-4);
}

TEST(CgSolver, ChainEquilibrium) {
  // Chain of 5 nodes between fixed endpoints at 0 and 100: equal spacing.
  const int n = 5;
  CgSystem sys(n);
  for (int i = 0; i + 1 < n; ++i) sys.addEdge(i, i + 1, 1.0);
  sys.addFixed(0, 1.0, 0.0);
  sys.addFixed(n - 1, 1.0, 100.0);
  std::vector<double> x(n, 50.0);
  sys.solve(x);
  for (int i = 1; i < n; ++i) EXPECT_GT(x[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i - 1)]);
  EXPECT_NEAR(x[2], 50.0, 1e-3);  // symmetric middle
}

TEST(CgSolver, WarmStartConverges) {
  CgSystem sys(1);
  sys.addFixed(0, 3.0, 42.0);
  std::vector<double> x{41.9};
  const int iters = sys.solve(x);
  EXPECT_NEAR(x[0], 42.0, 1e-6);
  EXPECT_LE(iters, 3);
}

/// Reference solver: Jacobi-preconditioned CG with one pass per vector
/// operation (residual, preconditioner, each dot product, each update) over
/// the same COO scatter multiply. CgSystem::solve fuses these passes; it
/// must return the same x, bit for bit, and the same iteration count.
class ReferenceCgSystem {
 public:
  explicit ReferenceCgSystem(int n) : n_(n), diag_(static_cast<std::size_t>(n), 0.0),
                                      rhs_(static_cast<std::size_t>(n), 0.0) {}

  void addEdge(int i, int j, double w) {
    diag_[static_cast<std::size_t>(i)] += w;
    diag_[static_cast<std::size_t>(j)] += w;
    edges_.push_back({i, j, w});
  }

  void addFixed(int i, double w, double c) {
    diag_[static_cast<std::size_t>(i)] += w;
    rhs_[static_cast<std::size_t>(i)] += w * c;
  }

  int solve(std::vector<double>& x, int maxIters = 300, double tol = 1e-6) const {
    const std::size_t n = static_cast<std::size_t>(n_);
    if (n == 0) return 0;
    std::vector<double> r(n);
    std::vector<double> z(n);
    std::vector<double> p(n);
    std::vector<double> ap(n);

    multiply(x, r);
    double rhsNorm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = rhs_[i] - r[i];
      rhsNorm2 += rhs_[i] * rhs_[i];
    }
    const double threshold = tol * tol * std::max(rhsNorm2, 1e-30);
    auto precond = [&](const std::vector<double>& in, std::vector<double>& out) {
      for (std::size_t i = 0; i < n; ++i) out[i] = diag_[i] > 0.0 ? in[i] / diag_[i] : in[i];
    };
    precond(r, z);
    p = z;
    double rz = 0.0;
    for (std::size_t i = 0; i < n; ++i) rz += r[i] * z[i];

    int iter = 0;
    for (; iter < maxIters; ++iter) {
      double rNorm2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) rNorm2 += r[i] * r[i];
      if (rNorm2 <= threshold) break;
      multiply(p, ap);
      double pap = 0.0;
      for (std::size_t i = 0; i < n; ++i) pap += p[i] * ap[i];
      if (pap <= 0.0) break;
      const double alpha = rz / pap;
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      precond(r, z);
      double rzNew = 0.0;
      for (std::size_t i = 0; i < n; ++i) rzNew += r[i] * z[i];
      const double beta = rzNew / std::max(rz, 1e-30);
      rz = rzNew;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return iter;
  }

 private:
  struct Edge {
    int i;
    int j;
    double w;
  };

  void multiply(const std::vector<double>& x, std::vector<double>& y) const {
    for (std::size_t i = 0; i < static_cast<std::size_t>(n_); ++i) y[i] = diag_[i] * x[i];
    for (const Edge& e : edges_) {
      y[static_cast<std::size_t>(e.i)] -= e.w * x[static_cast<std::size_t>(e.j)];
      y[static_cast<std::size_t>(e.j)] -= e.w * x[static_cast<std::size_t>(e.i)];
    }
  }

  int n_;
  std::vector<double> diag_;
  std::vector<double> rhs_;
  std::vector<Edge> edges_;
};

/// Bitwise equality of two double vectors (NaN-safe, distinguishes -0.0).
bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(CgSolver, FusedSolveMatchesUnfusedReference) {
  std::mt19937_64 rng(2024);
  auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  int selfEdges = 0;
  int zeroDiagonalRows = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 400);
    // Rows [0, untouched) get no edge and no fixed term: zero diagonal.
    const int untouched = trial % 3 == 0 ? std::min(n - 1, 1 + static_cast<int>(rng() % 5)) : 0;
    const int live = n - untouched;
    // Anchored systems (every live row fixed) are SPD like B2B's anchored
    // rounds; the rest fix a random subset like its pure rounds.
    const bool anchored = trial % 2 == 1;
    CgSystem sys(n);
    ReferenceCgSystem ref(n);
    const int ops = live * (1 + static_cast<int>(rng() % 4));
    for (int k = 0; k < ops; ++k) {
      const int i = untouched + static_cast<int>(rng() % static_cast<std::uint64_t>(live));
      if (rng() % 5 == 0) {
        const double w = uniform(0.01, 8.0);
        const double c = uniform(-50.0, 150.0);
        sys.addFixed(i, w, c);
        ref.addFixed(i, w, c);
        continue;
      }
      // One edge in 40 is a self-edge, as when two pins of one cell share
      // a net.
      const int j = rng() % 40 == 0
                        ? i
                        : untouched + static_cast<int>(rng() % static_cast<std::uint64_t>(live));
      selfEdges += i == j ? 1 : 0;
      const double w = 2.0 / std::max(0.5, uniform(0.0, 60.0));
      sys.addEdge(i, j, w);
      ref.addEdge(i, j, w);
    }
    if (anchored) {
      for (int i = untouched; i < n; ++i) {
        const double c = uniform(0.0, 100.0);
        sys.addFixed(i, 0.05, c);
        ref.addFixed(i, 0.05, c);
      }
    }
    zeroDiagonalRows += untouched;

    // Cold start, a random warm start, a warm start from the converged
    // solution, and a capped run that stops on maxIters.
    std::vector<double> cold(static_cast<std::size_t>(n), 0.0);
    std::vector<double> warm(static_cast<std::size_t>(n));
    for (double& v : warm) v = uniform(0.0, 100.0);
    struct Start {
      std::vector<double> x;
      int maxIters;
    };
    std::vector<Start> starts = {{cold, 300}, {warm, 300}, {warm, 3}};
    {
      std::vector<double> solved = cold;
      ref.solve(solved);
      starts.push_back({solved, 300});
    }
    for (std::size_t s = 0; s < starts.size(); ++s) {
      std::vector<double> got = starts[s].x;
      std::vector<double> want = starts[s].x;
      const int gotIters = sys.solve(got, starts[s].maxIters);
      const int wantIters = ref.solve(want, starts[s].maxIters);
      ASSERT_EQ(gotIters, wantIters) << "trial " << trial << " start " << s;
      ASSERT_TRUE(sameBits(got, want)) << "trial " << trial << " start " << s;
    }
  }
  EXPECT_GT(selfEdges, 0);
  EXPECT_GT(zeroDiagonalRows, 0);
}

// ---------------------------------------------------------------------------

class PlaceFixture : public ::testing::Test {
 protected:
  PlaceFixture() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {}

  /// Small register-bounded cloud plus a floorplan.
  void buildCloud(int gates, int regs, Dbu dieUm) {
    const PortId clkPort = nl_.addPort("clk", PinDir::kInput, Side::kWest, true);
    const NetId clk = nl_.addNet("clk");
    nl_.connectPort(clk, clkPort);
    Rng rng(11);
    CloudSpec spec;
    spec.prefix = "c";
    spec.numGates = gates;
    spec.numRegs = regs;
    spec.clockNet = clk;
    buildLogicCloud(nl_, rng, spec);

    fp_.die = Rect{0, 0, snapUp(umToDbu(static_cast<double>(dieUm)), tech_.siteWidth),
                   snapUp(umToDbu(static_cast<double>(dieUm)), tech_.rowHeight)};
    fp_.rowHeight = tech_.rowHeight;
    fp_.siteWidth = tech_.siteWidth;
    assignPorts(nl_, fp_.die);
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
  Floorplan fp_;
};

TEST_F(PlaceFixture, LegalizerProducesLegalPlacement) {
  buildCloud(400, 60, 60);
  // Scatter cells deterministically.
  std::mt19937_64 rng(3);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos = Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
                                static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  const LegalizeResult r = legalize(nl_, fp_);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.failedCells, 0);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
}

TEST_F(PlaceFixture, LegalizerAvoidsFullBlockages) {
  buildCloud(300, 50, 60);
  fp_.blockages.push_back({Rect{0, 0, fp_.die.xhi / 2, fp_.die.yhi}, 1.0});
  std::mt19937_64 rng(5);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos =
        Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
              static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  const LegalizeResult r = legalize(nl_, fp_);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    EXPECT_GE(nl_.instance(i).pos.x, fp_.die.xhi / 2) << nl_.instance(i).name;
  }
}

TEST_F(PlaceFixture, PartialBlockageReducesCapacityButAllowsCells) {
  buildCloud(200, 40, 60);
  fp_.blockages.push_back({fp_.die, 0.5});  // half the die capacity, striped
  std::mt19937_64 rng(7);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos =
        Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
              static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  const LegalizeResult r = legalize(nl_, fp_);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
}

TEST_F(PlaceFixture, GlobalPlaceReducesHpwlVsRandom) {
  buildCloud(600, 100, 80);
  // Random baseline.
  std::mt19937_64 rng(13);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos =
        Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
              static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  legalize(nl_, fp_);
  const std::int64_t randomHpwl = nl_.totalHpwl();

  const PlaceResult pr = globalPlace(nl_, fp_);
  EXPECT_TRUE(pr.success);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
  EXPECT_LT(nl_.totalHpwl(), randomHpwl / 2) << "placer should beat random by >2x";
}

TEST_F(PlaceFixture, PlacementIsDeterministic) {
  buildCloud(300, 60, 70);
  globalPlace(nl_, fp_);
  std::vector<Point> first;
  for (InstId i = 0; i < nl_.numInstances(); ++i) first.push_back(nl_.instance(i).pos);

  // Rebuild the identical problem and re-place.
  Library lib2 = makeStdCellLib(tech_);
  Netlist nl2(&lib2);
  {
    const PortId clkPort = nl2.addPort("clk", PinDir::kInput, Side::kWest, true);
    const NetId clk = nl2.addNet("clk");
    nl2.connectPort(clk, clkPort);
    Rng rng(11);
    CloudSpec spec;
    spec.prefix = "c";
    spec.numGates = 300;
    spec.numRegs = 60;
    spec.clockNet = clk;
    buildLogicCloud(nl2, rng, spec);
    assignPorts(nl2, fp_.die);
  }
  globalPlace(nl2, fp_);
  for (InstId i = 0; i < nl2.numInstances(); ++i) {
    EXPECT_EQ(nl2.instance(i).pos, first[static_cast<std::size_t>(i)]) << i;
  }
}

TEST_F(PlaceFixture, FixedMacrosStayPut) {
  buildCloud(200, 40, 80);
  const InstId macro = nl_.addInstance("fixed_block", lib_.findCell("DFF_X1"));
  nl_.instance(macro).pos = Point{umToDbu(30), snapUp(umToDbu(30), tech_.rowHeight)};
  nl_.instance(macro).fixed = true;
  const Point before = nl_.instance(macro).pos;
  globalPlace(nl_, fp_);
  EXPECT_EQ(nl_.instance(macro).pos, before);
}

TEST(Legalizer, FailsGracefullyWhenNoRoom) {
  const TechNode tech = makeTech28(6);
  Library lib = makeStdCellLib(tech);
  Netlist nl(&lib);
  // 100 DFFs into a die that fits only a few.
  for (int i = 0; i < 100; ++i) {
    nl.addInstance("d" + std::to_string(i), lib.findCell("DFF_X2"));
  }
  Floorplan fp;
  fp.die = Rect{0, 0, umToDbu(10), snapUp(umToDbu(2.4), tech.rowHeight)};
  fp.rowHeight = tech.rowHeight;
  fp.siteWidth = tech.siteWidth;
  const LegalizeResult r = legalize(nl, fp);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.failedCells, 0);
}

}  // namespace
}  // namespace m3d
