/// \file test_place_analytic.cpp
/// Unit tests for the analytic (ePlace-style) global placer: the DCT/FFT
/// kernels, the Poisson density solve, the WA wirelength gradients (checked
/// against finite differences), and the end-to-end engine behind
/// PlacerOptions::engine == PlaceEngine::kAnalytic.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "geom/units.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "place/analytic/analytic_placer.hpp"
#include "place/analytic/density.hpp"
#include "place/analytic/fft.hpp"
#include "place/analytic/wirelength.hpp"
#include "place/legalizer.hpp"
#include "place/placer.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

TEST(PlaceAnalyticFft, CeilPow2) {
  EXPECT_EQ(place::ceilPow2(1), 1);
  EXPECT_EQ(place::ceilPow2(2), 2);
  EXPECT_EQ(place::ceilPow2(3), 4);
  EXPECT_EQ(place::ceilPow2(17), 32);
  EXPECT_EQ(place::ceilPow2(64), 64);
}

TEST(PlaceAnalyticFft, FftMatchesDft) {
  const int n = 16;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> a(n);
  for (auto& c : a) c = {dist(rng), dist(rng)};
  std::vector<std::complex<double>> f(a);
  place::fftPow2(f, /*inverse=*/false);
  for (int k = 0; k < n; ++k) {
    std::complex<double> ref{0.0, 0.0};
    for (int j = 0; j < n; ++j) {
      const double ang = -2.0 * M_PI * k * j / n;
      ref += a[static_cast<std::size_t>(j)] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(f[static_cast<std::size_t>(k)].real(), ref.real(), 1e-10);
    EXPECT_NEAR(f[static_cast<std::size_t>(k)].imag(), ref.imag(), 1e-10);
  }
}

TEST(PlaceAnalyticFft, DctRoundTrip) {
  const int n = 32;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);
  const std::vector<double> orig(x);
  std::vector<std::complex<double>> scratch;
  place::dct2InPlace(x, scratch);
  place::idct2InPlace(x, scratch);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], orig[static_cast<std::size_t>(i)], 1e-11);
  }
}

TEST(PlaceAnalyticFft, Dct2dRoundTripAndThreadInvariance) {
  const int nx = 16, ny = 8;
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> grid(static_cast<std::size_t>(nx) * ny);
  for (auto& v : grid) v = dist(rng);
  const std::vector<double> orig(grid);

  std::vector<double> t1(grid), t8(grid);
  place::dct2d(t1, nx, ny, 1);
  place::dct2d(t8, nx, ny, 8);
  EXPECT_EQ(t1, t8) << "2D DCT must be bit-identical across thread counts";

  place::idct2d(t1, nx, ny, 2);
  for (std::size_t i = 0; i < orig.size(); ++i) EXPECT_NEAR(t1[i], orig[i], 1e-10);
}

TEST(PlaceAnalyticPoisson, SolveMatchesDirectStencil) {
  // applyNeumannLaplacian(solvePoissonDct(rho)) must reproduce -(rho - mean)
  // exactly (the solve divides by the discrete stencil eigenvalues).
  const int nx = 16, ny = 8;
  const double hx = 2.5, hy = 1.75;
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> dist(0.0, 3.0);
  std::vector<double> rho(static_cast<std::size_t>(nx) * ny);
  double mean = 0.0;
  for (auto& v : rho) {
    v = dist(rng);
    mean += v;
  }
  mean /= static_cast<double>(rho.size());

  const std::vector<double> psi = place::solvePoissonDct(rho, nx, ny, hx, hy, 2);
  const std::vector<double> lap = place::applyNeumannLaplacian(psi, nx, ny, hx, hy);
  for (std::size_t i = 0; i < rho.size(); ++i) {
    EXPECT_NEAR(lap[i], -(rho[i] - mean), 1e-9) << "bin " << i;
  }
}

TEST(PlaceAnalyticPoisson, UniformDensityHasZeroField) {
  const int nx = 8, ny = 8;
  std::vector<double> rho(static_cast<std::size_t>(nx) * ny, 4.0);
  const std::vector<double> psi = place::solvePoissonDct(rho, nx, ny, 1.0, 1.0, 1);
  for (double p : psi) EXPECT_NEAR(p, 0.0, 1e-12);
}

// ---------------------------------------------------------------------------

class PlaceAnalyticFixture : public ::testing::Test {
 protected:
  PlaceAnalyticFixture() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {}

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

  /// Movable filter identical to the engines'.
  void collectMovable() {
    varOf_.assign(static_cast<std::size_t>(nl_.numInstances()), -1);
    movable_.clear();
    for (InstId i = 0; i < nl_.numInstances(); ++i) {
      if (nl_.instance(i).fixed || nl_.cellOf(i).isMacro()) continue;
      varOf_[static_cast<std::size_t>(i)] = static_cast<int>(movable_.size());
      movable_.push_back(i);
    }
  }

  /// Deterministic scatter into the die interior.
  void scatterPositions(std::vector<double>* x, std::vector<double>* y, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dx(0.0, dbuToUm(fp_.die.xhi) * 0.9);
    std::uniform_real_distribution<double> dy(0.0, dbuToUm(fp_.die.yhi) * 0.9);
    x->resize(movable_.size());
    y->resize(movable_.size());
    for (std::size_t v = 0; v < movable_.size(); ++v) {
      (*x)[v] = dx(rng);
      (*y)[v] = dy(rng);
    }
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
  Floorplan fp_;
  std::vector<InstId> movable_;
  std::vector<int> varOf_;
};

TEST_F(PlaceAnalyticFixture, WirelengthGradientMatchesFiniteDifference) {
  buildCloud(120, 20, 50);
  collectMovable();
  place::WirelengthModel wl(nl_, varOf_, static_cast<int>(movable_.size()),
                            /*clockNetWeight=*/2.0, /*splitNetWeight=*/1.5);
  std::vector<double> x, y;
  scatterPositions(&x, &y, 3);

  const double gamma = 4.0;
  wl.evaluate(x, y, gamma, 1);
  std::vector<double> gx(wl.gradX()), gy(wl.gradY());

  // Central differences on a sample of variables (full sweep is O(n^2)).
  const double h = 1e-5;
  for (std::size_t v = 0; v < movable_.size(); v += 17) {
    double save = x[v];
    x[v] = save + h;
    const double fp1 = wl.evaluate(x, y, gamma, 1);
    x[v] = save - h;
    const double fm1 = wl.evaluate(x, y, gamma, 1);
    x[v] = save;
    const double fd = (fp1 - fm1) / (2.0 * h);
    EXPECT_NEAR(gx[v], fd, 1e-4 * std::max(1.0, std::abs(fd))) << "d/dx of var " << v;

    save = y[v];
    y[v] = save + h;
    const double fp2 = wl.evaluate(x, y, gamma, 1);
    y[v] = save - h;
    const double fm2 = wl.evaluate(x, y, gamma, 1);
    y[v] = save;
    const double fdY = (fp2 - fm2) / (2.0 * h);
    EXPECT_NEAR(gy[v], fdY, 1e-4 * std::max(1.0, std::abs(fdY))) << "d/dy of var " << v;
  }
}

TEST_F(PlaceAnalyticFixture, WirelengthBoundsAndThreadInvariance) {
  buildCloud(200, 40, 60);
  collectMovable();
  place::WirelengthModel wl(nl_, varOf_, static_cast<int>(movable_.size()), 1.0, 1.0);
  std::vector<double> x, y;
  scatterPositions(&x, &y, 5);

  // The weighted average under-estimates the max pin (and over-estimates the
  // min), so smoothed WL lower-bounds the exact HPWL and converges to it
  // from below as gamma -> 0.
  const double exact = wl.hpwl(x, y, 1);
  const double smoothCoarse = wl.evaluate(x, y, /*gamma=*/8.0, 1);
  const double smoothFine = wl.evaluate(x, y, /*gamma=*/0.05, 1);
  EXPECT_LE(smoothCoarse, exact);
  EXPECT_LE(smoothFine, exact);
  EXPECT_LT(exact - smoothFine, exact - smoothCoarse);
  EXPECT_NEAR(smoothFine, exact, 0.02 * exact);

  // Bit-identical evaluation and gradients across thread counts.
  const double w1 = wl.evaluate(x, y, 2.0, 1);
  std::vector<double> gx1(wl.gradX()), gy1(wl.gradY());
  const double w8 = wl.evaluate(x, y, 2.0, 8);
  EXPECT_EQ(w1, w8);
  EXPECT_EQ(gx1, wl.gradX());
  EXPECT_EQ(gy1, wl.gradY());
}

TEST_F(PlaceAnalyticFixture, DensityGradientPushesApartAndThreadInvariant) {
  buildCloud(150, 30, 60);
  collectMovable();
  place::DensityGrid dg(nl_, fp_, movable_, /*targetDensity=*/0.9, 1);

  // Pile every cell into one spot: overflow must be high and the field must
  // push cells away from the pile (non-zero gradients).
  std::vector<double> x(movable_.size(), dbuToUm(fp_.die.xhi) * 0.5);
  std::vector<double> y(movable_.size(), dbuToUm(fp_.die.yhi) * 0.5);
  dg.update(x, y);
  const double piled = dg.overflow();
  EXPECT_GT(piled, 0.2);
  double gnorm = 0.0;
  for (std::size_t v = 0; v < movable_.size(); ++v) {
    gnorm += std::abs(dg.gradX()[v]) + std::abs(dg.gradY()[v]);
  }
  EXPECT_GT(gnorm, 0.0);

  // An even spread overflows (much) less.
  scatterPositions(&x, &y, 13);
  EXPECT_LT(dg.measureOverflow(x, y), piled);

  // Bit-identity across thread counts.
  dg.update(x, y);
  std::vector<double> gx1(dg.gradX()), gy1(dg.gradY());
  const double of1 = dg.overflow();
  place::DensityGrid dg8(nl_, fp_, movable_, 0.9, 8);
  dg8.update(x, y);
  EXPECT_EQ(of1, dg8.overflow());
  EXPECT_EQ(gx1, dg8.gradX());
  EXPECT_EQ(gy1, dg8.gradY());
}

TEST_F(PlaceAnalyticFixture, EngineProducesLegalPlacementBeatingRandom) {
  buildCloud(600, 100, 80);
  std::mt19937_64 rng(13);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos =
        Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
              static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  legalize(nl_, fp_);
  const std::int64_t randomHpwl = nl_.totalHpwl();

  PlacerOptions opt;
  opt.engine = PlaceEngine::kAnalytic;
  const PlaceResult pr = globalPlace(nl_, fp_, opt);
  EXPECT_TRUE(pr.success);
  EXPECT_EQ(pr.engine, PlaceEngine::kAnalytic);
  EXPECT_GT(pr.iterations, 0);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
  EXPECT_LT(nl_.totalHpwl(), randomHpwl / 2) << "analytic placer should beat random by >2x";
  // The optimizer trades density for wirelength; post-legalization the
  // placement must still be near the overflow target rather than clustered.
  EXPECT_LE(pr.overflow, 2.0 * place::kTargetOverflow)
      << "final placement should be spread to near the density target";
}

TEST_F(PlaceAnalyticFixture, EngineRespectsFixedInstancesAndBlockages) {
  buildCloud(300, 50, 70);
  const InstId macro = nl_.addInstance("fixed_block", lib_.findCell("DFF_X1"));
  nl_.instance(macro).pos = Point{umToDbu(30), snapUp(umToDbu(30), tech_.rowHeight)};
  nl_.instance(macro).fixed = true;
  const Point before = nl_.instance(macro).pos;
  fp_.blockages.push_back({Rect{0, 0, fp_.die.xhi / 4, fp_.die.yhi}, 1.0});

  PlacerOptions opt;
  opt.engine = PlaceEngine::kAnalytic;
  const PlaceResult pr = globalPlace(nl_, fp_, opt);
  EXPECT_TRUE(pr.success);
  EXPECT_EQ(nl_.instance(macro).pos, before);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    if (nl_.instance(i).fixed) continue;
    EXPECT_GE(nl_.instance(i).pos.x, fp_.die.xhi / 4) << nl_.instance(i).name;
  }
}

TEST(PlaceAnalyticEngine, NameParseRoundTrip) {
  EXPECT_STREQ(placeEngineName(PlaceEngine::kB2B), "b2b");
  EXPECT_STREQ(placeEngineName(PlaceEngine::kAnalytic), "analytic");
  PlaceEngine e = PlaceEngine::kB2B;
  EXPECT_TRUE(parsePlaceEngine("analytic", e));
  EXPECT_EQ(e, PlaceEngine::kAnalytic);
  EXPECT_TRUE(parsePlaceEngine("b2b", e));
  EXPECT_EQ(e, PlaceEngine::kB2B);
  e = PlaceEngine::kAnalytic;
  EXPECT_FALSE(parsePlaceEngine("quadratic", e));
  EXPECT_EQ(e, PlaceEngine::kAnalytic) << "failed parse must not clobber the output";
}

}  // namespace
}  // namespace m3d
