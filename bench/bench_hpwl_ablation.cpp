/// \file bench_hpwl_ablation.cpp
/// Two HPWL studies sharing one binary:
///
/// 1. Paper Sec. I scaling claim (default mode): F2F stacking shrinks each
///    die dimension by sqrt(2), reducing the maximum half-perimeter
///    wirelength by "almost 30%". We verify both the analytic bound and the
///    measured placed-HPWL / routed-wirelength reductions of the case study.
///
/// 2. Placement-engine ablation (default + --smoke): the quadratic B2B +
///    diffusion engine vs the analytic ePlace-style engine
///    (PlacerOptions::engine), on both paper tile configs: placed HPWL,
///    place-stage density overflow, post-route overflow and wall-clock.
///    --smoke runs the tiny tile with both engines, asserts the analytic
///    engine wins HPWL and post-route overflow within 1.5x the B2B
///    wall-clock, and writes BENCH_hpwl_ablation_smoke.json for the
///    checked-in-baseline diff in scripts/quickcheck.sh.

#include <chrono>
#include <cmath>
#include <cstring>

#include "bench_common.hpp"

namespace {

using namespace m3d;
using namespace m3d::bench;

struct EngineRun {
  DesignMetrics metrics;
  double wallMs = 0.0;
};

/// One Macro-3D flow with the given placement engine. Signoff is skipped:
/// the ablation compares place/route QoR, and verification adds identical
/// cost to both sides.
EngineRun runEngine(const TileConfig& tile, PlaceEngine engine, bool fast) {
  FlowOptions opt;
  opt.placer.engine = engine;
  opt.signoff = false;
  if (fast) {
    opt.maxFreqRounds = 2;
    opt.optBase.maxPasses = 6;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const FlowOutput out = runFlowMacro3D(tile, opt);
  EngineRun r;
  r.metrics = out.metrics;
  r.wallMs = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                 .count();
  return r;
}

/// Emits the per-engine scalars under "<label>." and a table row.
void recordEngine(BenchJson& bj, Table& t, const std::string& label, const std::string& tile,
                  const char* engine, const EngineRun& r) {
  bj.scalar(label + ".place_hpwl_mm", r.metrics.placeHpwlMm);
  bj.scalar(label + ".place_overflow", r.metrics.placeOverflow);
  bj.scalar(label + ".route_overflowed_edges", static_cast<double>(r.metrics.overflowedEdges));
  bj.scalar(label + ".unrouted_nets", static_cast<double>(r.metrics.unroutedNets));
  bj.scalar(label + ".wall_ms", r.wallMs);
  t.addRow({tile, engine, Table::num(r.metrics.placeHpwlMm, 3),
            Table::num(r.metrics.placeOverflow, 4),
            std::to_string(r.metrics.overflowedEdges), std::to_string(r.metrics.unroutedNets),
            Table::num(r.wallMs / 1000.0, 2) + " s"});
}

double pctNum(double ours, double base) {
  return base == 0.0 ? 0.0 : (ours - base) / base * 100.0;
}

/// Compares analytic vs B2B on one tile; returns false when the analytic
/// engine misses an acceptance bound (HPWL, post-route overflow, wall).
bool compareEngines(const std::string& tileLabel, const EngineRun& b2b, const EngineRun& ana,
                    bool enforce) {
  const double hpwlDelta = pctNum(ana.metrics.placeHpwlMm, b2b.metrics.placeHpwlMm);
  const double wallRatio = b2b.wallMs > 0.0 ? ana.wallMs / b2b.wallMs : 1.0;
  std::printf("%s: analytic vs b2b: hpwl %+.1f%%, route overflow %d vs %d, wall %.2fx\n",
              tileLabel.c_str(), hpwlDelta, ana.metrics.overflowedEdges,
              b2b.metrics.overflowedEdges, wallRatio);
  if (!enforce) return true;
  bool ok = true;
  if (ana.metrics.placeHpwlMm >= b2b.metrics.placeHpwlMm) {
    std::printf("FAIL(%s): analytic HPWL %.3f mm did not beat b2b %.3f mm\n", tileLabel.c_str(),
                ana.metrics.placeHpwlMm, b2b.metrics.placeHpwlMm);
    ok = false;
  }
  if (ana.metrics.overflowedEdges > b2b.metrics.overflowedEdges) {
    std::printf("FAIL(%s): analytic post-route overflow %d worse than b2b %d\n",
                tileLabel.c_str(), ana.metrics.overflowedEdges, b2b.metrics.overflowedEdges);
    ok = false;
  }
  if (ana.metrics.unroutedNets > b2b.metrics.unroutedNets) {
    std::printf("FAIL(%s): analytic left %d nets unrouted vs b2b %d\n", tileLabel.c_str(),
                ana.metrics.unroutedNets, b2b.metrics.unroutedNets);
    ok = false;
  }
  // 250 ms absolute slack absorbs scheduler noise on sub-second smoke runs
  // (the gate runs inside a parallel ctest); a real blow-up still trips it.
  if (ana.wallMs > 1.5 * b2b.wallMs + 250.0) {
    std::printf("FAIL(%s): analytic wall %.0f ms exceeds 1.5x b2b %.0f ms\n", tileLabel.c_str(),
                ana.wallMs, b2b.wallMs);
    ok = false;
  }
  return ok;
}

int runSmoke() {
  BenchJson bj("hpwl_ablation_smoke");
  const TileConfig tile = makeTinyTileConfig();
  bj.config("tile", tile.name);
  Table t("Placement-engine ablation (tiny tile, smoke)");
  t.setHeader({"tile", "engine", "place HPWL", "overflow", "route ovfl", "unrouted", "wall"});

  const EngineRun b2b = runEngine(tile, PlaceEngine::kB2B, /*fast=*/true);
  const EngineRun ana = runEngine(tile, PlaceEngine::kAnalytic, /*fast=*/true);
  recordEngine(bj, t, "b2b_tiny", tile.name, "b2b", b2b);
  recordEngine(bj, t, "analytic_tiny", tile.name, "analytic", ana);
  std::cout << t.str() << "\n";

  const bool ok = compareEngines("tiny", b2b, ana, /*enforce=*/true);
  bj.scalar("analytic_beats_b2b", ok ? 1.0 : 0.0);
  bj.write();
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int runFull() {
  std::cout << "HPWL ablation bench" << (fastMode() ? " (FAST mode)" : "") << "\n\n";

  const TileConfig cfg = smallTile();
  BenchJson bj("hpwl_ablation");
  bj.config("tile", cfg.name);
  const FlowOutput d2 = runFlow2D(cfg);
  const FlowOutput m3 = runFlowMacro3D(cfg);
  bj.addFlow("2D", d2.metrics);
  bj.addFlow("Macro-3D", m3.metrics);

  const double analytic = (1.0 - 1.0 / std::sqrt(2.0)) * 100.0;
  bj.scalar("analytic_shrink_pct", analytic);

  Table t("Sec. I claim: sqrt(2) footprint shrink cuts max HPWL by ~30%");
  t.setHeader({"quantity", "paper/analytic", "measured"});
  t.addRow({"per-side shrink", "29.3%",
            pct(dbuToUm(m3.fp.die.width()), dbuToUm(d2.fp.die.width()))});
  t.addRow({"max HPWL (die half-perimeter)", "-29.3%",
            pct(dbuToUm(m3.fp.die.halfPerimeter()), dbuToUm(d2.fp.die.halfPerimeter()))});
  t.addRow({"placed HPWL", "(design dependent)",
            pct(m3.metrics.placeHpwlMm, d2.metrics.placeHpwlMm)});
  t.addRow({"routed wirelength", "-11.8% (paper Table II)",
            pct(m3.metrics.totalWirelengthM, d2.metrics.totalWirelengthM)});
  t.addRow({"critical-path wirelength", "-63.0% (paper Table II)",
            pct(m3.metrics.critPathWirelengthMm, d2.metrics.critPathWirelengthMm)});
  std::cout << t.str() << "\n";
  std::cout << "analytic per-side shrink = " << Table::num(analytic, 1) << "%\n";

  // The measured placed-HPWL reduction must fall between the analytic die
  // shrink applied to boundary-limited nets and zero (local nets do not
  // shrink); report where it lands.
  const double measured =
      (d2.metrics.placeHpwlMm - m3.metrics.placeHpwlMm) / d2.metrics.placeHpwlMm * 100.0;
  std::cout << "measured placed-HPWL reduction = " << Table::num(measured, 1)
            << "% (expected between 0% and ~29.3%+macro-adjacency bonus)" << std::endl;
  bj.scalar("measured_hpwl_reduction_pct", measured);

  // Engine ablation on both paper tile configs: B2B + diffusion vs the
  // analytic ePlace-style engine through the full Macro-3D flow.
  std::cout << "\nPlacement-engine ablation (Macro-3D flow, both tile configs)\n";
  Table et("B2B vs analytic placement engine");
  et.setHeader({"tile", "engine", "place HPWL", "overflow", "route ovfl", "unrouted", "wall"});
  bool allOk = true;
  const TileConfig tiles[] = {smallTile(), largeTile()};
  const char* labels[] = {"small", "large"};
  for (int i = 0; i < 2; ++i) {
    const EngineRun b2b = runEngine(tiles[i], PlaceEngine::kB2B, /*fast=*/false);
    const EngineRun ana = runEngine(tiles[i], PlaceEngine::kAnalytic, /*fast=*/false);
    recordEngine(bj, et, std::string("b2b_") + labels[i], tiles[i].name, "b2b", b2b);
    recordEngine(bj, et, std::string("analytic_") + labels[i], tiles[i].name, "analytic", ana);
    allOk = compareEngines(labels[i], b2b, ana, /*enforce=*/true) && allOk;
  }
  std::cout << et.str() << "\n";
  bj.scalar("analytic_beats_b2b", allOk ? 1.0 : 0.0);
  bj.write();
  if (!allOk) {
    std::printf("FAIL: analytic engine missed an acceptance bound (see above)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return smoke ? runSmoke() : runFull();
}
