/// \file bench_route.cpp
/// Router benchmark: the windowed A* with its deterministic fallback ladder
/// against full-grid search, thread scaling of the batch router, and the
/// incremental ECO reroute.
///
/// Modes:
///  - default: runs the Macro-3D flow once on the OpenPiton small-cache
///    tile to obtain a real placed design, then re-routes it with full-grid
///    and windowed (default) search and with the default router at 1/2/4/8
///    threads, printing tables and writing BENCH_route.json (wall-clock,
///    nodes popped/relaxed, QoR per configuration plus speedup scalars).
///    M3D_FAST=1 shrinks the tile.
///  - --smoke: a synthetic scatter problem on a tiny grid; asserts that
///    windowed search pops strictly fewer nodes than the full-grid search
///    at equal-or-better QoR, that the batch router is bit-identical at 1
///    and 2 threads, and that an ECO reroute reuses work (the invariants
///    quickcheck relies on); exits non-zero on violation. Writes
///    BENCH_route_smoke.json so quickcheck can diff smoke runs with
///    `m3d_report diff`. Used by the `perf` ctest label.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/macro3d.hpp"
#include "lib/stdcell_factory.hpp"
#include "report/table.hpp"
#include "route/route_grid.hpp"
#include "route/router.hpp"

namespace m3d {
namespace {

/// One search configuration under test.
struct KernelConfig {
  const char* label;
  int searchHaloGcells;  // < 0 = full grid
};

/// Full-grid search against the shipped default (RouterOptions's 1-gcell
/// halo): wider halos were measured to leave the window non-binding on the
/// benchmark tiles (same pops as full grid), while the tight halo both
/// prunes the search and lowers overflow by keeping negotiation local.
const KernelConfig kFullGrid{"full grid", -1};
const KernelConfig kDefaultKernel{"windowed A* (default)", RouterOptions{}.searchHaloGcells};
const KernelConfig kConfigs[] = {kFullGrid, kDefaultKernel};

struct RunStats {
  double wallS = 0.0;
  RoutingResult routes;
};

RunStats routeOnce(const Netlist& nl, const Rect& die, const Beol& beol,
                   const RouteGridOptions& gridOpt, const KernelConfig& cfg,
                   const RouterOptions& base = RouterOptions{}, int reps = 1) {
  RouterOptions ropt = base;
  ropt.searchHaloGcells = cfg.searchHaloGcells;
  RunStats out;
  // Routing is deterministic, so repeats produce identical results; the
  // minimum wall time is the least noisy estimate.
  for (int rep = 0; rep < reps; ++rep) {
    RouteGrid grid(nl, die, beol, gridOpt);
    const auto t0 = std::chrono::steady_clock::now();
    RoutingResult r = routeDesign(nl, grid, ropt);
    const double wallS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (rep == 0 || wallS < out.wallS) out.wallS = wallS;
    if (rep == 0) out.routes = std::move(r);
  }
  return out;
}

/// Synthetic congested cluster: \p numNets random 2-4 pin nets packed into
/// the center band of a 200x200um die (50x50 gcells, 6 metals). With track
/// capacity derated hard (see runSmoke), negotiation inflates costs inside
/// the cluster and the full-grid search floods far outside the nets'
/// bounding boxes -- exactly the waste the windowed kernel removes.
struct ClusterProblem {
  ClusterProblem(int numNets, std::uint64_t seed)
      : tech(makeTech28(6)), lib(makeStdCellLib(tech)), nl(&lib) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> coord(70, 130);
    std::uniform_int_distribution<int> fanout(1, 3);
    int instances = 0;
    auto addInv = [&]() {
      const InstId i = nl.addInstance("i" + std::to_string(instances++), lib.findCell("INV_X1"));
      nl.instance(i).pos = Point{umToDbu(static_cast<double>(coord(rng))),
                                 umToDbu(static_cast<double>(coord(rng)))};
      return i;
    };
    for (int n = 0; n < numNets; ++n) {
      const InstId drv = addInv();
      const NetId net = nl.addNet("n" + std::to_string(n));
      nl.connect(net, drv, "Y");
      const int sinks = fanout(rng);
      for (int s = 0; s < sinks; ++s) nl.connect(net, addInv(), "A");
    }
  }

  TechNode tech;
  Library lib;
  Netlist nl;
  Rect die{0, 0, umToDbu(200), umToDbu(200)};
};

/// Returns true when \p ours is no worse than \p base on every QoR axis the
/// acceptance criteria name.
bool qorNoWorse(const RoutingResult& ours, const RoutingResult& base) {
  return ours.unroutedNets <= base.unroutedNets && ours.totalOverflow <= base.totalOverflow &&
         ours.f2fBumps <= base.f2fBumps;
}

/// Segment-level bit-identity (the determinism bar the scaling curve and the
/// smoke's thread gate hold the router to).
bool routesIdentical(const RoutingResult& a, const RoutingResult& b) {
  if (a.nets.size() != b.nets.size()) return false;
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    if (a.nets[n].routed != b.nets[n].routed) return false;
    if (a.nets[n].segs.size() != b.nets[n].segs.size()) return false;
    for (std::size_t s = 0; s < a.nets[n].segs.size(); ++s) {
      const RouteSeg& x = a.nets[n].segs[s];
      const RouteSeg& y = b.nets[n].segs[s];
      if (!(x.isVia == y.isVia && x.layer == y.layer && x.fromNode == y.fromNode &&
            x.toNode == y.toNode)) {
        return false;
      }
    }
  }
  return a.nodesPopped == b.nodesPopped && a.nodesRelaxed == b.nodesRelaxed &&
         a.windowFallbacks == b.windowFallbacks && a.totalOverflow == b.totalOverflow;
}

int runSmoke() {
  // Constructed first so the emitted wall_s covers the whole smoke run.
  bench::BenchJson json("route_smoke");
  ClusterProblem prob(120, 1234);
  RouteGridOptions gridOpt;
  gridOpt.trackUtilization = 0.06;  // force hard negotiation inside the cluster
  gridOpt.m1Utilization = 0.05;
  RouterOptions base;
  base.maxIterations = 8;  // enough rounds for history costs to inflate g
  // halo=2 stresses the window logic (the congested searches would flood
  // well past the net bounding boxes without it); the widening ladder keeps
  // every net routable regardless.
  const KernelConfig windowed{"windowed", 2};
  const RunStats full = routeOnce(prob.nl, prob.die, prob.tech.beol, gridOpt, kFullGrid, base);
  const RunStats win = routeOnce(prob.nl, prob.die, prob.tech.beol, gridOpt, windowed, base);
  std::printf("route smoke: pops full-grid=%lld windowed=%lld fallbacks=%lld\n",
              static_cast<long long>(full.routes.nodesPopped),
              static_cast<long long>(win.routes.nodesPopped),
              static_cast<long long>(win.routes.windowFallbacks));
  std::printf("  full: iters=%d overflow=%lld unrouted=%d | win: iters=%d overflow=%lld "
              "unrouted=%d\n",
              full.routes.iterationsUsed, static_cast<long long>(full.routes.totalOverflow),
              full.routes.unroutedNets, win.routes.iterationsUsed,
              static_cast<long long>(win.routes.totalOverflow), win.routes.unroutedNets);
  if (win.routes.nodesPopped >= full.routes.nodesPopped) {
    std::printf("FAIL: windowed search did not reduce nodes popped\n");
    return 1;
  }
  if (!qorNoWorse(win.routes, full.routes)) {
    std::printf("FAIL: windowed QoR worse than full grid (unrouted %d vs %d, overflow %lld vs "
                "%lld)\n",
                win.routes.unroutedNets, full.routes.unroutedNets,
                static_cast<long long>(win.routes.totalOverflow),
                static_cast<long long>(full.routes.totalOverflow));
    return 1;
  }
  // Batch router threads: the batch decomposition is a pure function of
  // the options, so 1- and 2-thread runs must be bit-identical (segments
  // AND kernel counters). Gates the threaded path without needing real
  // cores.
  RouterOptions one = base;
  one.numThreads = 1;
  RouterOptions two = base;
  two.numThreads = 2;
  const RunStats t1 = routeOnce(prob.nl, prob.die, prob.tech.beol, gridOpt, windowed, one);
  const RunStats t2 = routeOnce(prob.nl, prob.die, prob.tech.beol, gridOpt, windowed, two);
  const bool threadsIdentical = routesIdentical(t1.routes, t2.routes);
  std::printf("  threads: pops=%lld overflow=%lld bit-identical(1v2)=%s\n",
              static_cast<long long>(t1.routes.nodesPopped),
              static_cast<long long>(t1.routes.totalOverflow), threadsIdentical ? "yes" : "NO");
  if (!threadsIdentical || !qorNoWorse(t1.routes, full.routes)) {
    std::printf("FAIL: batch router broke determinism or QoR across thread counts\n");
    return 1;
  }

  // ECO smoke: raise the top metal's track capacity (pitch/2) and reroute
  // incrementally off the previous result. Only nets sitting on *violated*
  // changed edges may rip (a capacity increase violates none), and the
  // reused majority must come through byte-identical. Uses the DEFAULT
  // capacity model (not the derated smoke grid) so the baseline converges
  // without leaning on the top metal.
  const RouteGridOptions ecoGridOpt;
  Beol ecoBeol = prob.tech.beol;
  ecoBeol.metal(ecoBeol.numMetals() - 1).pitch /= 2;
  RouteGrid ecoPrevGrid(prob.nl, prob.die, prob.tech.beol, ecoGridOpt);
  RoutingResult ecoPrev = routeDesign(prob.nl, ecoPrevGrid, base);
  RouteGrid ecoGrid(prob.nl, prob.die, ecoBeol, ecoGridOpt);
  const RoutingResult eco = routeDesignEco(prob.nl, ecoGrid, ecoPrevGrid, ecoPrev, base);
  std::printf("  eco: dirty_gcells=%lld ripped=%lld reused=%lld overflow=%lld\n",
              static_cast<long long>(eco.ecoDirtyGcells),
              static_cast<long long>(eco.ecoNetsRipped),
              static_cast<long long>(eco.ecoNetsReused),
              static_cast<long long>(eco.totalOverflow));
  if (eco.ecoDirtyGcells <= 0 || eco.ecoNetsReused <= 0 || eco.unroutedNets > 0) {
    std::printf("FAIL: eco reroute did not reuse work (or left nets unrouted)\n");
    return 1;
  }

  // Machine-readable result for the quickcheck self-consistency smoke:
  // two smoke runs diffed by `m3d_report diff` must come out clean.
  json.config("problem", "cluster-120");
  json.scalar("pops_full", static_cast<double>(full.routes.nodesPopped));
  json.scalar("pops_windowed", static_cast<double>(win.routes.nodesPopped));
  json.scalar("window_fallbacks", static_cast<double>(win.routes.windowFallbacks));
  json.scalar("total_overflow", static_cast<double>(win.routes.totalOverflow));
  json.scalar("unrouted_nets", static_cast<double>(win.routes.unroutedNets));
  json.scalar("f2f_bumps", static_cast<double>(win.routes.f2fBumps));
  json.scalar("threads.pops", static_cast<double>(t1.routes.nodesPopped));
  json.scalar("threads.bit_identical", threadsIdentical ? 1.0 : 0.0);
  json.scalar("eco.dirty_gcells", static_cast<double>(eco.ecoDirtyGcells));
  json.scalar("eco.nets_ripped", static_cast<double>(eco.ecoNetsRipped));
  json.scalar("eco.nets_reused", static_cast<double>(eco.ecoNetsReused));
  json.scalar("eco.total_overflow", static_cast<double>(eco.totalOverflow));
  json.write();
  std::printf("PASS\n");
  return 0;
}

int runFull() {
  const TileConfig tile = bench::smallTile();
  FlowOptions fopt;
  fopt.signoff = false;  // re-route QoR is compared below; skip signoff cost
  std::printf("Placing %s via the Macro-3D flow (routing benchmark input)...\n",
              tile.name.c_str());
  FlowOutput out = runFlowMacro3D(tile, fopt);
  const Netlist& nl = out.tile->netlist;

  bench::BenchJson json("route");
  json.config("tile", tile.name);
  json.config("flow", "macro3d");

  Table t("Router kernel configurations (re-route of the placed tile)");
  t.setHeader({"config", "wall_s", "pops", "relaxed", "fallbacks", "unrouted", "overflow",
               "bumps", "wl_um"});
  const int reps = bench::fastMode() ? 1 : 5;
  std::vector<RunStats> stats;
  for (const KernelConfig& cfg : kConfigs) {
    stats.push_back(routeOnce(nl, out.fp.die, out.routingBeol, fopt.grid, cfg,
                              RouterOptions{}, reps));
    const RunStats& s = stats.back();
    t.addRow({cfg.label, Table::num(s.wallS, 3), std::to_string(s.routes.nodesPopped),
              std::to_string(s.routes.nodesRelaxed), std::to_string(s.routes.windowFallbacks),
              std::to_string(s.routes.unroutedNets), std::to_string(s.routes.totalOverflow),
              std::to_string(s.routes.f2fBumps), Table::num(s.routes.totalWirelengthUm, 0)});
    const std::string prefix = std::string("config") + std::to_string(stats.size() - 1) + ".";
    json.config(prefix + "label", cfg.label);
    json.scalar(prefix + "wall_s", s.wallS);
    json.scalar(prefix + "nodes_popped", static_cast<double>(s.routes.nodesPopped));
    json.scalar(prefix + "nodes_relaxed", static_cast<double>(s.routes.nodesRelaxed));
    json.scalar(prefix + "window_fallbacks", static_cast<double>(s.routes.windowFallbacks));
    json.scalar(prefix + "unrouted_nets", s.routes.unroutedNets);
    json.scalar(prefix + "total_overflow", static_cast<double>(s.routes.totalOverflow));
    json.scalar(prefix + "f2f_bumps", static_cast<double>(s.routes.f2fBumps));
    json.scalar(prefix + "wirelength_um", s.routes.totalWirelengthUm);
  }
  t.print(std::cout);

  const RunStats& base = stats.front();
  const RunStats& ours = stats.back();
  const double wallSpeedup = ours.wallS > 0.0 ? base.wallS / ours.wallS : 0.0;
  const double popReduction = ours.routes.nodesPopped > 0
                                  ? static_cast<double>(base.routes.nodesPopped) /
                                        static_cast<double>(ours.routes.nodesPopped)
                                  : 0.0;
  json.scalar("speedup.wall", wallSpeedup);
  json.scalar("speedup.nodes_popped", popReduction);
  json.scalar("qor_no_worse", qorNoWorse(ours.routes, base.routes) ? 1.0 : 0.0);
  std::printf("\nspeedup: wall %.2fx, nodes popped %.2fx, QoR no worse: %s\n", wallSpeedup,
              popReduction, qorNoWorse(ours.routes, base.routes) ? "yes" : "NO");

  // --- Thread-scaling curve of the default batch router. Routes are
  // bit-identical at every thread count by construction; the curve records
  // how wall-clock responds to threads on THIS machine, so hardware_threads
  // is recorded alongside (speedup is meaningless on a single-core
  // container and is asserted only by the determinism gate, never by wall
  // time).
  Table ts("Default router thread scaling");
  ts.setHeader({"threads", "wall_s", "pops", "overflow"});
  RunStats scale1;
  bool scaleIdentical = true;
  for (const int threads : {1, 2, 4, 8}) {
    RouterOptions ropt;
    ropt.numThreads = threads;
    const RunStats s =
        routeOnce(nl, out.fp.die, out.routingBeol, fopt.grid, kDefaultKernel, ropt, reps);
    if (threads == 1) {
      scale1 = s;
    } else {
      scaleIdentical = scaleIdentical && routesIdentical(scale1.routes, s.routes);
    }
    ts.addRow({std::to_string(threads), Table::num(s.wallS, 3),
               std::to_string(s.routes.nodesPopped), std::to_string(s.routes.totalOverflow)});
    const std::string prefix = "scaling.threads" + std::to_string(threads) + ".";
    json.scalar(prefix + "wall_s", s.wallS);
    if (threads == 8 && scale1.wallS > 0.0 && s.wallS > 0.0) {
      json.scalar("scaling.speedup8", scale1.wallS / s.wallS);
      std::printf("router scaling: 8-thread speedup %.2fx on %u hardware threads\n",
                  scale1.wallS / s.wallS, std::thread::hardware_concurrency());
    }
  }
  ts.print(std::cout);
  json.scalar("scaling.bit_identical", scaleIdentical ? 1.0 : 0.0);
  json.scalar("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  if (!scaleIdentical) {
    std::printf("FAIL: routes not bit-identical across thread counts\n");
    return 1;
  }

  // --- ECO bump-pitch scenario: halve the F2F bond-layer pitch (denser
  // bumps) and reroute incrementally off the previous full route. The
  // placed tile is macro-dominated -- a majority of its nets cross the
  // bond layer -- so the <30% rip acceptance bar is only reachable because
  // the ECO rips on *violated* changed edges (previous usage above the new
  // capacity), not on every capacity change: densifying the bumps violates
  // nothing beyond the few sites whose baseline usage beat even the doubled
  // budget. Overflow vs the from-scratch route is recorded; exact equality
  // only holds when both negotiations converge overflow-free (asserted at
  // that scale in the EcoRoute unit suite).
  {
    RouteGrid prevGrid(nl, out.fp.die, out.routingBeol, fopt.grid);
    const int f2fCut = prevGrid.f2fCutLayer();
    RouterOptions ropt;  // shipped default kernel
    RoutingResult prevRoutes = routeDesign(nl, prevGrid, ropt);
    Beol ecoBeol = out.routingBeol;
    if (f2fCut >= 0) {
      ecoBeol.cut(f2fCut).pitch /= 2;
    } else {
      ecoBeol.metal(ecoBeol.numMetals() - 1).pitch /= 2;  // 2D fallback
    }
    RouteGrid ecoGrid(nl, out.fp.die, ecoBeol, fopt.grid);
    const auto tEco = std::chrono::steady_clock::now();
    const RoutingResult eco = routeDesignEco(nl, ecoGrid, prevGrid, prevRoutes, ropt);
    const double ecoWall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - tEco).count();
    RouteGrid fullGrid(nl, out.fp.die, ecoBeol, fopt.grid);
    const auto tFull = std::chrono::steady_clock::now();
    const RoutingResult fullR = routeDesign(nl, fullGrid, ropt);
    const double fullWall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - tFull).count();
    const double total = static_cast<double>(eco.ecoNetsRipped + eco.ecoNetsReused);
    const double rippedFrac =
        total > 0.0 ? static_cast<double>(eco.ecoNetsRipped) / total : 1.0;
    const bool overflowEqual = eco.totalOverflow == fullR.totalOverflow;
    std::printf("eco bump-pitch: ripped %.1f%% (%lld/%.0f) dirty_gcells=%lld wall %.3fs vs "
                "full %.3fs, overflow %lld vs %lld (%s)\n",
                100.0 * rippedFrac, static_cast<long long>(eco.ecoNetsRipped), total,
                static_cast<long long>(eco.ecoDirtyGcells), ecoWall, fullWall,
                static_cast<long long>(eco.totalOverflow),
                static_cast<long long>(fullR.totalOverflow), overflowEqual ? "equal" : "DIFF");
    json.scalar("eco.ripped_frac", rippedFrac);
    json.scalar("eco.reused_frac", total > 0.0 ? 1.0 - rippedFrac : 0.0);
    json.scalar("eco.dirty_gcells", static_cast<double>(eco.ecoDirtyGcells));
    json.scalar("eco.wall_s", ecoWall);
    json.scalar("eco.wall_full_s", fullWall);
    json.scalar("eco.overflow_eco", static_cast<double>(eco.totalOverflow));
    json.scalar("eco.overflow_full", static_cast<double>(fullR.totalOverflow));
    json.scalar("eco.overflow_equal", overflowEqual ? 1.0 : 0.0);
    if (rippedFrac >= 0.30 || eco.ecoNetsReused <= 0 || eco.unroutedNets > 0) {
      std::printf("FAIL: eco bump-pitch scenario ripped >= 30%% of nets "
                  "(or reused nothing / left nets unrouted)\n");
      return 1;
    }
  }

  const std::string path = json.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace m3d

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return m3d::runSmoke();
  }
  return m3d::runFull();
}
