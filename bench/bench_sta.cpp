/// \file bench_sta.cpp
/// Incremental-STA engine bench: measures what the persistent engine buys
/// over from-scratch rebuilds, plus the cost and value of the min-period
/// solve and the opt-stage QoR. Three parts:
///
///  A. Per-edit micro: the same resize sequence timed against (a) a fresh
///     Sta per edit -- the oracle -- and (b) one persistent engine fed
///     applyResize + invalidateNets, asserting the post-edit WNS values are
///     identical (the speedup only counts if the answers match bit for
///     bit).
///  B. Min-period: the exact single-sweep findMinPeriod, caches busted
///     between reps.
///  C. Opt stage: optimizeForMaxFrequency over the placed tile, recording
///     its wall clock, min period, and sizing/buffering counts.
///
/// The full run uses the paper's large-cache tile; --smoke runs the tiny
/// tile and writes BENCH_sta_smoke.json for the checked-in-baseline diff in
/// scripts/quickcheck.sh.

#include <chrono>
#include <cstring>

#include "bench_common.hpp"
#include "opt/optimizer.hpp"

namespace {

using namespace m3d;
using namespace m3d::bench;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A placed, unoptimized tile (the state the pre-route opt stage sees):
/// place + CTS only, no opt stages, no routing-dependent steps needed.
FlowOutput placedTile(const TileConfig& cfg) {
  FlowOptions fopt;
  fopt.preRouteOpt = false;
  fopt.postRouteOpt = false;
  fopt.signoff = false;
  return runFlowMacro3D(cfg, fopt);
}

/// Nets whose pin caps change when \p inst changes size.
std::vector<NetId> inputNetsOf(const Netlist& nl, InstId inst) {
  std::vector<NetId> out;
  const CellType& c = nl.cellOf(inst);
  for (std::size_t p = 0; p < c.pins.size(); ++p) {
    if (c.pins[p].dir != PinDir::kInput) continue;
    const NetId n = nl.instance(inst).pinNets[p];
    if (n != kInvalidId) out.push_back(n);
  }
  return out;
}

/// Deterministic resize sequence: every sizable cell in instance order,
/// alternating up/down so the netlist never saturates. Returns the edited
/// instances (at most \p maxEdits).
std::vector<InstId> pickEdits(const Netlist& nl, int maxEdits) {
  std::vector<InstId> edits;
  const Library& lib = nl.library();
  for (InstId i = 0; i < nl.numInstances() && static_cast<int>(edits.size()) < maxEdits; ++i) {
    const CellType& c = nl.cellOf(i);
    if (c.isMacro() || c.cls == CellClass::kFiller || c.family.empty()) continue;
    const bool up = (edits.size() % 2) == 0;
    const CellTypeId next =
        up ? lib.nextSizeUp(nl.instance(i).type) : lib.nextSizeDown(nl.instance(i).type);
    if (next == kInvalidCellType) continue;
    edits.push_back(i);
  }
  return edits;
}

/// Applies edit \p k of the sequence to \p nl and refreshes parasitics;
/// mirrors into \p sta when non-null. Returns the resize target.
void applyEdit(Netlist& nl, std::vector<NetParasitics>& paras, ParasiticsProvider& provider,
               InstId inst, bool up, Sta* sta) {
  const Library& lib = nl.library();
  const CellTypeId next =
      up ? lib.nextSizeUp(nl.instance(inst).type) : lib.nextSizeDown(nl.instance(inst).type);
  if (next == kInvalidCellType) return;
  nl.resize(inst, next);
  if (sta != nullptr) sta->applyResize(inst);
  const std::vector<NetId> dirty = inputNetsOf(nl, inst);
  provider.refresh(nl, dirty, paras);
  if (sta != nullptr) sta->invalidateNets(dirty);
}

struct MicroResult {
  double fullWallS = 0.0;
  double incrWallS = 0.0;
  std::vector<double> fullWns;
  std::vector<double> incrWns;
};

/// Part A: per-edit WNS probe cost, fresh-Sta-per-edit vs persistent.
MicroResult runEditMicro(const Netlist& base, const EstimationOptions& eopt, double period,
                         int maxEdits) {
  MicroResult r;
  const std::vector<InstId> edits = pickEdits(base, maxEdits);
  {
    Netlist nl = base;
    std::vector<NetParasitics> paras = estimateDesign(nl, eopt);
    EstimatedParasitics provider(eopt);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < edits.size(); ++k) {
      applyEdit(nl, paras, provider, edits[k], (k % 2) == 0, nullptr);
      const Sta fresh(nl, paras, nullptr, kTypicalCorner, 1);
      r.fullWns.push_back(fresh.worstSlack(period));
    }
    r.fullWallS = secondsSince(t0);
  }
  {
    Netlist nl = base;
    std::vector<NetParasitics> paras = estimateDesign(nl, eopt);
    EstimatedParasitics provider(eopt);
    const auto t0 = Clock::now();
    Sta sta(nl, paras, nullptr, kTypicalCorner, 1);
    for (std::size_t k = 0; k < edits.size(); ++k) {
      applyEdit(nl, paras, provider, edits[k], (k % 2) == 0, &sta);
      r.incrWns.push_back(sta.worstSlack(period));
    }
    r.incrWallS = secondsSince(t0);
  }
  return r;
}

struct OptResult {
  double wallS = 0.0;
  double minPeriod = 0.0;
  int cellsResized = 0;
  int buffersInserted = 0;
};

/// Part C: the max-frequency opt recipe on a copy of the placed netlist.
OptResult runOpt(const Netlist& base, const EstimationOptions& eopt, int rounds, int maxPasses) {
  Netlist nl = base;
  std::vector<NetParasitics> paras = estimateDesign(nl, eopt);
  EstimatedParasitics provider(eopt);
  OptimizerOptions oo;
  oo.numThreads = 1;
  oo.maxPasses = maxPasses;
  const auto t0 = Clock::now();
  const MaxFreqOptResult res = optimizeForMaxFrequency(nl, paras, provider, nullptr, oo, rounds);
  OptResult r;
  r.wallS = secondsSince(t0);
  r.minPeriod = res.minPeriod;
  r.cellsResized = res.cellsResized;
  r.buffersInserted = res.buffersInserted;
  return r;
}

int runBench(bool smoke) {
  const TileConfig cfg =
      smoke ? makeTinyTileConfig() : maybeShrink(makeLargeCacheTileConfig());
  BenchJson bj(smoke ? "sta_smoke" : "sta");
  bj.config("tile", cfg.name);

  std::printf("bench_sta: placing tile '%s'...\n", cfg.name.c_str());
  const FlowOutput placed = placedTile(cfg);
  const Netlist& base = placed.tile->netlist;
  const EstimationOptions eopt = makeEstimationOptions(placed.routingBeol);
  std::printf("bench_sta: %d instances, %d nets\n", base.numInstances(), base.numNets());

  bool ok = true;
  const double period = 1.5e-9;

  // --- A. per-edit micro --------------------------------------------------
  const int maxEdits = smoke ? 60 : 400;
  const MicroResult micro = runEditMicro(base, eopt, period, maxEdits);
  for (std::size_t k = 0; k < micro.fullWns.size(); ++k) {
    if (micro.fullWns[k] != micro.incrWns[k]) {
      std::printf("FAIL: edit %zu WNS mismatch: full %.17g vs incr %.17g\n", k,
                  micro.fullWns[k], micro.incrWns[k]);
      ok = false;
    }
  }
  const double editSpeedup = micro.incrWallS > 0.0 ? micro.fullWallS / micro.incrWallS : 0.0;
  std::printf("edit micro (%zu edits): full %.3f s, incr %.3f s (%.1fx)\n",
              micro.fullWns.size(), micro.fullWallS, micro.incrWallS, editSpeedup);
  bj.scalar("edit_count", static_cast<double>(micro.fullWns.size()));
  bj.scalar("edit_full_wall_s", micro.fullWallS);
  bj.scalar("edit_incr_wall_s", micro.incrWallS);
  bj.scalar("edit_speedup", editSpeedup);

  // --- B. min-period ------------------------------------------------------
  {
    std::vector<NetParasitics> paras = estimateDesign(base, eopt);
    Sta sta(base, paras, nullptr, kTypicalCorner, 1);
    const int reps = smoke ? 5 : 20;
    double minPeriod = 0.0;
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      sta.invalidateAllNets();  // bust the arrival caches each rep
      minPeriod = sta.findMinPeriod();
    }
    const double wallS = secondsSince(t0);
    std::printf("min-period (%d reps): %.4f s, T=%.1f ps\n", reps, wallS, minPeriod * 1e12);
    bj.scalar("min_period_ps", minPeriod * 1e12);
    bj.scalar("minp_wall_s", wallS);
  }

  // --- C. opt stage -------------------------------------------------------
  const int rounds = smoke ? 2 : 4;
  const int maxPasses = smoke ? 6 : 20;
  const OptResult opt = runOpt(base, eopt, rounds, maxPasses);
  std::printf("opt stage (%d rounds x %d passes): %.3f s, T=%.1f ps, %d resized, %d buffers\n",
              rounds, maxPasses, opt.wallS, opt.minPeriod * 1e12, opt.cellsResized,
              opt.buffersInserted);
  bj.scalar("opt_min_period_ps", opt.minPeriod * 1e12);
  bj.scalar("opt_cells_resized", static_cast<double>(opt.cellsResized));
  bj.scalar("opt_buffers_inserted", static_cast<double>(opt.buffersInserted));
  bj.scalar("opt_wall_s", opt.wallS);

  const std::string path = bj.write();
  std::printf("wrote %s\n%s\n", path.c_str(), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return runBench(smoke);
}
