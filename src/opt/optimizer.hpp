#pragma once

/// \file optimizer.hpp
/// Timing optimization: greedy critical-path gate sizing and net buffering.
///
/// The optimizer is parasitics-agnostic: it works against a
/// ParasiticsProvider so the same engine optimizes
///  - true designs (routed extraction: 2D baseline, Macro-3D), and
///  - pseudo designs (estimated/scaled parasitics: S2D, C2D).
/// This is how the paper's central failure mode is reproduced honestly: S2D
/// and C2D run their optimization against mispredicted parasitics, and the
/// final (true) timing of the 3D design inherits the wrongly sized buffers
/// (Sec. III: "many paths being over-optimized ... or under-optimized").

#include <functional>
#include <memory>
#include <vector>

#include "extract/extraction.hpp"
#include "sta/sta.hpp"

namespace m3d {

/// Supplies parasitics for nets after netlist edits.
class ParasiticsProvider {
 public:
  virtual ~ParasiticsProvider() = default;
  /// Recomputes parasitics of \p nets into \p paras (resizing it if the
  /// netlist has grown).
  virtual void refresh(const Netlist& nl, const std::vector<NetId>& nets,
                       std::vector<NetParasitics>& paras) = 0;
  /// Whether the optimizer may insert buffers (pre-route only: routed
  /// geometry cannot absorb new nets without rerouting).
  virtual bool allowBuffering() const = 0;
};

/// Estimation-backed provider (pre-route / pseudo-design optimization).
class EstimatedParasitics final : public ParasiticsProvider {
 public:
  explicit EstimatedParasitics(EstimationOptions opt) : opt_(opt) {}
  void refresh(const Netlist& nl, const std::vector<NetId>& nets,
               std::vector<NetParasitics>& paras) override;
  bool allowBuffering() const override { return true; }

 private:
  EstimationOptions opt_;
};

/// Routed-extraction-backed provider (post-route sizing).
class RoutedParasitics final : public ParasiticsProvider {
 public:
  RoutedParasitics(const RouteGrid& grid, const RoutingResult& routes)
      : grid_(grid), routes_(routes) {}
  void refresh(const Netlist& nl, const std::vector<NetId>& nets,
               std::vector<NetParasitics>& paras) override;
  bool allowBuffering() const override { return false; }

 private:
  const RouteGrid& grid_;
  const RoutingResult& routes_;
};

struct OptimizerOptions {
  double targetPeriod = 2.0e-9;  ///< optimize until WNS(target) >= 0.
  int maxPasses = 20;
  /// Threads for the STA sweeps the optimizer runs between passes (0 = auto:
  /// M3D_THREADS env, else hardware_concurrency). Bit-identical results at
  /// any count.
  int numThreads = 0;
  /// Optional veto on in-place resizes: called with the instance and the
  /// candidate master before committing; returning false skips that resize.
  /// Post-route flows install a frozen-placement footprint guard here --
  /// nothing re-legalizes after routing, so a wider master is only legal
  /// while it still fits between its frozen row neighbors.
  std::function<bool(InstId, CellTypeId)> resizeGuard;
};

struct OptimizeResult {
  int cellsResized = 0;
  int buffersInserted = 0;
  int passes = 0;
  double initialWns = 0.0;
  double finalWns = 0.0;
  std::vector<InstId> insertedBuffers;
};

/// Optimizes \p nl against \p paras (updated in place through \p provider).
/// The clock model (may be null) is honored for launch/capture times. Builds
/// one incremental Sta for the call (none when opt.maxPasses is 0).
OptimizeResult optimizeTiming(Netlist& nl, std::vector<NetParasitics>& paras,
                              ParasiticsProvider& provider, const ClockModel* clock,
                              const OptimizerOptions& opt);

/// Same optimization driven through a caller-owned persistent \p sta (which
/// must have been built over this \p nl / \p paras pair, with the clock
/// model to honor). Netlist edits are mirrored into the engine via its
/// incremental API, so repeated calls (e.g. the max-frequency rounds) never
/// rebuild the timing graph, and afterwards the engine matches a
/// from-scratch Sta on the edited netlist.
OptimizeResult optimizeTiming(Sta& sta, Netlist& nl, std::vector<NetParasitics>& paras,
                              ParasiticsProvider& provider, const OptimizerOptions& opt);

/// Global load-based presizing (synthesis-style): upsizes every cell whose
/// output stage delay (driveRes * load) exceeds \p maxStageDelay until it
/// meets the target or tops out its drive family. One linear sweep; refresh
/// is called for nets whose pin caps changed. Returns cells resized.
int presizeForLoad(Netlist& nl, std::vector<NetParasitics>& paras,
                   ParasiticsProvider& provider, double maxStageDelay = 130e-12,
                   const std::function<bool(InstId, CellTypeId)>& resizeGuard = {});

struct MaxFreqOptResult {
  double minPeriod = 0.0;   ///< [s] after optimization.
  int rounds = 0;
  int cellsResized = 0;
  int buffersInserted = 0;
  std::vector<InstId> insertedBuffers;
};

/// Repeatedly tightens the target period toward the achievable minimum and
/// re-optimizes — the "max-performance" recipe the paper's comparisons use.
MaxFreqOptResult optimizeForMaxFrequency(Netlist& nl, std::vector<NetParasitics>& paras,
                                         ParasiticsProvider& provider, const ClockModel* clock,
                                         OptimizerOptions base, int rounds = 5,
                                         double tighten = 0.93);

}  // namespace m3d
