#pragma once

/// \file sta.hpp
/// Graph-based static timing analysis with incremental update support.
///
/// Delay model: gate arc delay = intrinsic + driveRes * Cload(net); wire
/// delay per sink from the extractor's Elmore values. Sequential cells and
/// macros launch at CK->Q and capture at data pins with a setup margin.
/// Clock arrivals come from a ClockModel (ideal zero-latency by default;
/// CTS fills in per-sink latencies). Inter-tile ports carry the paper's
/// half-cycle constraint (Sec. V-1): input ports launch at T/2, half-cycle
/// output ports require arrival by T/2.
///
/// The engine is persistent: it caches arrival sweeps and survives netlist
/// edits through a dirty-net API (invalidateNet / applyResize /
/// applyBufferInsertion). Edits patch only the affected fanin-CSR rows, and
/// the next query re-propagates arrivals over just the fanout cone of the
/// dirty pins (falling back to a full levelized sweep when the cone grows
/// past a size ratio). Incremental results are bit-identical to a
/// from-scratch Sta on the same netlist state — see DESIGN.md Sec. 5j.
///
/// The maximum achievable clock frequency — the paper's performance metric —
/// comes from a single parametric arrival sweep (arc delays are
/// period-independent, so the min feasible period is a closed-form max over
/// endpoints).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "extract/extraction.hpp"
#include "netlist/netlist.hpp"

namespace m3d {

/// Clock arrival model. Ideal (all zero) unless CTS populated it.
struct ClockModel {
  /// Clock arrival (insertion delay) at each instance's CK pin [s], indexed
  /// by InstId; empty = ideal clock.
  std::vector<double> latency;
  int maxTreeDepth = 0;      ///< buffer levels, reported in Table II.
  double maxLatency = 0.0;   ///< [s]
  double skew = 0.0;         ///< raw (pre-balancing) max - min sink latency [s]
  /// Clock uncertainty subtracted from every setup check [s]. After CTS
  /// balancing this models the residual skew + jitter, which grows with the
  /// tree's insertion delay (deeper/longer trees are harder to balance).
  double uncertainty = 0.0;

  double latencyOf(InstId i) const {
    return latency.empty() ? 0.0 : latency[static_cast<std::size_t>(i)];
  }
};

/// One step of a reported timing path.
struct PathStep {
  NetPin pin;
  double arrival = 0.0;      ///< [s]
};

struct TimingReport {
  double period = 0.0;       ///< [s] analysis period.
  double wns = 0.0;          ///< worst negative slack [s] (positive = met).
  double tns = 0.0;          ///< total negative slack [s] (<= 0).
  int failingEndpoints = 0;
  std::vector<PathStep> criticalPath;   ///< source..endpoint.
  double critPathWirelengthUm = 0.0;    ///< wire length along the path.
  std::string critEndpointName;
};

/// A process corner as a single delay derating factor (the paper signs off
/// timing at the slowest corner and reports power at the typical one,
/// Sec. V-2). Wire and cell delays scale together.
struct Corner {
  const char* name = "typical";
  double delayDerate = 1.0;
};
inline constexpr Corner kTypicalCorner{"typical", 1.0};
inline constexpr Corner kSlowCorner{"slow", 1.12};
inline constexpr Corner kFastCorner{"fast", 0.88};

class Sta {
 public:
  /// \p paras must be indexed by NetId (from extractDesign/estimateDesign).
  /// \p corner scales every cell and wire delay (and setup margins).
  /// \p numThreads: threads for the levelized arrival sweeps (0 = auto:
  /// M3D_THREADS env, else hardware_concurrency). Arrivals are bit-identical
  /// at any thread count: within a topological level every pin pulls its
  /// own arrival from already-settled lower levels, so there are no writes
  /// shared between pins and no order dependence.
  ///
  /// The engine keeps references to \p nl and \p paras: both must outlive
  /// it, and every structural edit to \p nl must be mirrored through the
  /// incremental API below before the next query. Queries mutate internal
  /// caches, so a single Sta must not be queried from multiple threads
  /// concurrently (the sweeps themselves parallelize internally).
  Sta(const Netlist& nl, const std::vector<NetParasitics>& paras,
      const ClockModel* clock = nullptr, Corner corner = kTypicalCorner,
      int numThreads = 0);

  // --- incremental edit API ----------------------------------------------
  //
  // Contract with callers (the optimizer follows it): after netlist edits,
  //  1. call applyResize / applyBufferInsertion immediately after each
  //     structural Netlist edit (these patch the timing graph's structure
  //     and use placeholder delays where parasitics are not yet known),
  //  2. refresh the parasitics of every touched net, then
  //  3. call invalidateNets with the touched nets (this re-derives the
  //     edge delays and net loads from the refreshed parasitics).
  // No query may run between step 1 and step 3.

  /// Re-reads paras_[n]: updates the net's load, the wire-edge delay into
  /// every sink pin, and the cell-arc delays into the driver pin (whose
  /// load changed). Marks the touched pins dirty for the next sweep.
  void invalidateNet(NetId n);
  void invalidateNets(const std::vector<NetId>& nets);
  /// invalidateNet over every net plus a cache reset (the next query runs
  /// one full sweep, not a cone update). For bulk parasitics swaps, e.g.
  /// re-extraction after a routing iteration.
  void invalidateAllNets();

  /// Mirrors Netlist::resize(inst, ...): re-derives the cell-arc fanin rows
  /// of the instance's output pins and its CK->Q launch arcs from the new
  /// master. The nets on the instance's *input* pins (whose pin caps
  /// changed) must go through refresh + invalidateNets afterwards.
  void applyResize(InstId inst);

  /// Mirrors the optimizer's buffer insertion: instance \p buf (which must
  /// be the newest instance, combinational) was inserted on \p drivenNet
  /// (its input now hangs on that net) and drives \p newNet, onto which
  /// some of drivenNet's former sinks were moved. Appends the buffer's pins
  /// to the graph and repoints the moved sinks' wire edges. Delays are
  /// placeholders until invalidateNets({drivenNet, newNet}).
  void applyBufferInsertion(InstId buf, NetId drivenNet, NetId newNet);

  // --- queries ------------------------------------------------------------

  /// Full analysis at \p period.
  TimingReport analyze(double period) const;

  /// Returned by findMinPeriod when no finite period satisfies every
  /// constraint (a half-cycle output port reached by a half-cycle launch
  /// with positive delay: T/2 + d <= T/2 has no solution). Checked by the
  /// optimizer.
  static constexpr double kInfeasiblePeriod = std::numeric_limits<double>::infinity();

  /// Smallest feasible period [s], clamped to >= 50 ps, from a single
  /// parametric arrival sweep: arc delays are period-independent, so each
  /// endpoint yields a closed-form bound on T (full-cycle launches bound T
  /// directly, half-cycle launches bound T/2). Returns kInfeasiblePeriod
  /// (and records sta.min_period_infeasible) when unsatisfiable.
  double findMinPeriod() const;

  /// Maximum frequency [Hz] = 1 / findMinPeriod() (0 when infeasible).
  double maxFrequency() const { return 1.0 / findMinPeriod(); }

  /// Slack of the worst path at \p period (cheap entry point for the
  /// optimizer; equivalent to analyze(period).wns but skips path tracing).
  double worstSlack(double period) const;

  /// Arrival time at every top-level port at \p period, indexed by PortId
  /// (-infinity for ports no path reaches). Used by the tile-array checker
  /// to stitch inter-tile half-paths.
  std::vector<double> portArrivals(double period) const;

  /// Hold analysis: worst hold slack over all sequential/macro data
  /// endpoints, using minimum (earliest) arrivals. Hold slack =
  /// minArrival - (captureLatency + holdMargin). With a balanced clock and
  /// the library's zero hold requirement the check passes unless a path is
  /// direct (no logic); \p holdMargin models the per-cell hold requirement.
  double worstHoldSlack(double holdMargin = 10e-12) const;

  // --- incremental introspection (tests / benches) ------------------------

  struct IncrStats {
    std::int64_t incrUpdates = 0;    ///< cone updates that completed.
    std::int64_t coneNodes = 0;      ///< pins visited by completed cones.
    std::int64_t fullFallbacks = 0;  ///< cones aborted into a full sweep.
    std::int64_t fullSweeps = 0;     ///< full levelized sweeps run.
  };
  const IncrStats& incrStats() const { return stats_; }

  /// Cone update aborts into a full sweep once it has visited more than
  /// ratio * numPins pins (the worklist bookkeeping then costs more than
  /// the straight-line sweep). Deterministic: the visit count is a pure
  /// function of the dirty set and the arrival values.
  void setConeFallbackRatio(double ratio) { coneFallbackRatio_ = ratio; }

 private:
  struct Arc {
    int fromPin;   ///< global pin id.
    int toPin;
    double intrinsic;
    double driveRes;
  };

  /// One timing edge seen from its sink: the source pin plus the full
  /// derated edge delay (wire delay for net edges, intrinsic + drive * load
  /// for cell arcs). Both max (setup) and min (hold) sweeps share these.
  struct FaninEdge {
    int fromPin;
    double delay;
  };
  /// Cell-arc coefficients of a fanin edge (zero for wire edges), kept so
  /// invalidateNet can re-derive the derated delay when the driven net's
  /// load changes without consulting the library.
  struct FaninArcGain {
    double intrinsic = 0.0;
    double driveRes = 0.0;
  };

  int pinId(const NetPin& p) const;
  NetPin pinOf(int id) const;
  void build();

  void markDirty(int pin) const;
  void ensureLevels() const;
  void recomputeLevels(const std::vector<int>& seeds);

  bool recomputeArr(int v, double period) const;
  bool recomputeParam(int v) const;
  void fullArrSweep(double period) const;
  void fullParamSweep() const;
  void ensureArrivals(double period) const;
  void ensureParam() const;
  template <typename Recompute>
  std::int64_t coneSweep(const std::vector<int>& seeds, Recompute&& re) const;

  void propagateMin(std::vector<double>& arr) const;
  double endpointSlack(double period, const std::vector<double>& arr, int pin) const;

  const Netlist& nl_;
  const std::vector<NetParasitics>& paras_;
  const ClockModel* clock_;
  Corner corner_;

  // Pin id layout: ports first ([0, numPortPins_)), then instance pins in
  // instance order — so appending an instance appends pin ids and the
  // existing graph arrays extend in place.
  int numPins_ = 0;
  int numPortPins_ = 0;
  std::vector<int> instPinBase_;    ///< first global pin id per instance.

  std::vector<Arc> launchArcs_;     ///< CK->Q arcs, sorted by toPin.
  std::vector<std::uint8_t> isLaunchPin_;  ///< pin has >= 1 launch arc.
  std::vector<int> endpoints_;      ///< data pins of seq cells + output ports.
  std::vector<double> netLoad_;     ///< total load per net.
  bool hasHalfCycleInput_ = false;  ///< any half-cycle input port (arrivals
                                    ///< then depend on the period).

  // CSR fanin adjacency (+ per-edge arc coefficients) and its fanout
  // mirror. Rows are patchable in place: a sink pin always has exactly one
  // wire fanin and an output pin only cell-arc fanins, so no edit the
  // incremental API supports changes a row's size.
  std::vector<int> faninStart_;     ///< size numPins_+1; offsets into fanins_.
  std::vector<FaninEdge> fanins_;
  std::vector<FaninArcGain> faninArc_;  ///< parallel to fanins_.
  std::vector<std::vector<int>> fanout_;  ///< timing successors per pin.

  // Levelization: level_ is maintained incrementally (worklist relaxation
  // on structural edits); the flat level buckets are re-derived lazily.
  std::vector<int> level_;
  mutable std::vector<int> levelStart_;  ///< size numLevels+1.
  mutable std::vector<int> levelNodes_;  ///< pin ids, ascending within a level.
  mutable bool levelBucketsDirty_ = true;

  int numThreads_ = 0;              ///< requested (0 = auto), resolved per sweep.
  double coneFallbackRatio_ = 0.5;

  // Cached at-period arrivals (arr_/pred_ valid at arrPeriod_) and the
  // parametric pair: arr0_ = latest arrival over fixed-time launches
  // (t = 0 ports, CK->Q), arrH_ = latest arrival over half-cycle launches
  // *excluding* the T/2 offset. pending* hold the dirty pins each cache
  // still has to re-propagate.
  mutable std::vector<double> arr_;
  mutable std::vector<int> pred_;
  mutable bool arrValid_ = false;
  mutable double arrPeriod_ = 0.0;
  mutable std::vector<double> arr0_;
  mutable std::vector<double> arrH_;
  mutable bool paramValid_ = false;
  mutable std::vector<int> pendingArr_;
  mutable std::vector<int> pendingParam_;

  // Cone-sweep scratch (reused across updates; epoch-stamped dedup).
  mutable std::vector<std::vector<int>> coneActive_;
  mutable std::vector<std::uint32_t> coneStamp_;
  mutable std::uint32_t coneEpoch_ = 0;
  mutable std::vector<std::uint8_t> coneChanged_;

  mutable IncrStats stats_;
};

}  // namespace m3d
