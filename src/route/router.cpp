#include "route/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "core/parallel.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace m3d {

double RoutingResult::wirelengthOfDieUm(const Beol& beol, DieId die) const {
  double sum = 0.0;
  for (int l = 0; l < beol.numMetals() && l < static_cast<int>(wirelengthPerLayerUm.size());
       ++l) {
    if (beol.metal(l).die == die) sum += wirelengthPerLayerUm[static_cast<std::size_t>(l)];
  }
  return sum;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Negotiated-congestion costs (gcell units): base cost of a regular via,
/// history cost added per unit of overflow each round, and the present-
/// congestion weight, multiplied by the growth factor every rip-up round.
constexpr double kViaCost = 2.0;
constexpr double kHistoryWeight = 0.4;
constexpr double kPresentWeightInit = 1.0;
constexpr double kPresentWeightGrowth = 2.0;

/// Edges per cost-cache rebuild chunk (pure function of the edge range;
/// thread-count independent, see parallel.hpp determinism contract).
constexpr std::int64_t kCostGrain = 8192;

/// Bucket width of the quantized open list, in gcell cost units. The
/// smallest edge cost is 1.0 (an uncongested wire hop), so 1/4 of that
/// keeps pop order close to exact f-order while bounding path cost
/// suboptimality by one quantum.
constexpr double kBucketQuantum = 0.25;
constexpr double kInvBucketQuantum = 1.0 / kBucketQuantum;
/// Safety valve: f-costs beyond kMaxBucket * kBucketQuantum all land in the
/// last bucket (ordering degrades there, correctness does not). Bounds the
/// bucket storage under pathological congestion blow-ups.
constexpr int kMaxBucket = (1 << 20) - 1;

/// Upper bound on routing layers, fixed by the 8-bit layer field of the
/// packed OpenEntry coordinates.
constexpr int kMaxRouteLayers = 256;

/// One open-list entry. Gcell coordinates ride along packed in \c xyl
/// (x:12, y:12, layer:8 bits) so neither pop nor heuristic evaluation has
/// to re-derive them from the node id (nodeX/nodeY/nodeLayer cost an
/// integer division each -- measurably hot at millions of relaxations).
struct OpenEntry {
  double f;
  double g;
  int node;
  std::uint32_t xyl;
};

inline std::uint32_t packXyl(int x, int y, int l) {
  return (static_cast<std::uint32_t>(x) << 20) | (static_cast<std::uint32_t>(y) << 8) |
         static_cast<std::uint32_t>(l);
}
inline int xylX(std::uint32_t p) { return static_cast<int>(p >> 20); }
inline int xylY(std::uint32_t p) { return static_cast<int>((p >> 8) & 0xfffu); }
inline int xylL(std::uint32_t p) { return static_cast<int>(p & 0xffu); }

/// Per-node search state, packed into one 16-byte record so a relaxation
/// touches a single cache line instead of three parallel arrays.
struct NodeState {
  double dist;
  std::int32_t parent;
  std::int32_t visit;
};

/// Monotone bucket queue: open-list entries keyed on floor(f / quantum).
/// Pops ascend bucket index (A* f-costs are non-decreasing under the
/// consistent heuristic, so a popped entry never belongs before the
/// cursor); within a bucket, pending entries are sorted by exact
/// (f, node) when the cursor reaches them, so the pop order is exact
/// (f, node-id) order except for entries appended to the already-drained
/// part of the current bucket -- those pop at most one quantum late.
/// Storage persists across searches (reset() clears only touched buckets).
struct BucketQueue {
  std::vector<std::vector<OpenEntry>> buckets;
  std::vector<int> head;      ///< per bucket: next entry to pop.
  std::vector<int> sortedTo;  ///< per bucket: [head, sortedTo) is sorted.
  std::vector<int> touched;   ///< buckets used by the current search.
  int cur = 0;

  void reset() {
    for (const int b : touched) {
      buckets[static_cast<std::size_t>(b)].clear();
      head[static_cast<std::size_t>(b)] = 0;
      sortedTo[static_cast<std::size_t>(b)] = 0;
    }
    touched.clear();
    cur = 0;
  }

  void push(const OpenEntry& e) {
    int idx = e.f >= static_cast<double>(kMaxBucket) * kBucketQuantum
                  ? kMaxBucket
                  : static_cast<int>(e.f * kInvBucketQuantum);
    // Floating rounding can land an entry a hair before the cursor even
    // though true f-costs are monotone; clamp to keep the pop order valid.
    idx = std::max(idx, cur);
    if (idx >= static_cast<int>(buckets.size())) {
      buckets.resize(static_cast<std::size_t>(idx) + 1);
      head.resize(buckets.size(), 0);
      sortedTo.resize(buckets.size(), 0);
    }
    auto& b = buckets[static_cast<std::size_t>(idx)];
    if (b.empty()) touched.push_back(idx);
    b.push_back(e);
  }

  bool pop(OpenEntry& out, const NodeState* state, int epoch) {
    while (cur < static_cast<int>(buckets.size())) {
      auto& b = buckets[static_cast<std::size_t>(cur)];
      int& h = head[static_cast<std::size_t>(cur)];
      if (h < static_cast<int>(b.size())) {
        int& s = sortedTo[static_cast<std::size_t>(cur)];
        if (h == s) {
          // Entries appended since the last sort (including while this
          // bucket drains) get ordered before being popped. Entries already
          // superseded by a better relaxation are dropped first: a 16-byte
          // state load is far cheaper than sorting them, and roughly half
          // the appended entries are stale by drain time. Surviving entries
          // for the same node are bit-identical (their g equals the node's
          // current dist), so (f, node) is a total order over them.
          OpenEntry* keep = b.data() + h;
          for (OpenEntry* p = keep; p != b.data() + b.size(); ++p) {
            const NodeState& st = state[p->node];
            if (st.visit == epoch && p->g == st.dist) *keep++ = *p;
          }
          b.resize(static_cast<std::size_t>(keep - b.data()));
          std::sort(b.begin() + h, b.end(), [](const OpenEntry& a, const OpenEntry& c) {
            if (a.f != c.f) return a.f < c.f;
            return a.node < c.node;
          });
          s = static_cast<int>(b.size());
          if (h == s) continue;  // every appended entry was stale
        }
        out = b[static_cast<std::size_t>(h)];
        ++h;
        return true;
      }
      ++cur;
    }
    return false;
  }
};

/// Inclusive gcell bounds of one windowed search.
struct Window {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
};

/// Per-thread A* scratch. One instance per pool slot; reused across nets so
/// the O(numNodes) arrays are touched once and invalidated by epoch.
struct SearchScratch {
  std::vector<NodeState> node;
  std::vector<int> tree;
  std::vector<int> path;
  std::vector<int> treeNodes;
  BucketQueue open;
  int epoch = 0;
  int treeEpoch = 0;
  // Kernel statistics, summed over slots after the run (integer totals
  // commute, so the sum is thread-count independent).
  std::int64_t popped = 0;
  std::int64_t relaxed = 0;
  std::int64_t fallbacks = 0;

  void ensure(int numNodes) {
    if (static_cast<int>(node.size()) == numNodes) return;
    const std::size_t n = static_cast<std::size_t>(numNodes);
    node.assign(n, NodeState{kInf, -1, 0});
    tree.assign(n, 0);
    epoch = 0;
    treeEpoch = 0;
  }
};

/// Negotiated-congestion router with deterministic batch parallelism.
///
/// Each rip-up iteration routes its net set in fixed-size batches
/// (RouterOptions::batchSize). Within a batch every net searches against a
/// *read-only* view of the congestion state (usage and history arrays are
/// not touched while the batch is in flight), so the batch can run on any
/// number of threads; usage updates are committed after the batch in the
/// batch's fixed net order. Congestion therefore negotiates between
/// batches and between iterations, and the result is bit-identical at any
/// thread count -- the decomposition into batches is a pure function of the
/// options, never of the schedule.
///
/// Search kernel (see DESIGN.md "Router search kernel"):
///  - batch-frozen cost caches: flat per-edge cost arrays rebuilt in
///    parallel at iteration start and patched per committed edge after each
///    batch, exploiting the same read-only-within-a-batch invariant the
///    parallel search already relies on;
///  - windowed A* with a deterministic halo-doubling fallback ladder ending
///    at the full grid;
///  - a monotone bucket open list on quantized f-costs.
class Router {
 public:
  Router(const Netlist& nl, RouteGrid& grid, const RouterOptions& opt)
      : nl_(nl), grid_(grid), opt_(opt) {
    wireUse_.assign(static_cast<std::size_t>(grid.numWireEdges()), 0);
    viaUse_.assign(static_cast<std::size_t>(grid.numViaEdges()), 0);
    wireHist_.assign(wireUse_.size(), 0.0f);
    viaHist_.assign(viaUse_.size(), 0.0f);
    scratch_.resize(static_cast<std::size_t>(par::maxSlots()));
    presWeight_ = kPresentWeightInit;
    threads_ = par::resolveThreads(opt.numThreads);
    batchSize_ = std::max(1, opt.batchSize);
    // Admissible via heuristic: a layer step can cross any cut, so the
    // estimate must use the cheapest per-cut base cost (an F2F cut may be
    // configured cheaper than a regular one).
    minViaBase_ = kViaCost;
    for (int cut = 0; cut + 1 < grid_.numLayers(); ++cut) {
      if (grid_.viaIsF2f(cut)) minViaBase_ = std::min(kViaCost, opt_.f2fViaCost);
    }
    // Flat per-layer direction table so the pop loop avoids chasing the
    // BEOL metal-stack pointers on every expansion.
    assert(grid_.numLayers() <= kMaxRouteLayers);
    layerHoriz_.resize(static_cast<std::size_t>(grid_.numLayers()));
    for (int l = 0; l < grid_.numLayers(); ++l) {
      layerHoriz_[static_cast<std::size_t>(l)] = grid_.layerHorizontal(l) ? 1 : 0;
    }
    everRipped_.assign(static_cast<std::size_t>(nl_.numNets()), 0);
  }

  RoutingResult run() {
    RoutingResult result;
    result.nets.assign(static_cast<std::size_t>(nl_.numNets()), NetRoute{});
    buildOrder();
    negotiate(order_, result);
    finalize(result);
    return result;
  }

  /// Incremental reroute seeded from \p prev (routed on \p prevGrid, which
  /// must share this grid's dimensions). Dirtiness is decided per *edge*,
  /// and an edge only forces a rip when the capacity change actually
  /// *violates* it: a net is ripped iff it was unrouted before, a pin moved
  /// off its previous route, or any previous segment occupies an edge
  /// whose capacity DECREASED below the previous routes' combined usage
  /// there. A capacity increase (e.g. a denser bump pitch) therefore
  /// reuses every route verbatim -- the old solution is still legal and can
  /// only be less congested -- while a decrease rips exactly the nets
  /// through the now-overloaded edges. Ripping on *any* changed edge
  /// instead would rip every bond-crossing net on a uniform bump-pitch ECO
  /// (the F2F cut capacity changes in every gcell), and ripping at gcell
  /// granularity would rip the whole design. The dirtied-*gcell* set
  /// (columns containing at least one changed edge, violating or not) is
  /// the reported locality metric. Pre-existing overflow on UNchanged edges
  /// is deliberately left alone: ECO reuses every other route verbatim, it
  /// does not relitigate the baseline negotiation.
  RoutingResult runEco(const RouteGrid& prevGrid, const RoutingResult& prev) {
    if (prevGrid.nx() != grid_.nx() || prevGrid.ny() != grid_.ny() ||
        prevGrid.numLayers() != grid_.numLayers() ||
        static_cast<NetId>(prev.nets.size()) != nl_.numNets()) {
      M3D_LOG(warn) << "eco route: previous result incompatible with current grid ("
                    << prevGrid.nx() << "x" << prevGrid.ny() << "x" << prevGrid.numLayers()
                    << " vs " << grid_.nx() << "x" << grid_.ny() << "x" << grid_.numLayers()
                    << ", " << prev.nets.size() << " vs " << nl_.numNets()
                    << " nets); falling back to full reroute";
      return run();
    }
    eco_ = true;
    RoutingResult result;
    result.nets.assign(static_cast<std::size_t>(nl_.numNets()), NetRoute{});
    buildOrder();

    // Census, dirty edges and seeding, up to the negotiation.
    std::optional<obs::ScopedPhase> seedSpan(std::in_place, "route.eco_seed");
    // Edge dirtiness = capacity diff between the two grids.
    const std::size_t numWire = wireUse_.size();
    const std::size_t numVia = viaUse_.size();
    std::vector<std::uint8_t> wireDirty(numWire, 0);
    std::vector<std::uint8_t> viaDirty(numVia, 0);
    for (std::size_t e = 0; e < numWire; ++e) {
      wireDirty[e] = grid_.wireCap(static_cast<int>(e)) !=
                     prevGrid.wireCap(static_cast<int>(e));
    }
    for (std::size_t v = 0; v < numVia; ++v) {
      viaDirty[v] =
          grid_.viaCap(static_cast<int>(v)) != prevGrid.viaCap(static_cast<int>(v));
    }
    // Dirtied-gcell census (per (x, y) column, any layer): the locality
    // metric DESIGN.md 5g documents and the benches report.
    const int perLayer = grid_.nx() * grid_.ny();
    std::vector<std::uint8_t> gcellDirty(static_cast<std::size_t>(perLayer), 0);
    for (std::size_t e = 0; e < numWire; ++e) {
      if (wireDirty[e]) gcellDirty[e % static_cast<std::size_t>(perLayer)] = 1;
    }
    for (std::size_t v = 0; v < numVia; ++v) {
      if (viaDirty[v]) gcellDirty[v % static_cast<std::size_t>(perLayer)] = 1;
    }
    for (const std::uint8_t d : gcellDirty) ecoDirtyGcells_ += d;

    // Census of the previous routes' edge usage, then narrow the changed
    // edges down to the *violating* ones (usage > new capacity). Counting
    // every previously routed net -- even ones later ripped for pin moves --
    // keeps the census a pure function of (prev, grids); the slight
    // conservatism only ever rips more, never reuses a stale route.
    std::vector<std::uint32_t> wireCensus(numWire, 0);
    std::vector<std::uint32_t> viaCensus(numVia, 0);
    for (const NetRoute& p : prev.nets) {
      if (!p.routed) continue;
      for (const RouteSeg& s : p.segs) {
        if (s.isVia) {
          ++viaCensus[static_cast<std::size_t>(viaEdgeOf(s))];
        } else {
          ++wireCensus[static_cast<std::size_t>(wireEdgeOf(s.fromNode, s.toNode))];
        }
      }
    }
    // An edge is violated only when the change went DOWN through the
    // previous usage: the old routes no longer fit where they did before.
    // A still-overloaded edge whose capacity *rose* (e.g. an irreducible
    // macro pin funnel relieved by denser bumps) keeps its nets -- the
    // previous solution is still the least-overflow one there, and ripping
    // it would renegotiate the whole funnel for nothing.
    for (std::size_t e = 0; e < numWire; ++e) {
      const int newC = grid_.wireCap(static_cast<int>(e));
      wireDirty[e] = wireDirty[e] && newC < prevGrid.wireCap(static_cast<int>(e)) &&
                     wireCensus[e] > static_cast<std::uint32_t>(newC);
    }
    for (std::size_t v = 0; v < numVia; ++v) {
      const int newC = grid_.viaCap(static_cast<int>(v));
      viaDirty[v] = viaDirty[v] && newC < prevGrid.viaCap(static_cast<int>(v)) &&
                    viaCensus[v] > static_cast<std::uint32_t>(newC);
    }

    // Seed clean nets verbatim; collect the dirty ones (order_ is already
    // sorted, so the dirty list inherits the route order).
    std::vector<NetId> dirty;
    std::vector<int> prevNodes;
    for (NetId n : order_) {
      const NetRoute& p = prev.nets[static_cast<std::size_t>(n)];
      bool rip = !p.routed;
      if (!rip) {
        // Pins must still land on the previous route (a placement ECO moves
        // pin gcells; the stale route would silently open the net).
        prevNodes.clear();
        for (const RouteSeg& s : p.segs) {
          prevNodes.push_back(s.fromNode);
          prevNodes.push_back(s.toNode);
        }
        std::sort(prevNodes.begin(), prevNodes.end());
        const Net& net = nl_.net(n);
        for (const NetPin& pin : net.pins) {
          const int node = grid_.pinNode(nl_, pin);
          if (p.segs.empty()
                  ? node != grid_.pinNode(nl_, net.pins[static_cast<std::size_t>(
                                                   net.driverIdx)])
                  : !std::binary_search(prevNodes.begin(), prevNodes.end(), node)) {
            rip = true;
            break;
          }
        }
      }
      if (!rip) {
        for (const RouteSeg& s : p.segs) {
          if (s.isVia ? viaDirty[static_cast<std::size_t>(viaEdgeOf(s))]
                      : wireDirty[static_cast<std::size_t>(wireEdgeOf(s.fromNode, s.toNode))]) {
            rip = true;
            break;
          }
        }
      }
      if (rip) {
        everRipped_[static_cast<std::size_t>(n)] = 1;
        dirty.push_back(n);
      } else {
        result.nets[static_cast<std::size_t>(n)] = p;
        for (const RouteSeg& s : p.segs) addUsage(s, +1);
      }
    }
    M3D_LOG(debug) << "eco route: " << dirty.size() << " dirty / " << order_.size()
                   << " nets, " << ecoDirtyGcells_ << " dirty gcells";
    seedSpan.reset();
    negotiate(dirty, result);
    finalize(result);
    return result;
  }

 private:
  /// Builds the full route order: every multi-pin net, shortest first
  /// (stable by id). Each net's HPWL is taken once here: the netlist is
  /// const while routing, so every later sort reuses it.
  void buildOrder() {
    order_.clear();
    hpwl_.assign(static_cast<std::size_t>(nl_.numNets()), 0);
    for (NetId n = 0; n < nl_.numNets(); ++n) {
      if (nl_.net(n).pins.size() < 2) continue;
      order_.push_back(n);
      hpwl_[static_cast<std::size_t>(n)] = nl_.netHpwl(n);
    }
    sortNets(order_);
  }

  /// Deterministic net ordering: HPWL ascending, then id.
  void sortNets(std::vector<NetId>& nets) const {
    std::sort(nets.begin(), nets.end(), [this](NetId a, NetId b) {
      const Dbu ha = hpwl_[static_cast<std::size_t>(a)];
      const Dbu hb = hpwl_[static_cast<std::size_t>(b)];
      if (ha != hb) return ha < hb;
      return a < b;
    });
  }

  /// The negotiation loop: routes \p toRoute, then repeatedly rips up and
  /// reroutes overflowed nets. The rip-up scan covers *all* nets in route
  /// order (not just the ones routed this round), so ECO-seeded routes can
  /// rejoin negotiation when a capacity change left them overflowing.
  void negotiate(std::vector<NetId> toRoute, RoutingResult& result) {
    obs::gauge("parallel.threads").set(static_cast<double>(threads_));
    obs::gauge("route.batch_size").set(static_cast<double>(batchSize_));
    std::int64_t prevPopped = 0;
    std::int64_t prevFallbacks = 0;
    for (int iter = 0; iter < opt_.maxIterations; ++iter) {
      obs::ScopedPhase it("route.iter");
      result.iterationsUsed = iter + 1;
      // Usage and history are frozen except at batch commits below, and
      // presWeight_ only changes between iterations: rebuild the flat cost
      // caches here, patch per committed edge after each commit.
      rebuildCostCaches();
      const int batches = routeBatches(toRoute, result);
      // Collect overflow, build history, decide rip-up set. In ECO mode
      // the reused routes are FROZEN: only nets already in the dirty
      // cohort (everRipped_) may rip up again. Without this, any reused
      // net sitting on pre-existing overflow -- an irreducible macro pin
      // funnel, say -- would be ripped in the first iteration and a
      // two-edge ECO would cascade into a near-full renegotiation of a
      // congested design. The dirty nets still see the frozen routes'
      // usage through the congestion costs and negotiate around them.
      const OverflowTotals overflow = updateHistory();
      std::vector<NetId> ripup;
      for (NetId n : order_) {
        if (eco_ && !everRipped_[static_cast<std::size_t>(n)]) continue;
        const NetRoute& r = result.nets[static_cast<std::size_t>(n)];
        bool over = false;
        for (const RouteSeg& s : r.segs) {
          if (edgeOverflowed(s)) {
            over = true;
            break;
          }
        }
        if (over) ripup.push_back(n);
      }
      // Per-round convergence series (search-kernel deltas: slot totals are
      // integer sums, so these are thread-count independent like finalize's).
      std::int64_t popped = 0;
      std::int64_t fallbacks = 0;
      for (const auto& p : scratch_) {
        if (!p) continue;
        popped += p->popped;
        fallbacks += p->fallbacks;
      }
      it.attr("nets_routed", static_cast<double>(toRoute.size()));
      it.attr("batches", static_cast<double>(batches));
      it.attr("threads", static_cast<double>(threads_));
      it.attr("ripup", static_cast<double>(ripup.size()));
      it.attr("overflow_edges", static_cast<double>(overflow.overflowedEdges));
      obs::series("route.ripup_nets").record(static_cast<double>(ripup.size()));
      obs::series("route.iter_overflow").record(static_cast<double>(overflow.totalOverflow));
      obs::series("route.iter_pops").record(static_cast<double>(popped - prevPopped));
      obs::series("route.iter_fallbacks")
          .record(static_cast<double>(fallbacks - prevFallbacks));
      prevPopped = popped;
      prevFallbacks = fallbacks;
      M3D_LOG(debug) << "route iter " << (iter + 1) << ": routed=" << toRoute.size()
                     << " batches=" << batches << " threads=" << threads_
                     << " ripup=" << ripup.size();
      if (ripup.empty()) break;
      if (iter + 1 >= opt_.maxIterations) break;
      for (NetId n : ripup) {
        everRipped_[static_cast<std::size_t>(n)] = 1;
        unroute(result.nets[static_cast<std::size_t>(n)]);
      }
      toRoute = std::move(ripup);
      // Re-sort each rip-up round: the scan over order_ already yields
      // route order, but the contract is explicit, not incidental.
      sortNets(toRoute);
      presWeight_ *= kPresentWeightGrowth;
    }
  }

  /// Routes \p toRoute in fixed-size batches: parallel read-only search,
  /// then an ordered sequential commit. Returns the batch count.
  int routeBatches(const std::vector<NetId>& toRoute, RoutingResult& result) {
    int batches = 0;
    const std::size_t bs = static_cast<std::size_t>(batchSize_);
    for (std::size_t b0 = 0; b0 < toRoute.size(); b0 += bs) {
      const std::size_t b1 = std::min(toRoute.size(), b0 + bs);
      // Search phase: congestion state is read-only, nets are independent.
      par::parallelFor(
          static_cast<std::int64_t>(b0), static_cast<std::int64_t>(b1), 1,
          [&](std::int64_t k) {
            const NetId n = toRoute[static_cast<std::size_t>(k)];
            routeNet(n, result.nets[static_cast<std::size_t>(n)], scratchForSlot());
          },
          threads_);
      // Commit phase: fixed (route-order, i.e. HPWL-then-NetId) order.
      // Usage increments commute, but a fixed order keeps this auditable.
      for (std::size_t k = b0; k < b1; ++k) {
        const NetRoute& r = result.nets[static_cast<std::size_t>(toRoute[k])];
        for (const RouteSeg& s : r.segs) addUsage(s, +1);
      }
      // Patch only the cache entries whose usage just changed; everything
      // else is still frozen until the next commit.
      for (std::size_t k = b0; k < b1; ++k) {
        const NetRoute& r = result.nets[static_cast<std::size_t>(toRoute[k])];
        for (const RouteSeg& s : r.segs) refreshCostCache(s);
      }
      ++batches;
    }
    return batches;
  }

  SearchScratch& scratchForSlot() {
    auto& p = scratch_[static_cast<std::size_t>(par::currentSlot())];
    if (!p) p = std::make_unique<SearchScratch>();
    p->ensure(grid_.numNodes());
    return *p;
  }

  int wireEdgeOf(int a, int b) const {
    // a and b share a layer; edge is keyed by the lower-coordinate node.
    const int from = std::min(a, b);
    return from;  // wire edge id == node id of the low end by construction
  }

  /// Via edge id of a via segment (keyed by the lower-layer node).
  int viaEdgeOf(const RouteSeg& s) const {
    const int low = std::min(grid_.nodeLayer(s.fromNode), grid_.nodeLayer(s.toNode));
    return grid_.viaEdgeId(grid_.nodeX(s.fromNode), grid_.nodeY(s.fromNode), low);
  }

  double wireCost(int e) const {
    const int cap = grid_.wireCap(e);
    if (cap == 0) return kInf;
    const int use = wireUse_[static_cast<std::size_t>(e)];
    const double pres = use >= cap ? 1.0 + presWeight_ * static_cast<double>(use + 1 - cap) : 1.0;
    return (1.0 + static_cast<double>(wireHist_[static_cast<std::size_t>(e)])) * pres;
  }

  double viaCost(int v, int cut) const {
    const int cap = grid_.viaCap(v);
    if (cap == 0) return kInf;
    const int use = viaUse_[static_cast<std::size_t>(v)];
    const double pres = use >= cap ? 1.0 + presWeight_ * static_cast<double>(use + 1 - cap) : 1.0;
    const double base = grid_.viaIsF2f(cut) ? opt_.f2fViaCost : kViaCost;
    return base * (1.0 + static_cast<double>(viaHist_[static_cast<std::size_t>(v)])) * pres;
  }

  /// Rebuilds the flat per-edge cost arrays from the current usage/history/
  /// presWeight state. Each slot is an independent pure function of that
  /// state, so the parallel fill is trivially deterministic.
  void rebuildCostCaches() {
    wireCostCache_.resize(wireUse_.size());
    viaCostCache_.resize(viaUse_.size());
    const int perLayer = grid_.nx() * grid_.ny();
    par::parallelFor(
        0, static_cast<std::int64_t>(wireCostCache_.size()), kCostGrain,
        [&](std::int64_t e) {
          wireCostCache_[static_cast<std::size_t>(e)] = wireCost(static_cast<int>(e));
        },
        threads_);
    par::parallelFor(
        0, static_cast<std::int64_t>(viaCostCache_.size()), kCostGrain,
        [&](std::int64_t v) {
          viaCostCache_[static_cast<std::size_t>(v)] =
              viaCost(static_cast<int>(v), static_cast<int>(v) / perLayer);
        },
        threads_);
  }

  /// Re-derives the cached cost of the one edge \p s occupies (after its
  /// usage changed at a batch commit).
  void refreshCostCache(const RouteSeg& s) {
    if (s.isVia) {
      const int low = std::min(grid_.nodeLayer(s.fromNode), grid_.nodeLayer(s.toNode));
      const int v = grid_.viaEdgeId(grid_.nodeX(s.fromNode), grid_.nodeY(s.fromNode), low);
      viaCostCache_[static_cast<std::size_t>(v)] = viaCost(v, low);
    } else {
      const int e = wireEdgeOf(s.fromNode, s.toNode);
      wireCostCache_[static_cast<std::size_t>(e)] = wireCost(e);
    }
  }

  bool edgeOverflowed(const RouteSeg& s) const {
    if (s.isVia) {
      const int v = grid_.viaEdgeId(grid_.nodeX(s.fromNode), grid_.nodeY(s.fromNode),
                                    std::min(grid_.nodeLayer(s.fromNode), grid_.nodeLayer(s.toNode)));
      return viaUse_[static_cast<std::size_t>(v)] > grid_.viaCap(v);
    }
    const int e = wireEdgeOf(s.fromNode, s.toNode);
    return wireUse_[static_cast<std::size_t>(e)] > grid_.wireCap(e);
  }

  void addUsage(const RouteSeg& s, int delta) {
    if (s.isVia) {
      const int low = std::min(grid_.nodeLayer(s.fromNode), grid_.nodeLayer(s.toNode));
      const int v = grid_.viaEdgeId(grid_.nodeX(s.fromNode), grid_.nodeY(s.fromNode), low);
      viaUse_[static_cast<std::size_t>(v)] =
          static_cast<std::uint16_t>(static_cast<int>(viaUse_[static_cast<std::size_t>(v)]) + delta);
    } else {
      const int e = wireEdgeOf(s.fromNode, s.toNode);
      wireUse_[static_cast<std::size_t>(e)] =
          static_cast<std::uint16_t>(static_cast<int>(wireUse_[static_cast<std::size_t>(e)]) + delta);
    }
  }

  void unroute(NetRoute& r) {
    for (const RouteSeg& s : r.segs) addUsage(s, -1);
    r.segs.clear();
    r.routed = false;
  }

  /// Per-iteration overflow totals, computed while the history update
  /// already walks every edge (no extra pass for the convergence series).
  struct OverflowTotals {
    int overflowedEdges = 0;
    std::int64_t totalOverflow = 0;
  };

  OverflowTotals updateHistory() {
    OverflowTotals t;
    for (std::size_t e = 0; e < wireUse_.size(); ++e) {
      const int over = static_cast<int>(wireUse_[e]) - static_cast<int>(grid_.wireCap(e));
      if (over > 0) {
        wireHist_[e] += static_cast<float>(kHistoryWeight * over);
        ++t.overflowedEdges;
        t.totalOverflow += over;
      }
    }
    for (std::size_t v = 0; v < viaUse_.size(); ++v) {
      const int over = static_cast<int>(viaUse_[v]) - static_cast<int>(grid_.viaCap(v));
      if (over > 0) {
        viaHist_[v] += static_cast<float>(kHistoryWeight * over);
        ++t.overflowedEdges;
        t.totalOverflow += over;
      }
    }
    return t;
  }

  Window fullWindow() const { return Window{0, 0, grid_.nx() - 1, grid_.ny() - 1}; }

  /// Multi-source A* from the current tree to \p target, restricted to the
  /// gcell window \p win (which always contains the tree and the target).
  /// Returns true and fills \p path (target..treeNode) on success. Reads
  /// only the batch-frozen cost caches and \p s.
  bool search(const std::vector<int>& treeNodes, int target, const Window& win,
              std::vector<int>& path, SearchScratch& s) const {
    ++s.epoch;
    BucketQueue& open = s.open;
    open.reset();
    const int tx = grid_.nodeX(target);
    const int ty = grid_.nodeY(target);
    const int tl = grid_.nodeLayer(target);
    const int epoch = s.epoch;
    NodeState* state = s.node.data();
    std::int64_t popped = 0;
    std::int64_t relaxed = 0;
    // Per-layer heuristic term, tabulated once per search (the target layer
    // is fixed) so a relaxation reads it instead of recomputing the
    // |dl| * minViaBase product.
    double hLayer[kMaxRouteLayers];
    for (int l = 0; l < grid_.numLayers(); ++l) {
      hLayer[l] = static_cast<double>(std::abs(l - tl)) * minViaBase_;
    }

    const double* wCost = wireCostCache_.data();
    const double* vCost = viaCostCache_.data();

    // Relaxation works on explicit gcell coordinates: callers always know
    // the neighbor's (x, y, l), and deriving them from the node id would
    // cost an integer division per call in the hottest loop of the flow.
    auto relax = [&](int node, int x, int y, int l, double g, int prev) {
      NodeState& st = state[node];
      if (st.visit == epoch && g >= st.dist) return;
      st.visit = epoch;
      st.dist = g;
      st.parent = prev;
      ++relaxed;
      const double h = static_cast<double>(std::abs(x - tx) + std::abs(y - ty)) + hLayer[l];
      open.push(OpenEntry{g + h, g, node, packXyl(x, y, l)});
    };

    for (int src : treeNodes) {
      relax(src, grid_.nodeX(src), grid_.nodeY(src), grid_.nodeLayer(src), 0.0, -1);
    }

    // Both edge-id formulas coincide with the node id of their low-end node
    // ((l*ny + y)*nx + x), so every neighbor edge is a fixed offset of u --
    // the expansion below is pure array arithmetic with no re-derivation.
    const int nx = grid_.nx();
    const int numLayers = grid_.numLayers();
    const int layerStride = nx * grid_.ny();
    OpenEntry e;
    bool found = false;
    while (open.pop(e, state, epoch)) {
      const int u = e.node;
      // Stale entry: the node was re-relaxed with a better g after this
      // entry was pushed (or belongs to an earlier epoch).
      if (state[u].visit != epoch || e.g != state[u].dist) continue;
      ++popped;
      if (u == target) {
        path.clear();
        for (int n = target; n != -1; n = state[n].parent) {
          path.push_back(n);
          if (state[n].dist == 0.0) break;
        }
        found = true;
        break;
      }
      const double g = e.g;
      const int x = xylX(e.xyl);
      const int y = xylY(e.xyl);
      const int l = xylL(e.xyl);
      // Skip the edge back to the node this pop was reached from: its cost
      // is the same in both directions (same edge id), so that relaxation
      // can never improve. The parent id shares u's 16-byte state record,
      // already loaded by the staleness check above.
      const int par = state[u].parent;
      // Wire moves along the preferred direction, within the window.
      if (layerHoriz_[static_cast<std::size_t>(l)] != 0) {
        if (x < win.x1 && u + 1 != par) {
          const double c = wCost[u];
          if (c < kInf) relax(u + 1, x + 1, y, l, g + c, u);
        }
        if (x > win.x0 && u - 1 != par) {
          const double c = wCost[u - 1];
          if (c < kInf) relax(u - 1, x - 1, y, l, g + c, u);
        }
      } else {
        if (y < win.y1 && u + nx != par) {
          const double c = wCost[u];
          if (c < kInf) relax(u + nx, x, y + 1, l, g + c, u);
        }
        if (y > win.y0 && u - nx != par) {
          const double c = wCost[u - nx];
          if (c < kInf) relax(u - nx, x, y - 1, l, g + c, u);
        }
      }
      // Vias (via edge between l and l+1 is keyed by the lower node id).
      if (l + 1 < numLayers && u + layerStride != par) {
        const double c = vCost[u];
        if (c < kInf) relax(u + layerStride, x, y, l + 1, g + c, u);
      }
      if (l > 0 && u - layerStride != par) {
        const double c = vCost[u - layerStride];
        if (c < kInf) relax(u - layerStride, x, y, l - 1, g + c, u);
      }
    }
    s.popped += popped;
    s.relaxed += relaxed;
    return found;
  }

  /// Runs the window fallback ladder for one sink: the tree/sink bounding
  /// box inflated by the configured halo first, doubling the halo after
  /// every failure until the window covers the grid (which reproduces the
  /// unwindowed search exactly, so any net routable on the full grid stays
  /// routable). The ladder is a pure function of the tree, the sink and
  /// the options -- never of the schedule.
  bool searchWithWindows(const std::vector<int>& treeNodes, int target, int bx0, int by0,
                         int bx1, int by1, std::vector<int>& path, SearchScratch& s) const {
    if (opt_.searchHaloGcells < 0) return search(treeNodes, target, fullWindow(), path, s);
    const int tx = grid_.nodeX(target);
    const int ty = grid_.nodeY(target);
    const int wx0 = std::min(bx0, tx);
    const int wy0 = std::min(by0, ty);
    const int wx1 = std::max(bx1, tx);
    const int wy1 = std::max(by1, ty);
    for (int halo = opt_.searchHaloGcells;; halo = halo <= 0 ? 2 : halo * 2) {
      Window win;
      win.x0 = std::max(0, wx0 - halo);
      win.y0 = std::max(0, wy0 - halo);
      win.x1 = std::min(grid_.nx() - 1, wx1 + halo);
      win.y1 = std::min(grid_.ny() - 1, wy1 + halo);
      const bool coversGrid = win.x0 == 0 && win.y0 == 0 && win.x1 == grid_.nx() - 1 &&
                              win.y1 == grid_.ny() - 1;
      if (search(treeNodes, target, win, path, s)) return true;
      if (coversGrid) return false;
      ++s.fallbacks;
    }
  }

  /// Routes one net against the current (batch-frozen) congestion state.
  /// Writes only \p out and \p s; usage commits happen after the batch.
  void routeNet(NetId netId, NetRoute& out, SearchScratch& s) const {
    const Net& net = nl_.net(netId);
    // Unique pin nodes; driver first.
    std::vector<int> pinNodes;
    pinNodes.push_back(grid_.pinNode(nl_, net.pins[static_cast<std::size_t>(net.driverIdx)]));
    for (int k = 0; k < static_cast<int>(net.pins.size()); ++k) {
      if (k == net.driverIdx) continue;
      const int node = grid_.pinNode(nl_, net.pins[static_cast<std::size_t>(k)]);
      pinNodes.push_back(node);
    }
    std::vector<int> targets(pinNodes.begin() + 1, pinNodes.end());
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    // Nearest-first growth order (by heuristic distance from the driver).
    const int dx0 = grid_.nodeX(pinNodes[0]);
    const int dy0 = grid_.nodeY(pinNodes[0]);
    std::sort(targets.begin(), targets.end(), [&](int a, int b) {
      const int da = std::abs(grid_.nodeX(a) - dx0) + std::abs(grid_.nodeY(a) - dy0);
      const int db = std::abs(grid_.nodeX(b) - dx0) + std::abs(grid_.nodeY(b) - dy0);
      if (da != db) return da < db;
      return a < b;
    });

    ++s.treeEpoch;
    std::vector<int>& treeNodes = s.treeNodes;
    treeNodes.clear();
    treeNodes.push_back(pinNodes[0]);
    s.tree[static_cast<std::size_t>(pinNodes[0])] = s.treeEpoch;
    // Tree bounding box (gcell coords), grown as paths are committed.
    int bx0 = dx0;
    int by0 = dy0;
    int bx1 = dx0;
    int by1 = dy0;

    out.segs.clear();
    out.routed = true;
    std::vector<int>& path = s.path;
    for (int t : targets) {
      if (s.tree[static_cast<std::size_t>(t)] == s.treeEpoch) continue;  // already reached
      if (!searchWithWindows(treeNodes, t, bx0, by0, bx1, by1, path, s)) {
        out.routed = false;
        continue;
      }
      // path runs target .. tree; add segments and new tree nodes.
      for (std::size_t k = 0; k + 1 < path.size(); ++k) {
        const int a = path[k + 1];  // closer to tree
        const int b = path[k];
        RouteSeg seg;
        seg.fromNode = a;
        seg.toNode = b;
        const int la = grid_.nodeLayer(a);
        const int lb = grid_.nodeLayer(b);
        seg.isVia = la != lb;
        seg.layer = seg.isVia ? std::min(la, lb) : la;
        out.segs.push_back(seg);
      }
      for (int n : path) {
        if (s.tree[static_cast<std::size_t>(n)] != s.treeEpoch) {
          s.tree[static_cast<std::size_t>(n)] = s.treeEpoch;
          treeNodes.push_back(n);
          bx0 = std::min(bx0, grid_.nodeX(n));
          by0 = std::min(by0, grid_.nodeY(n));
          bx1 = std::max(bx1, grid_.nodeX(n));
          by1 = std::max(by1, grid_.nodeY(n));
        }
      }
    }
  }

  void finalize(RoutingResult& result) {
    result.wirelengthPerLayerUm.assign(static_cast<std::size_t>(grid_.numLayers()), 0.0);
    result.viasPerCut.assign(static_cast<std::size_t>(grid_.numLayers() - 1), 0);
    const double g = grid_.gcellUm();
    for (const NetRoute& r : result.nets) {
      for (const RouteSeg& s : r.segs) {
        if (s.isVia) {
          ++result.viasPerCut[static_cast<std::size_t>(s.layer)];
          if (grid_.viaIsF2f(s.layer)) ++result.f2fBumps;
        } else {
          result.wirelengthPerLayerUm[static_cast<std::size_t>(s.layer)] += g;
          result.totalWirelengthUm += g;
        }
      }
    }
    for (NetId n = 0; n < nl_.numNets(); ++n) {
      if (nl_.net(n).pins.size() >= 2 && !result.nets[static_cast<std::size_t>(n)].routed) {
        ++result.unroutedNets;
      }
    }
    // Kernel statistics: per-net searches are deterministic, and integer
    // slot totals commute, so these sums are thread-count independent.
    for (const auto& p : scratch_) {
      if (!p) continue;
      result.nodesPopped += p->popped;
      result.nodesRelaxed += p->relaxed;
      result.windowFallbacks += p->fallbacks;
    }
    if (eco_) {
      result.ecoDirtyGcells = ecoDirtyGcells_;
      for (const NetId n : order_) {
        if (everRipped_[static_cast<std::size_t>(n)]) {
          ++result.ecoNetsRipped;
        } else {
          ++result.ecoNetsReused;
        }
      }
    }
    // Overflow is recomputed from the committed segments, never read from
    // the incrementally maintained congestion arrays: after rip-up/reroute
    // rounds those arrays are the *negotiation* state, and any drift in them
    // must not leak into the reported result. The verifier's independent
    // recount (src/verify) is the oracle this recount must agree with.
    std::vector<std::uint16_t> wireCommitted(wireUse_.size(), 0);
    std::vector<std::uint16_t> viaCommitted(viaUse_.size(), 0);
    for (const NetRoute& r : result.nets) {
      for (const RouteSeg& s : r.segs) {
        if (s.isVia) {
          ++viaCommitted[static_cast<std::size_t>(
              grid_.viaEdgeId(grid_.nodeX(s.fromNode), grid_.nodeY(s.fromNode), s.layer))];
        } else {
          ++wireCommitted[static_cast<std::size_t>(std::min(s.fromNode, s.toNode))];
        }
      }
    }
    assert(wireCommitted == wireUse_ && viaCommitted == viaUse_ &&
           "incremental congestion accounting drifted from committed segments");
    for (std::size_t e = 0; e < wireCommitted.size(); ++e) {
      const int over = static_cast<int>(wireCommitted[e]) - static_cast<int>(grid_.wireCap(e));
      if (over > 0) {
        ++result.overflowedEdges;
        result.totalOverflow += over;
      }
    }
    for (std::size_t v = 0; v < viaCommitted.size(); ++v) {
      const int over = static_cast<int>(viaCommitted[v]) - static_cast<int>(grid_.viaCap(v));
      if (over > 0) {
        ++result.overflowedEdges;
        result.totalOverflow += over;
      }
    }
  }

  const Netlist& nl_;
  RouteGrid& grid_;
  RouterOptions opt_;
  std::vector<std::uint16_t> wireUse_;
  std::vector<std::uint16_t> viaUse_;
  std::vector<float> wireHist_;
  std::vector<float> viaHist_;
  std::vector<double> wireCostCache_;
  std::vector<double> viaCostCache_;
  std::vector<std::unique_ptr<SearchScratch>> scratch_;
  std::vector<NetId> order_;
  std::vector<Dbu> hpwl_;  ///< per net: HPWL at buildOrder (the sort key).
  std::vector<std::uint8_t> everRipped_;  ///< per net: ripped at least once.
  int threads_ = 1;
  int batchSize_ = 1;
  double presWeight_ = 1.0;
  double minViaBase_ = 1.0;
  std::vector<std::uint8_t> layerHoriz_;
  bool eco_ = false;
  std::int64_t ecoDirtyGcells_ = 0;
};

/// Shared result telemetry for both entry points.
void recordRouteObs(const RoutingResult& result) {
  obs::series("route.overflow").record(static_cast<double>(result.overflowedEdges));
  obs::series("route.f2f_bumps").record(static_cast<double>(result.f2fBumps));
  obs::gauge("route.wirelength_um").set(result.totalWirelengthUm);
  obs::counter("route.unrouted_nets").add(result.unroutedNets);
  obs::counter("route.nodes_popped").add(result.nodesPopped);
  obs::counter("route.nodes_relaxed").add(result.nodesRelaxed);
  obs::counter("route.window_fallbacks").add(result.windowFallbacks);
  M3D_LOG(debug) << "router summary: iters=" << result.iterationsUsed
                << " wl_um=" << result.totalWirelengthUm << " bumps=" << result.f2fBumps
                << " overflow_edges=" << result.overflowedEdges
                << " unrouted=" << result.unroutedNets
                << " pops=" << result.nodesPopped
                << " window_fallbacks=" << result.windowFallbacks;
}

}  // namespace

RoutingResult routeDesign(const Netlist& nl, RouteGrid& grid, const RouterOptions& opt) {
  Router router(nl, grid, opt);
  RoutingResult result = router.run();
  recordRouteObs(result);
  return result;
}

RoutingResult routeDesignEco(const Netlist& nl, RouteGrid& grid, const RouteGrid& prevGrid,
                             const RoutingResult& prev, const RouterOptions& opt) {
  Router router(nl, grid, opt);
  RoutingResult result = router.runEco(prevGrid, prev);
  recordRouteObs(result);
  obs::counter("route.eco_dirty_gcells").add(result.ecoDirtyGcells);
  obs::counter("route.eco_nets_reused").add(result.ecoNetsReused);
  obs::counter("route.eco_nets_ripped").add(result.ecoNetsRipped);
  M3D_LOG(debug) << "eco router summary: dirty_gcells=" << result.ecoDirtyGcells
                 << " reused=" << result.ecoNetsReused
                 << " ripped=" << result.ecoNetsRipped;
  return result;
}

}  // namespace m3d
