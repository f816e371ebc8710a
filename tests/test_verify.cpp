#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/macro3d.hpp"
#include "db/hash.hpp"
#include "db/serialize.hpp"
#include "flows/flows.hpp"
#include "verify/verify.hpp"

namespace m3d {
namespace {

/// Fault-injection tests for the signoff verifier: run one tiny Macro-3D
/// flow, then corrupt the committed design in four targeted ways and assert
/// each corruption is caught by exactly the right checker family with the
/// right payload. The uncorrupted design must sign off clean (the verifier
/// has zero false positives on healthy flows, zero false negatives here).
class VerifySignoff : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FlowOptions opt;
    opt.maxFreqRounds = 2;
    opt.optBase.maxPasses = 6;
    out_ = new FlowOutput(runFlowMacro3D(makeTinyTileConfig(), opt));
  }
  static void TearDownTestSuite() {
    delete out_;
    out_ = nullptr;
  }

  /// Violations of \p kind in \p rep.
  static std::vector<Violation> of(const VerifyReport& rep, ViolationKind kind) {
    std::vector<Violation> v;
    for (const Violation& x : rep.violations) {
      if (x.kind == kind) v.push_back(x);
    }
    return v;
  }

  static FlowOutput* out_;
};

FlowOutput* VerifySignoff::out_ = nullptr;

TEST_F(VerifySignoff, CleanRunSignsOffClean) {
  const VerifyReport rep =
      verifyDesign(out_->tile->netlist, out_->fp, *out_->grid, out_->routes);
  EXPECT_TRUE(rep.clean()) << rep.summaryText();
  EXPECT_EQ(rep.errors, 0) << rep.summaryText();
  // Independent recounts agree with the router's own accounting.
  EXPECT_EQ(rep.recomputedOverflowedEdges, out_->routes.overflowedEdges);
  EXPECT_EQ(rep.recomputedTotalOverflow, out_->routes.totalOverflow);
  EXPECT_EQ(rep.f2fBumpCount, out_->routes.f2fBumps);
  // Per-net bump census totals the bump count.
  std::int64_t perNet = 0;
  for (const std::int64_t b : rep.f2fBumpsPerNet) perNet += b;
  EXPECT_EQ(perNet, rep.f2fBumpCount);
  // The flow's embedded report matches a standalone rerun (pure function).
  EXPECT_EQ(rep, out_->verify);
}

TEST_F(VerifySignoff, FamilyTogglesScopeTheRun) {
  VerifyOptions vopt;
  vopt.drc = vopt.connectivity = vopt.placement = vopt.f2f = false;
  const VerifyReport rep =
      verifyDesign(out_->tile->netlist, out_->fp, *out_->grid, out_->routes, vopt);
  EXPECT_TRUE(rep.violations.empty());
  EXPECT_EQ(rep.errors, 0);
  EXPECT_EQ(rep.warnings, 0);
}

// Injection 1: delete a middle segment of a routed two-pin net. The route
// tree splits and the connectivity checker must report the net open.
TEST_F(VerifySignoff, DeletedSegmentCaughtAsOpen) {
  const Netlist& nl = out_->tile->netlist;
  NetId victim = kInvalidId;
  for (NetId n = 0; n < static_cast<NetId>(out_->routes.nets.size()); ++n) {
    const NetRoute& r = out_->routes.nets[static_cast<std::size_t>(n)];
    if (r.routed && r.segs.size() >= 4 && nl.net(n).pins.size() == 2) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidId);

  RoutingResult corrupted = out_->routes;
  std::vector<RouteSeg>& segs = corrupted.nets[static_cast<std::size_t>(victim)].segs;
  segs.erase(segs.begin() + static_cast<std::ptrdiff_t>(segs.size() / 2));

  VerifyOptions vopt;
  vopt.drc = vopt.placement = vopt.f2f = false;  // scope to connectivity.
  const VerifyReport rep = verifyDesign(nl, out_->fp, *out_->grid, corrupted, vopt);
  EXPECT_FALSE(rep.clean());
  const std::vector<Violation> opens = of(rep, ViolationKind::kOpen);
  ASSERT_FALSE(opens.empty()) << rep.summaryText();
  for (const Violation& v : opens) {
    EXPECT_EQ(v.net, victim);
    EXPECT_EQ(familyOf(v.kind), CheckFamily::kConnectivity);
    EXPECT_EQ(severityOf(v.kind), Severity::kError);
  }
  // Every error the scoped run reports points at the corrupted net.
  for (const Violation& v : rep.violations) {
    if (severityOf(v.kind) == Severity::kError) {
      EXPECT_EQ(v.net, victim);
    }
  }
}

// Injection 2: alias one wire segment into many other nets, overfilling the
// track grid far beyond any detour window. The DRC checker must report
// shorts naming two distinct nets on the overfilled layer.
TEST_F(VerifySignoff, AliasedTrackCaughtAsShort) {
  const Netlist& nl = out_->tile->netlist;
  const RouteGrid& grid = *out_->grid;

  NetId victim = kInvalidId;
  RouteSeg aliased{};
  for (NetId n = 0; n < static_cast<NetId>(out_->routes.nets.size()) && victim == kInvalidId;
       ++n) {
    for (const RouteSeg& s : out_->routes.nets[static_cast<std::size_t>(n)].segs) {
      if (!s.isVia && s.layer >= 2) {
        victim = n;
        aliased = s;
        break;
      }
    }
  }
  ASSERT_NE(victim, kInvalidId);

  RoutingResult corrupted = out_->routes;
  int stuffed = 0;
  for (NetId n = 0; n < static_cast<NetId>(corrupted.nets.size()) && stuffed < 120; ++n) {
    if (n == victim) continue;
    NetRoute& r = corrupted.nets[static_cast<std::size_t>(n)];
    if (!r.routed || r.segs.empty()) continue;
    r.segs.push_back(aliased);
    ++stuffed;
  }
  ASSERT_GE(stuffed, 120);

  VerifyOptions vopt;
  vopt.connectivity = vopt.placement = vopt.f2f = false;  // scope to DRC.
  const VerifyReport rep = verifyDesign(nl, out_->fp, grid, corrupted, vopt);
  EXPECT_FALSE(rep.clean());
  const std::vector<Violation> shorts = of(rep, ViolationKind::kShort);
  ASSERT_FALSE(shorts.empty()) << rep.summaryText();
  for (const Violation& v : shorts) {
    EXPECT_EQ(familyOf(v.kind), CheckFamily::kDrc);
    EXPECT_EQ(v.layer, aliased.layer);
    EXPECT_NE(v.net, kInvalidId);
    EXPECT_NE(v.otherNet, kInvalidId);
    EXPECT_NE(v.net, v.otherNet);
    EXPECT_FALSE(v.rect.isEmpty());
  }
}

// Injection 3: nudge a placed standard cell off its row. The placement
// checker must report kOffRow naming that cell.
TEST_F(VerifySignoff, OffRowCellCaughtByPlacement) {
  Netlist& nl = out_->tile->netlist;
  InstId victim = kInvalidId;
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const CellType& c = nl.cellOf(i);
    if (!nl.instance(i).fixed && !c.isMacro() && c.cls != CellClass::kFiller) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidId);

  const Point saved = nl.instance(victim).pos;
  nl.instance(victim).pos.y += out_->fp.rowHeight / 3;

  VerifyOptions vopt;
  vopt.drc = vopt.connectivity = vopt.f2f = false;  // scope to placement.
  const VerifyReport rep = verifyDesign(nl, out_->fp, *out_->grid, out_->routes, vopt);
  nl.instance(victim).pos = saved;  // restore the shared fixture.

  EXPECT_FALSE(rep.clean());
  const std::vector<Violation> offRow = of(rep, ViolationKind::kOffRow);
  ASSERT_FALSE(offRow.empty()) << rep.summaryText();
  for (const Violation& v : offRow) {
    EXPECT_EQ(v.cell, victim);
    EXPECT_EQ(familyOf(v.kind), CheckFamily::kPlacement);
  }
}

// Injection 4: drop every F2F via of a die-crossing net. The 3D interface
// checker must report the missing bond-layer crossing for that net.
TEST_F(VerifySignoff, DroppedF2fViaCaughtByInterfaceCheck) {
  const Netlist& nl = out_->tile->netlist;
  const int f2fCut = out_->grid->f2fCutLayer();
  ASSERT_GE(f2fCut, 0) << "combined stack expected";

  ASSERT_FALSE(out_->verify.f2fBumpsPerNet.empty());
  NetId victim = kInvalidId;
  for (NetId n = 0; n < static_cast<NetId>(out_->verify.f2fBumpsPerNet.size()); ++n) {
    if (out_->verify.f2fBumpsPerNet[static_cast<std::size_t>(n)] > 0) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidId);

  RoutingResult corrupted = out_->routes;
  std::vector<RouteSeg>& segs = corrupted.nets[static_cast<std::size_t>(victim)].segs;
  std::erase_if(segs, [&](const RouteSeg& s) { return s.isVia && s.layer == f2fCut; });

  VerifyOptions vopt;
  vopt.drc = vopt.connectivity = vopt.placement = false;  // scope to F2F.
  const VerifyReport rep = verifyDesign(nl, out_->fp, *out_->grid, corrupted, vopt);
  EXPECT_FALSE(rep.clean());
  const std::vector<Violation> missing = of(rep, ViolationKind::kMissingF2fCrossing);
  ASSERT_EQ(missing.size(), 1u) << rep.summaryText();
  EXPECT_EQ(missing.front().net, victim);
  EXPECT_EQ(missing.front().layer, f2fCut);
  EXPECT_EQ(familyOf(missing.front().kind), CheckFamily::kF2f);
  // The bump census shrinks by exactly the dropped crossings.
  EXPECT_EQ(rep.f2fBumpCount,
            out_->verify.f2fBumpCount -
                out_->verify.f2fBumpsPerNet[static_cast<std::size_t>(victim)]);
  EXPECT_EQ(rep.f2fBumpsPerNet[static_cast<std::size_t>(victim)], 0);
}

/// One XXH64 over everything a report states except the per-net bump
/// census: the totals, the recounts and every kept violation.
std::uint64_t reportHash(const VerifyReport& rep) {
  db::BinWriter w;
  w.i64(rep.errors);
  w.i64(rep.warnings);
  w.i32(rep.recomputedOverflowedEdges);
  w.i64(rep.recomputedTotalOverflow);
  w.i64(rep.f2fBumpCount);
  w.u64(rep.violations.size());
  for (const Violation& v : rep.violations) {
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.i32(v.net);
    w.i32(v.otherNet);
    w.i32(v.cell);
    w.i32(v.layer);
    w.i64(v.rect.xlo);
    w.i64(v.rect.ylo);
    w.i64(v.rect.xhi);
    w.i64(v.rect.yhi);
    w.str(v.detail);
  }
  return db::contentHash64(w.buffer().data(), w.size());
}

/// The signoff fixture (one tiny Macro-3D flow) under its own suite name.
class VerifyGolden : public VerifySignoff {};

// Every fault the DRC and connectivity checkers look for, injected at once
// into the tiny Macro-3D flow's routes, gives one fixed report at 1, 2 and
// 8 threads. The hash pins its order, payloads and detail strings; it was
// recorded with the sort-based DRC recount and connectivity check, so the
// flat kernels must reproduce their reports exactly.
TEST_F(VerifyGolden, FaultInjectedReportIsPinned) {
  const Netlist& nl = out_->tile->netlist;
  const RouteGrid& grid = *out_->grid;
  RoutingResult routes = out_->routes;
  const auto routedNets = [&](std::size_t minSegs, std::size_t pins) {
    std::vector<NetId> found;
    for (NetId n = 0; n < static_cast<NetId>(routes.nets.size()); ++n) {
      const NetRoute& r = routes.nets[static_cast<std::size_t>(n)];
      if (r.routed && r.segs.size() >= minSegs && nl.net(n).pins.size() == pins) {
        found.push_back(n);
      }
    }
    return found;
  };
  const std::vector<NetId> twoPin = routedNets(6, 2);
  const std::vector<NetId> threePin = routedNets(6, 3);
  ASSERT_GE(twoPin.size(), 4u);
  ASSERT_GE(threePin.size(), 2u);
  const auto segsOf = [&](NetId n) -> std::vector<RouteSeg>& {
    return routes.nets[static_cast<std::size_t>(n)].segs;
  };

  // A deleted segment: the net opens.
  std::vector<RouteSeg>& cut = segsOf(twoPin[0]);
  cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(cut.size() / 2));
  // An aliased track: one wire segment above M2 copied into 120 other nets
  // (shorts).
  NetId owner = 0;
  const auto isUpperWire = [](const RouteSeg& s) { return !s.isVia && s.layer >= 2; };
  while (std::none_of(segsOf(owner).begin(), segsOf(owner).end(), isUpperWire)) ++owner;
  const RouteSeg aliased = *std::find_if(segsOf(owner).begin(), segsOf(owner).end(), isUpperWire);
  int stuffed = 0;
  for (NetId n = owner + 1; n < static_cast<NetId>(routes.nets.size()) && stuffed < 120; ++n) {
    if (!routes.nets[static_cast<std::size_t>(n)].routed || segsOf(n).empty()) continue;
    segsOf(n).push_back(aliased);
    ++stuffed;
  }
  ASSERT_EQ(stuffed, 120);
  // An off-grid hop: a wire segment that skips a gcell.
  const RouteSeg hopFrom = segsOf(twoPin[1]).front();
  segsOf(twoPin[1]).push_back({false, grid.nodeLayer(hopFrom.fromNode), hopFrom.fromNode,
                               hopFrom.fromNode + 2});
  // A segment past the grid.
  segsOf(twoPin[2]).push_back({false, 1, grid.numNodes() + 7, grid.numNodes() + 8});
  // Dangling islands: two wire segments on M3 in the top-right corner,
  // listed first, and two in the bottom-left corner, listed last, so the
  // report's ascending node order is not the order the nodes appear in.
  const int step = grid.layerHorizontal(2) ? 1 : grid.nx();
  const int high = grid.nodeId(grid.nx() - 1, grid.ny() - 1, 2);
  const int low = grid.nodeId(0, 0, 2);
  std::vector<RouteSeg>& islands = segsOf(threePin[1]);
  islands.insert(islands.begin(), {{false, 2, high, high - step},
                                   {false, 2, high - step, high - 2 * step}});
  islands.push_back({false, 2, low, low + step});
  islands.push_back({false, 2, low + step, low + 2 * step});
  // A segment-free net spanning several gcells.
  segsOf(twoPin[3]).clear();

  VerifyOptions vopt;
  vopt.numThreads = 1;
  const VerifyReport rep = verifyDesign(nl, out_->fp, grid, routes, vopt);
  // Each injection shows up as the kind it models.
  for (const ViolationKind kind : {ViolationKind::kOpen, ViolationKind::kShort,
                                   ViolationKind::kOffGrid, ViolationKind::kDanglingSegment}) {
    EXPECT_GT(rep.countOf(kind), 0) << violationKindName(kind);
  }
  EXPECT_EQ(reportHash(rep), 0x9e601f848e4547d3ULL) << std::hex << reportHash(rep);
  for (const int threads : {2, 8}) {
    vopt.numThreads = threads;
    EXPECT_EQ(verifyDesign(nl, out_->fp, grid, routes, vopt), rep) << threads << " threads";
  }
}

}  // namespace
}  // namespace m3d
