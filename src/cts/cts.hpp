#pragma once

/// \file cts.hpp
/// Clock tree synthesis: recursive geometric bisection with buffer insertion
/// (a simplified H-tree / MMM-style tree).
///
/// The tree is materialized as real buffer instances and subnets in the
/// netlist, so placement legality, routing, wirelength and power all see it.
/// Clock arrivals for STA are computed by walking the tree with the
/// extracted parasitics after routing (updateClockModel), matching the
/// paper's observation that MoL stacking shortens the clock tree (Table II
/// reports max clock-tree depth).

#include <vector>

#include "floorplan/floorplan.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace m3d {

struct CtsOptions {
  int maxSinksPerLeaf = 12;  ///< CK pins per leaf buffer.
};

/// One buffer of the synthesized tree.
struct CtsBuffer {
  InstId inst = kInvalidId;
  int parent = -1;        ///< index into CtsResult::buffers (-1 = root).
  int level = 0;          ///< root = 1.
  NetId inputNet = kInvalidId;
  NetId outputNet = kInvalidId;
};

struct CtsResult {
  std::vector<CtsBuffer> buffers;
  int maxDepth = 0;               ///< buffer levels root..leaf.
  double estWirelengthUm = 0.0;   ///< Manhattan estimate at synthesis time.
  int numSinks = 0;
};

/// Builds the clock tree for \p clockNet over the current placement. The
/// clock net keeps its root (the clock port) and gains the root buffer as
/// its only sink; all former CK sinks move onto leaf subnets. Inserted
/// buffers are movable (legalize afterwards).
CtsResult synthesizeClockTree(Netlist& nl, NetId clockNet, const Floorplan& fp,
                              const CtsOptions& opt = CtsOptions{});

/// Computes per-instance clock arrival latencies by walking the tree with
/// extracted (or estimated) parasitics. Fills latency, maxLatency, skew and
/// maxTreeDepth.
ClockModel updateClockModel(const Netlist& nl, const std::vector<NetParasitics>& paras,
                            const CtsResult& cts);

}  // namespace m3d
