#pragma once

/// \file net_node_index.hpp
/// Dense local numbering of the grid nodes one net touches.
///
/// The per-net signoff kernels (extraction, the connectivity check) number
/// the grid nodes of a net's route 0, 1, 2, ... in the order they first see
/// them and keep their per-node state in flat arrays indexed by that number.
/// NetNodeIndex maps a grid node id to its local number in O(1) expected
/// time: an open-addressing table of local numbers, sized to the net, whose
/// keys are the nodes themselves. Any int is a valid key (a malformed route
/// may name a node past the grid), so lookups never index by a node id.
/// reset() reuses the arrays, so a loop over nets allocates only when a net
/// is larger than every net before it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace m3d {

class NetNodeIndex {
 public:
  /// Forgets every node and makes room for up to \p maxNodes of them.
  void reset(std::size_t maxNodes) {
    int bits = 2;
    while ((std::size_t{1} << bits) < 2 * maxNodes) ++bits;  // load factor <= 1/2
    shift_ = 32 - bits;
    mask_ = (std::uint32_t{1} << bits) - 1;
    slots_.assign(std::size_t{1} << bits, -1);
    nodes_.clear();
  }

  /// Local number of \p node, or -1 when it has none.
  int find(int node) const {
    for (std::uint32_t i = home(node);; i = (i + 1) & mask_) {
      const int s = slots_[i];
      if (s < 0 || nodes_[static_cast<std::size_t>(s)] == node) return s;
    }
  }

  /// Local number of \p node, numbering it next when it has none. At most
  /// the maxNodes of the last reset() may be numbered.
  int insert(int node) {
    for (std::uint32_t i = home(node);; i = (i + 1) & mask_) {
      const int s = slots_[i];
      if (s >= 0 && nodes_[static_cast<std::size_t>(s)] == node) return s;
      if (s < 0) {
        slots_[i] = static_cast<int>(nodes_.size());
        nodes_.push_back(node);
        return slots_[i];
      }
    }
  }

  /// Grid node of local number \p i.
  int node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  /// Nodes numbered since the last reset().
  int size() const { return static_cast<int>(nodes_.size()); }

 private:
  /// Fibonacci hashing: the top bits of the product spread neighbouring
  /// node ids (a route's nodes) across the table.
  std::uint32_t home(int node) const {
    return (static_cast<std::uint32_t>(node) * 0x9E3779B9u) >> shift_;
  }

  std::vector<int> slots_;  ///< local number per slot, -1 when empty.
  std::vector<int> nodes_;  ///< grid node per local number.
  int shift_ = 30;
  std::uint32_t mask_ = 3;
};

}  // namespace m3d
