#pragma once

/// \file route_grid.hpp
/// GCell routing grid over an arbitrary BEOL stack.
///
/// Nodes are (gcell-x, gcell-y, metal layer). Wire edges exist along each
/// layer's preferred direction; via edges connect vertically adjacent
/// layers. The F2F bond layer of a combined Macro-3D stack is *just another
/// cut layer* here — the router plans F2F vias implicitly, which is the core
/// claim of the methodology (Sec. III: "the highly-optimized 2D routing
/// engines take care of the F2F-via planning").
///
/// Capacities: wire capacity = tracks per gcell x utilization; via capacity
/// from the cut pitch. Macro routing obstructions reduce wire capacity on
/// their layer and via capacity *below* their layer (the macro's internal
/// wiring), keeping the via up to the next layer available for pin access.

#include <cstdint>
#include <string>
#include <vector>

#include "geom/grid.hpp"
#include "netlist/netlist.hpp"
#include "tech/beol.hpp"

namespace m3d {

/// GCell edge length of every routing grid.
inline constexpr Dbu kGcellSize = umToDbu(4.0);

struct RouteGridOptions {
  double trackUtilization = 0.80;  ///< usable fraction of wire tracks.
  /// Extra derate on M1: most of its tracks serve pin access and
  /// intra-cell routing, as in commercial global-router capacity models.
  double m1Utilization = 0.30;
};

class RouteGrid {
 public:
  /// Builds the grid over \p die for \p beol, carving out obstructions from
  /// the fixed macros of \p nl (both dies' macros, since the combined stack
  /// carries both dies' layers).
  RouteGrid(const Netlist& nl, const Rect& die, const Beol& beol,
            const RouteGridOptions& opt = RouteGridOptions{});

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int numLayers() const { return nl_; }
  int numNodes() const { return nx_ * ny_ * nl_; }
  const Beol& beol() const { return *beol_; }
  const GridMapping& mapping() const { return map_; }
  double gcellUm() const { return dbuToUm(kGcellSize); }

  int nodeId(int x, int y, int layer) const { return (layer * ny_ + y) * nx_ + x; }
  int nodeX(int id) const { return id % nx_; }
  int nodeY(int id) const { return (id / nx_) % ny_; }
  int nodeLayer(int id) const { return id / (nx_ * ny_); }

  bool layerHorizontal(int layer) const {
    return beol_->metal(layer).dir == LayerDir::kHorizontal;
  }

  /// Node of a netlist pin: gcell of its position, index of its layer.
  int pinNode(const Netlist& nl, const NetPin& pin) const;

  // --- wire edges ---------------------------------------------------------
  // Wire edge id e(l,x,y): from (x,y,l) to (x+1,y,l) on horizontal layers,
  // to (x,y+1,l) on vertical ones. Edges whose "to" node would be out of
  // bounds have capacity 0.
  int numWireEdges() const { return nl_ * nx_ * ny_; }
  int wireEdgeId(int x, int y, int layer) const { return (layer * ny_ + y) * nx_ + x; }
  std::uint16_t wireCap(int e) const { return wireCap_[static_cast<std::size_t>(e)]; }

  // --- via edges ----------------------------------------------------------
  // Via edge id v(l,x,y): between (x,y,l) and (x,y,l+1), l in [0, nl-2].
  int numViaEdges() const { return (nl_ - 1) * nx_ * ny_; }
  int viaEdgeId(int x, int y, int lowerLayer) const {
    return (lowerLayer * ny_ + y) * nx_ + x;
  }
  std::uint16_t viaCap(int v) const { return viaCap_[static_cast<std::size_t>(v)]; }
  bool viaIsF2f(int lowerLayer) const { return beol_->cut(lowerLayer).isF2f; }

  /// Index of the F2F cut layer in this stack, or -1 for a 2D stack.
  int f2fCutLayer() const { return f2fCut_; }

 private:
  void applyObstruction(const Rect& rect, int layer);

  const Beol* beol_;
  RouteGridOptions opt_;
  GridMapping map_;
  int nx_ = 0;
  int ny_ = 0;
  int nl_ = 0;
  int f2fCut_ = -1;
  std::vector<std::uint16_t> wireCap_;
  std::vector<std::uint16_t> viaCap_;
  // Fractional blockage accumulators used during construction.
  std::vector<float> wireBlocked_;
  std::vector<float> viaBlocked_;
};

}  // namespace m3d
