#include "route/route_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace m3d {

constexpr double kViaUtilization = 0.50;  ///< usable fraction of via sites.

RouteGrid::RouteGrid(const Netlist& nl, const Rect& die, const Beol& beol,
                     const RouteGridOptions& opt)
    : beol_(&beol), opt_(opt), map_(die, kGcellSize) {
  nx_ = map_.nx();
  ny_ = map_.ny();
  nl_ = beol.numMetals();
  if (auto f2f = beol.f2fCutIndex()) f2fCut_ = *f2f;

  // Base capacities.
  wireCap_.assign(static_cast<std::size_t>(numWireEdges()), 0);
  viaCap_.assign(static_cast<std::size_t>(numViaEdges()), 0);
  wireBlocked_.assign(wireCap_.size(), 0.0f);
  viaBlocked_.assign(viaCap_.size(), 0.0f);

  for (int l = 0; l < nl_; ++l) {
    const MetalLayer& m = beol.metal(l);
    const double util = (l == 0) ? opt_.m1Utilization : opt_.trackUtilization;
    const int tracks = static_cast<int>(
        static_cast<double>(kGcellSize) / static_cast<double>(m.pitch) * util);
    const bool horiz = m.dir == LayerDir::kHorizontal;
    for (int y = 0; y < ny_; ++y) {
      for (int x = 0; x < nx_; ++x) {
        const bool valid = horiz ? (x + 1 < nx_) : (y + 1 < ny_);
        wireCap_[static_cast<std::size_t>(wireEdgeId(x, y, l))] =
            valid ? static_cast<std::uint16_t>(std::min(tracks, 65535)) : 0;
      }
    }
  }
  for (int l = 0; l + 1 < nl_; ++l) {
    const CutLayer& c = beol.cut(l);
    const double perSide = static_cast<double>(kGcellSize) / static_cast<double>(c.pitch);
    const int sites = static_cast<int>(perSide * perSide * kViaUtilization);
    for (int y = 0; y < ny_; ++y) {
      for (int x = 0; x < nx_; ++x) {
        viaCap_[static_cast<std::size_t>(viaEdgeId(x, y, l))] =
            static_cast<std::uint16_t>(std::clamp(sites, 0, 65535));
      }
    }
  }

  // Macro obstructions.
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const Instance& inst = nl.instance(i);
    const CellType& cell = nl.cellOf(i);
    if (!cell.isMacro()) continue;
    for (const Obstruction& o : cell.obstructions) {
      const auto layer = beol.findMetal(o.layer);
      if (!layer) continue;  // obstruction layer absent from this stack
      applyObstruction(o.rect.translated(inst.pos), *layer);
    }
  }

  // Convert fractional blockage into reduced capacities.
  for (std::size_t e = 0; e < wireCap_.size(); ++e) {
    const float frac = std::min(1.0f, wireBlocked_[e]);
    wireCap_[e] = static_cast<std::uint16_t>(
        std::max(0.0f, std::round(static_cast<float>(wireCap_[e]) * (1.0f - frac))));
  }
  for (std::size_t v = 0; v < viaCap_.size(); ++v) {
    const float frac = std::min(1.0f, viaBlocked_[v]);
    viaCap_[v] = static_cast<std::uint16_t>(
        std::max(0.0f, std::round(static_cast<float>(viaCap_[v]) * (1.0f - frac))));
  }
  wireBlocked_.clear();
  wireBlocked_.shrink_to_fit();
  viaBlocked_.clear();
  viaBlocked_.shrink_to_fit();
}

void RouteGrid::applyObstruction(const Rect& rect, int layer) {
  const int x0 = map_.xIndex(rect.xlo);
  const int x1 = map_.xIndex(rect.xhi - 1);
  const int y0 = map_.yIndex(rect.ylo);
  const int y1 = map_.yIndex(rect.yhi - 1);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const Rect cellRect = map_.cellRect(x, y);
      const Rect inter = rect.intersection(cellRect);
      if (inter.isEmpty() || cellRect.area() == 0) continue;
      const float frac = static_cast<float>(static_cast<double>(inter.area()) /
                                            static_cast<double>(cellRect.area()));
      // Wire tracks on the obstructed layer are consumed.
      wireBlocked_[static_cast<std::size_t>(wireEdgeId(x, y, layer))] += frac;
      // The via toward the macro's substrate is consumed by the macro's
      // internal wiring; the via toward the die's top metal stays available
      // for pin access. In a flipped combined stack the macro-die substrate
      // sits at the *top* of the stack, so the blocked direction inverts.
      const bool substrateAbove =
          beol_->macroDieFlipped() && beol_->metal(layer).die == DieId::kMacro;
      if (substrateAbove) {
        if (layer + 1 < nl_) {
          viaBlocked_[static_cast<std::size_t>(viaEdgeId(x, y, layer))] += frac;
        }
      } else if (layer > 0) {
        viaBlocked_[static_cast<std::size_t>(viaEdgeId(x, y, layer - 1))] += frac;
      }
    }
  }
}

int RouteGrid::pinNode(const Netlist& nl, const NetPin& pin) const {
  const Point p = nl.pinPosition(pin);
  const std::string& layerName = nl.pinLayer(pin);
  const auto layer = beol_->findMetal(layerName);
  assert(layer.has_value() && "pin layer missing from routing stack");
  const int x = map_.xIndex(p.x);
  const int y = map_.yIndex(p.y);
  return nodeId(x, y, *layer);
}

}  // namespace m3d
