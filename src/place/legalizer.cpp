#include "place/legalizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <sstream>

namespace m3d {

namespace {

struct Segment {
  Dbu lo;
  Dbu hi;
};

/// Subtracts [lo, hi) from a sorted disjoint segment list.
void subtract(std::vector<Segment>& segs, Dbu lo, Dbu hi) {
  if (lo >= hi) return;
  std::vector<Segment> out;
  out.reserve(segs.size() + 1);
  for (const Segment& s : segs) {
    if (hi <= s.lo || lo >= s.hi) {
      out.push_back(s);
      continue;
    }
    if (lo > s.lo) out.push_back({s.lo, lo});
    if (hi < s.hi) out.push_back({hi, s.hi});
  }
  segs = std::move(out);
}

struct Row {
  Dbu y = 0;
  std::vector<Segment> segs;  ///< free space, sorted, disjoint.
};

}  // namespace

LegalizeResult legalize(Netlist& nl, const Floorplan& fp, const LegalizerOptions& opt) {
  LegalizeResult result;
  const int numRows = fp.numRows();
  if (numRows <= 0) return result;

  // Build per-row free segments.
  std::vector<Row> rows(static_cast<std::size_t>(numRows));
  for (int r = 0; r < numRows; ++r) {
    Row& row = rows[static_cast<std::size_t>(r)];
    row.y = fp.die.ylo + static_cast<Dbu>(r) * fp.rowHeight;
    row.segs = {{fp.die.xlo, fp.die.xhi}};
  }
  for (const Blockage& b : fp.blockages) {
    const int r0 = std::max(0, static_cast<int>((b.rect.ylo - fp.die.ylo) / fp.rowHeight));
    const int r1 =
        std::min(numRows - 1, static_cast<int>((b.rect.yhi - fp.die.ylo - 1) / fp.rowHeight));
    for (int r = r0; r <= r1; ++r) {
      Row& row = rows[static_cast<std::size_t>(r)];
      if (b.rect.yhi <= row.y || b.rect.ylo >= row.y + fp.rowHeight) continue;
      if (b.density >= 0.99) {
        subtract(row.segs, b.rect.xlo, b.rect.xhi);
      } else if (b.density > 0.0) {
        // Row-dithered discretization of a partial blockage: the blockage
        // consumes its density fraction in whole rows (commercial engines
        // honor partial blockages at a similarly coarse row/region
        // granularity -- the exact sub-row structure is invisible to them,
        // which is the resolution limitation the paper calls out).
        const double d = b.density;
        if (std::floor(static_cast<double>(r + 1) * d) > std::floor(static_cast<double>(r) * d)) {
          subtract(row.segs, b.rect.xlo, b.rect.xhi);
        }
      }
    }
  }

  // Movable cells, widest first within x order buckets: process cells
  // left-to-right to keep the scan local, but big cells first inside a
  // bucket so they still find contiguous room.
  std::vector<InstId> cells;
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const Instance& inst = nl.instance(i);
    if (inst.fixed || nl.cellOf(i).isMacro()) continue;
    cells.push_back(i);
  }
  std::sort(cells.begin(), cells.end(), [&nl](InstId a, InstId b) {
    const Dbu xa = nl.instance(a).pos.x;
    const Dbu xb = nl.instance(b).pos.x;
    if (xa != xb) return xa < xb;
    const Dbu wa = nl.cellOf(a).width;
    const Dbu wb = nl.cellOf(b).width;
    if (wa != wb) return wa > wb;
    return a < b;
  });

  // Best position in a row for a cell of width w wanting x=desired: the
  // free segment position minimizing |x - desired|, site-aligned.
  auto findInRow = [&](const Row& row, Dbu desiredX, Dbu w, Dbu& outX) -> bool {
    bool found = false;
    Dbu best = 0;
    Dbu bestCost = 0;
    for (const Segment& s : row.segs) {
      if (s.hi - s.lo < w) continue;
      Dbu x = std::clamp(desiredX, s.lo, s.hi - w);
      // Site alignment within the segment.
      x = fp.die.xlo + (x - fp.die.xlo) / fp.siteWidth * fp.siteWidth;
      if (x < s.lo) x += fp.siteWidth;
      if (x + w > s.hi) {
        // Try the last aligned slot of the segment.
        x = fp.die.xlo + (s.hi - w - fp.die.xlo) / fp.siteWidth * fp.siteWidth;
        if (x < s.lo || x + w > s.hi) continue;
      }
      const Dbu cost = x > desiredX ? x - desiredX : desiredX - x;
      if (!found || cost < bestCost) {
        found = true;
        best = x;
        bestCost = cost;
      }
    }
    if (found) outX = best;
    return found;
  };

  double sumDispUm = 0.0;
  double maxDispUm = 0.0;
  int placed = 0;

  for (InstId i : cells) {
    Instance& inst = nl.instance(i);
    const CellType& c = nl.cellOf(i);
    const Dbu w = snapUp(static_cast<Dbu>(static_cast<double>(c.width) * opt.cellWidthScale),
                         fp.siteWidth);
    const Dbu desiredX = std::clamp(inst.pos.x, fp.die.xlo, std::max(fp.die.xlo, fp.die.xhi - w));
    const int desiredRow = std::clamp(
        static_cast<int>((inst.pos.y - fp.die.ylo + fp.rowHeight / 2) / fp.rowHeight), 0,
        numRows - 1);

    int bestRow = -1;
    Dbu bestX = 0;
    double bestCost = 0.0;
    // Every row is in reach; the bound below ends the search early.
    for (int dr = 0; dr <= numRows; ++dr) {
      for (int sign = 0; sign < (dr == 0 ? 1 : 2); ++sign) {
        const int r = desiredRow + (sign == 0 ? dr : -dr);
        if (r < 0 || r >= numRows) continue;
        const Row& row = rows[static_cast<std::size_t>(r)];
        Dbu x = 0;
        if (!findInRow(row, desiredX, w, x)) continue;
        const double cost = std::abs(static_cast<double>(x - desiredX)) +
                            2.0 * std::abs(static_cast<double>(row.y - inst.pos.y));
        if (bestRow < 0 || cost < bestCost) {
          bestRow = r;
          bestX = x;
          bestCost = cost;
        }
      }
      // A row farther than bestCost/(2*rowHeight) cannot beat the current
      // candidate.
      if (bestRow >= 0 &&
          2.0 * static_cast<double>(dr) * static_cast<double>(fp.rowHeight) > bestCost) {
        break;
      }
    }

    if (bestRow < 0) {
      ++result.failedCells;
      continue;
    }
    Row& row = rows[static_cast<std::size_t>(bestRow)];
    const double disp = std::abs(static_cast<double>(bestX - inst.pos.x)) +
                        std::abs(static_cast<double>(row.y - inst.pos.y));
    sumDispUm += dbuToUm(static_cast<Dbu>(disp));
    maxDispUm = std::max(maxDispUm, dbuToUm(static_cast<Dbu>(disp)));
    inst.pos = Point{bestX, row.y};
    subtract(row.segs, bestX, bestX + w);
    ++placed;
  }

  result.success = result.failedCells == 0;
  result.avgDisplacementUm = placed > 0 ? sumDispUm / placed : 0.0;
  result.maxDisplacementUm = maxDispUm;
  return result;
}

std::string checkLegality(const Netlist& nl, const Floorplan& fp) {
  std::ostringstream err;
  std::map<int, std::vector<std::pair<Dbu, Dbu>>> byRow;  // row -> (xlo, xhi)
  int reported = 0;
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const Instance& inst = nl.instance(i);
    const CellType& c = nl.cellOf(i);
    if (inst.fixed || c.isMacro()) continue;
    if ((inst.pos.y - fp.die.ylo) % fp.rowHeight != 0) {
      if (reported++ < 10) err << inst.name << " off row grid; ";
    }
    if ((inst.pos.x - fp.die.xlo) % fp.siteWidth != 0) {
      if (reported++ < 10) err << inst.name << " off site grid; ";
    }
    const Rect r{inst.pos.x, inst.pos.y, inst.pos.x + c.width, inst.pos.y + c.height};
    if (!fp.die.contains(r)) {
      if (reported++ < 10) err << inst.name << " outside die; ";
    }
    const int row = static_cast<int>((inst.pos.y - fp.die.ylo) / fp.rowHeight);
    byRow[row].push_back({r.xlo, r.xhi});
    for (const Blockage& b : fp.blockages) {
      if (b.density >= 0.99 && b.rect.overlaps(r)) {
        if (reported++ < 10) err << inst.name << " overlaps blockage; ";
        break;
      }
    }
  }
  for (auto& [row, spans] : byRow) {
    (void)row;
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 1; k < spans.size(); ++k) {
      if (spans[k].first < spans[k - 1].second) {
        if (reported++ < 10) err << "overlap in row; ";
      }
    }
  }
  return err.str();
}

}  // namespace m3d
