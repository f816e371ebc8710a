// Ad-hoc probe: where does wirelength come from, and how does the placer
// behave across iteration budgets?
#include <iostream>
#include <cmath>
#include <map>

#include "flows/case_study.hpp"
#include "floorplan/floorplan.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/openpiton.hpp"
#include "flows/flow_common.hpp"
#include "place/placer.hpp"

using namespace m3d;

int main() {
  const TechNode tech = makeCaseStudyTech();
  TileConfig cfg = makeSmallCacheTileConfig();

  for (int iters : {6, 10, 16}) {
    Library lib = makeStdCellLib(tech);
    Tile tile = generateTile(lib, tech, cfg);
    Netlist& nl = tile.netlist;
    const NetlistStats stats = computeStats(nl);
    const Rect die = computeDie2D(stats, tech);
    placeMacrosRing(nl, tile.groups.macros, die, umToDbu(1.0));
    Floorplan fp;
    fp.die = die;
    fp.rowHeight = tech.rowHeight;
    fp.siteWidth = tech.siteWidth;
    fp.blockages = macroPlacementBlockages(nl, DieId::kLogic, umToDbu(0.5));
    assignPorts(nl, die);

    Floorplan fpRef = fp;
    seedPlacementByModules(tile, fpRef);
    {
      std::cout << "  raw-seed hpwl_um=" << dbuToUm(static_cast<Dbu>(nl.totalHpwl())) << "\n";
      // Seed quality: legalize the raw seed and measure.
      Netlist copy = nl;
      const LegalizeResult lr = legalize(copy, fp);
      std::cout << "  seed+legal hpwl_um=" << dbuToUm(static_cast<Dbu>(copy.totalHpwl()))
                << " avg_disp=" << lr.avgDisplacementUm << " max_disp=" << lr.maxDisplacementUm
                << "\n";
    }
    PlacerOptions popt;
    popt.maxIters = iters;
    popt.useExistingPositions = true;
    const PlaceResult pr = globalPlace(nl, fp, popt);
    std::cout << "iters=" << iters << " hpwl_um=" << pr.hpwlUm << " usedIters=" << pr.iterations
              << "\n";

    if (iters == 16) {
      // Creation-index span histogram for core nets.
      std::map<int, int> spanHist;
      double spanHpwl[8] = {0};
      for (NetId n = 0; n < nl.numNets(); ++n) {
        const Net& net = nl.net(n);
        if (net.name.rfind("core", 0) != 0 || net.isClock) continue;
        InstId lo = 1 << 30, hi = -1;
        for (const auto& pp : net.pins) {
          if (pp.kind != NetPin::Kind::kInstPin) continue;
          lo = std::min(lo, pp.inst);
          hi = std::max(hi, pp.inst);
        }
        if (hi < 0) continue;
        const int span = hi - lo;
        int bucket = 0;
        for (int s2 = span; s2 > 4; s2 /= 4) ++bucket;
        bucket = std::min(bucket, 7);
        spanHist[bucket]++;
        spanHpwl[bucket] += dbuToUm(nl.netHpwl(n));
      }
      for (auto& [b, c] : spanHist) {
        std::cout << "  span<=" << (int)std::pow(4, b + 1) << " nets=" << c
                  << " hpwl=" << spanHpwl[b] << "\n";
      }
      // HPWL by net-name prefix.
      std::map<std::string, std::pair<double, int>> byPrefix;
      for (NetId n = 0; n < nl.numNets(); ++n) {
        const std::string& name = nl.net(n).name;
        std::string prefix = name.substr(0, name.find('_'));
        if (prefix.size() > 6) prefix = prefix.substr(0, 6);
        byPrefix[prefix].first += dbuToUm(nl.netHpwl(n));
        byPrefix[prefix].second += 1;
      }
      std::multimap<double, std::string, std::greater<>> sorted;
      for (auto& [p, v] : byPrefix) sorted.insert({v.first, p + " n=" + std::to_string(v.second)});
      int k = 0;
      for (auto& [wl, label] : sorted) {
        if (k++ > 11) break;
        std::cout << "  " << label << " hpwl_um=" << wl << "\n";
      }
    }
  }
  return 0;
}
