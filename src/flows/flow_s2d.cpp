#include <cassert>
#include <stdexcept>
#include <cmath>

#include "flows/case_study.hpp"
#include "flows/flows.hpp"
#include "opt/net_buffering.hpp"

namespace m3d {

namespace {

/// Shared implementation of the pseudo-design flows (Shrunk-2D, BF-S2D,
/// Compact-2D) applied to MoL stacking, per paper Sec. III.
///
/// Both prior flows place and optimize a *pseudo* 2D design whose geometry
/// does not exist in the final stack, then map the result onto the F2F
/// footprint:
///  - S2D shrinks cells/interconnects by 50% so the design fits the F2F
///    footprint; we realize the mathematically equivalent inflated view
///    (full-size cells in the 2x-area floorplan, estimated parasitics
///    scaled so the predicted delays match the shrunk design);
///  - C2D inflates the floorplan 2x and scales per-unit-length parasitics
///    by 1/sqrt(2); it adds post-tier-partitioning optimization and, per
///    its linear cell-location mapping, a coarser mapping granularity.
/// Macros appear as *partial* (50%) blockages at the tool's coarse spatial
/// resolution, with macro pins on the logic-die BEOL layers — both of which
/// are mispredictions the paper calls out. After tier partitioning the true
/// combined-stack design is legalized (the overlap-fixing step), clocked,
/// and routed; S2D gets no post-partition optimization, C2D gets one
/// estimated-parasitics pass.
FlowOutput runPseudoFlow(const TileConfig& cfg, const FlowOptions& optIn, FlowKind kind) {
  const bool balanced = kind == FlowKind::kBfS2D;
  const bool c2d = kind == FlowKind::kC2D;

  obs::ScopedRun run = beginFlowRun(kind, cfg.name, optIn);
  // The pseudo placement and optimization below run outside the pipeline,
  // so they need the run's effective knobs too.
  const FlowOptions opt = resolveFlowOptions(optIn);
  std::ostringstream trace;
  FlowOutput out;
  // One span per pseudo-flow stage; re-emplacing closes the previous span.
  std::optional<obs::ScopedPhase> stage;
  stage.emplace("floorplan");
  out.logicTech = makeCaseStudyTech(kLogicDieMetals);
  // S2D requires equal BEOLs in both dies (paper Sec. III).
  out.macroTech = makeCaseStudyTech(kLogicDieMetals);
  out.lib = std::make_unique<Library>(makeStdCellLib(out.logicTech));
  out.tile = std::make_unique<Tile>(generateTile(*out.lib, out.logicTech, cfg));
  Netlist& nl = out.tile->netlist;

  const NetlistStats stats = computeStats(nl);
  const Rect dieP = computeDie2D(stats, out.logicTech);   // pseudo floorplan
  const Rect dieF = computeDie3D(dieP, out.logicTech);    // F2F footprint

  // --- True macro partition + placement in the F2F footprint ----------------
  bool ok = false;
  if (balanced) {
    ok = placeMacrosBalanced(nl, out.tile->groups.macros, dieF, opt.macroHalo);
  } else {
    ok = placeMacrosShelf(nl, out.tile->groups.macros, dieF, opt.macroHalo, DieId::kMacro);
  }
  if (!ok) throw std::runtime_error("pseudo flow: macro partitioning failed");

  struct TrueMacro {
    InstId inst;
    Point pos;
  };
  std::vector<TrueMacro> truePos;
  for (InstId m : out.tile->groups.macros) {
    truePos.push_back({m, nl.instance(m).pos});
  }

  // --- Pseudo phase: scaled macro positions, partial blockages --------------
  auto scaleUp = [&](Dbu v, Dbu fLen, Dbu pLen) { return v * pLen / fLen; };
  std::vector<Rect> pseudoRects;
  for (InstId m : out.tile->groups.macros) {
    Instance& inst = nl.instance(m);
    const CellType& c = nl.cellOf(m);
    const Point trueCenter{inst.pos.x + c.width / 2, inst.pos.y + c.height / 2};
    const Point pseudoCenter{scaleUp(trueCenter.x, dieF.width(), dieP.width()),
                             scaleUp(trueCenter.y, dieF.height(), dieP.height())};
    inst.pos = Point{pseudoCenter.x - c.width / 2, pseudoCenter.y - c.height / 2};
    // Blockage area doubles (C2D: "blockage areas are increased by a factor
    // of 2x"; S2D's shrunk view is equivalent after inflation).
    const Dbu bw = static_cast<Dbu>(static_cast<double>(c.width) * std::sqrt(2.0));
    const Dbu bh = static_cast<Dbu>(static_cast<double>(c.height) * std::sqrt(2.0));
    pseudoRects.push_back(Rect{pseudoCenter.x - bw / 2, pseudoCenter.y - bh / 2,
                               pseudoCenter.x + bw / 2, pseudoCenter.y + bh / 2});
  }

  Floorplan pseudoFp;
  pseudoFp.die = dieP;
  pseudoFp.rowHeight = out.logicTech.rowHeight;
  pseudoFp.siteWidth = out.logicTech.siteWidth;
  pseudoFp.blockages =
      compositeBlockages(pseudoRects, dieP, opt.partialBlockageResolution, 0.5);
  assignPorts(nl, dieP);
  trace << "pseudo floorplan: die=" << dbuToUm(dieP.width()) << "um blockages="
        << pseudoFp.blockages.size() << "\n";
  stage->attr("pseudo_die_um", dbuToUm(dieP.width()));
  stage->attr("blockages", static_cast<double>(pseudoFp.blockages.size()));
  M3D_LOG(info) << "pseudo floorplan done: die=" << dbuToUm(dieP.width())
                << "um blockages=" << pseudoFp.blockages.size();

  // --- Pseudo placement + optimization ---------------------------------------
  // Cells are legalized at sqrt(2)x width (the inflated-view equivalent of
  // S2D's 50% cell shrink): the pseudo placement then maps onto the F2F
  // footprint with legal full-size spacing.
  LegalizerOptions pseudoLopt;
  pseudoLopt.cellWidthScale = std::sqrt(2.0);
  stage.emplace("pseudo_place");
  {
    seedPlacementByModules(*out.tile, pseudoFp);
    PlacerOptions popt = opt.placer;
    popt.useExistingPositions = true;
    popt.legalizer = pseudoLopt;
    const PlaceResult pr = globalPlace(nl, pseudoFp, popt);
    trace << "pseudo place: hpwl_mm=" << displayMm(pr.hpwlUm) << "\n";
    stage->attr("hpwl_mm", displayMm(pr.hpwlUm));
    M3D_LOG(info) << "pseudo place done: hpwl_mm=" << displayMm(pr.hpwlUm);
  }
  {
    // Repeater insertion happens inside the pseudo design (spacing scaled to
    // the inflated geometry).
    NetBufferingOptions nb;
    nb.maxLength = static_cast<Dbu>(static_cast<double>(nb.maxLength) * std::sqrt(2.0));
    const NetBufferingResult r = bufferLongNets(nl, pseudoFp, nb);
    out.metrics.buffersInserted += r.buffersInserted;
    legalize(nl, pseudoFp, pseudoLopt);
    trace << "pseudo repeaters: inserted=" << r.buffersInserted << "\n";
  }
  stage.emplace("pseudo_opt");
  if (opt.preRouteOpt) {
    // S2D sees shrunk geometry (lengths already final); C2D sees inflated
    // geometry with scaled per-unit parasitics. Either way the pseudo
    // estimate misses the F2F vias and the macro-die pin layers.
    EstimationOptions eopt = makeEstimationOptions(out.logicTech.beol,
                                                   c2d ? 1.0 / std::sqrt(2.0) : 1.0);
    if (!c2d) eopt.lengthScale = 1.0 / std::sqrt(2.0);
    EstimatedParasitics provider(eopt);
    std::vector<NetParasitics> paras = estimateDesign(nl, eopt);
    const int presized = presizeForLoad(nl, paras, provider);
    trace << "pseudo presize: resized=" << presized << "\n";
    const MaxFreqOptResult r =
        optimizeForTimingGoal(nl, paras, provider, nullptr, opt.optBase, opt);
    out.metrics.cellsResized += r.cellsResized;
    out.metrics.buffersInserted += r.buffersInserted;
    trace << "pseudo opt: resized=" << r.cellsResized << " buffers=" << r.buffersInserted
          << "\n";
    stage->attr("cells_resized", static_cast<double>(r.cellsResized));
    stage->attr("buffers_inserted", static_cast<double>(r.buffersInserted));
    M3D_LOG(info) << "pseudo opt done: resized=" << r.cellsResized
                  << " buffers=" << r.buffersInserted;
    legalize(nl, pseudoFp, pseudoLopt);
  }

  // --- Tier partitioning: map cells into the F2F footprint --------------------
  stage.emplace("tier_partition");
  const Dbu gridQ = c2d ? umToDbu(2.0) : 0;  // C2D's linear-mapping granularity
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    Instance& inst = nl.instance(i);
    if (inst.fixed || nl.cellOf(i).isMacro()) continue;
    Dbu x = inst.pos.x * dieF.width() / dieP.width();
    Dbu y = inst.pos.y * dieF.height() / dieP.height();
    if (gridQ > 0) {
      x = x / gridQ * gridQ;
      y = y / gridQ * gridQ;
    }
    inst.pos = dieF.clamp(Point{x, y});
  }
  for (const TrueMacro& tm : truePos) nl.instance(tm.inst).pos = tm.pos;
  projectMacroDieMacros(nl, *out.lib, out.logicTech);
  out.routingBeol = buildCombinedBeol(out.logicTech.beol, out.macroTech.beol, opt.f2fVia,
                                      opt.stackOrder);

  out.fp.die = dieF;
  out.fp.rowHeight = out.logicTech.rowHeight;
  out.fp.siteWidth = out.logicTech.siteWidth;
  out.fp.blockages = macroPlacementBlockages(nl, DieId::kLogic, opt.macroHalo / 2);
  {
    const auto proj = macroPlacementBlockages(nl, DieId::kMacro, 0);
    out.fp.blockages.insert(out.fp.blockages.end(), proj.begin(), proj.end());
  }
  assignPorts(nl, dieF);
  M3D_LOG(info) << "tier partition done: footprint=" << dbuToUm(dieF.width()) << "x"
                << dbuToUm(dieF.height()) << "um";
  stage.reset();

  // --- Overlap fixing, (C2D: post-partition opt), CTS, routing, sign-off ------
  FlowOptions fopt = opt;
  // Prior flows plan F2F vias in a separate step without the global router's
  // cost optimization; model as a cheap F2F crossing (no bump economy).
  fopt.router.f2fViaCost = opt.s2dF2fPlanningCost;
  PipelineFlags flags;
  flags.inheritPlacement = true;  // placement and repeaters come from the pseudo design
  flags.preRouteOpt = c2d;        // C2D's post-tier-partitioning optimization
  flags.postRouteOpt = opt.pseudoPostRouteOpt;  // paper flows: false
  runPnrPipeline(out, fopt, flags, trace);

  out.metrics.flow = flowName(kind);
  out.metrics.tileName = cfg.name;
  out.metrics.footprintMm2 = displayMm2(dbu2ToUm2(dieF.area()));
  out.metrics.metalAreaMm2 =
      out.metrics.footprintMm2 * static_cast<double>(out.routingBeol.numMetals());
  out.trace = trace.str();
  finishFlowRun(out, opt, run);
  return out;
}

}  // namespace

FlowOutput runFlowS2D(const TileConfig& cfg, bool balancedFloorplan, const FlowOptions& opt) {
  return runPseudoFlow(cfg, opt, balancedFloorplan ? FlowKind::kBfS2D : FlowKind::kS2D);
}

FlowOutput runFlowC2D(const TileConfig& cfg, const FlowOptions& opt) {
  return runPseudoFlow(cfg, opt, FlowKind::kC2D);
}

}  // namespace m3d
