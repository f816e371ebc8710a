#include "core/macro3d.hpp"

#include <cassert>
#include <stdexcept>

#include "flows/case_study.hpp"

namespace m3d {

FlowOutput macro3dEntryState(const TileConfig& cfg, const FlowOptions& opt,
                             std::ostringstream& trace) {
  FlowOutput out;
  {
    // --- Step 1: per-die floorplans with the F2F footprint -----------------
    obs::ScopedPhase phase("floorplan");
    out.logicTech = makeCaseStudyTech(kLogicDieMetals);
    out.macroTech = makeCaseStudyTech(opt.macroDieMetals);
    out.lib = std::make_unique<Library>(makeStdCellLib(out.logicTech));
    out.tile = std::make_unique<Tile>(generateTile(*out.lib, out.logicTech, cfg));
    Netlist& nl = out.tile->netlist;

    const NetlistStats stats = computeStats(nl);
    const Rect die2d = computeDie2D(stats, out.logicTech);
    const Rect die = computeDie3D(die2d, out.logicTech);
    phase.attr("footprint_um", dbuToUm(die.width()));
    phase.attr("macros", stats.numMacros);
    trace << "step1 floorplans: footprint=" << dbuToUm(die.width()) << "x"
          << dbuToUm(die.height()) << "um (2D would be " << dbuToUm(die2d.width()) << "x"
          << dbuToUm(die2d.height()) << ")\n";
    M3D_LOG(info) << "step1 floorplans done: footprint=" << dbuToUm(die.width()) << "x"
                  << dbuToUm(die.height()) << "um macros=" << stats.numMacros;

    if (!placeMacrosShelf(nl, out.tile->groups.macros, die, opt.macroHalo, DieId::kMacro)) {
      throw std::runtime_error("macro3d: macro-die shelf packing failed");
    }
    if (const std::string err = checkMacroPlacement(nl, DieId::kMacro, die); !err.empty()) {
      throw std::runtime_error("macro3d: illegal macro placement: " + err);
    }
    out.fp.die = die;
  }
  Netlist& nl = out.tile->netlist;
  const Rect die = out.fp.die;

  {
    // --- Step 2: memory-on-logic projection + combined BEOL ----------------
    obs::ScopedPhase phase("projection");
    projectMacroDieMacros(nl, *out.lib, out.logicTech);
    out.routingBeol = buildCombinedBeol(out.logicTech.beol, out.macroTech.beol,
                                        opt.f2fVia, opt.stackOrder);
    assert(out.routingBeol.validate().empty());
    phase.attr("combined_metals", out.routingBeol.numMetals());
    trace << "step2 projection: combined stack = " << out.routingBeol.orderString() << "\n";
    M3D_LOG(info) << "step2 projection done: combined stack = "
                  << out.routingBeol.orderString();

    out.fp.rowHeight = out.logicTech.rowHeight;
    out.fp.siteWidth = out.logicTech.siteWidth;
    // Logic-die macros (none in the MoL case study) block fully; projected
    // macro-die macros block only their filler-size substrate.
    out.fp.blockages = macroPlacementBlockages(nl, DieId::kLogic, opt.macroHalo / 2);
    {
      const auto proj = macroPlacementBlockages(nl, DieId::kMacro, 0);
      out.fp.blockages.insert(out.fp.blockages.end(), proj.begin(), proj.end());
    }
    assignPorts(nl, die);
  }
  return out;
}

FlowOutput runFlowMacro3D(const TileConfig& cfg, const FlowOptions& opt) {
  obs::ScopedRun run = beginFlowRun(FlowKind::kMacro3D, cfg.name, opt);
  std::ostringstream trace;
  FlowOutput out = macro3dEntryState(cfg, opt, trace);
  const Rect die = out.fp.die;

  // --- Step 3: standard 2D P&R on the superimposed design -------------------
  PipelineFlags flags;
  flags.preRouteOpt = opt.preRouteOpt;
  flags.postRouteOpt = opt.postRouteOpt;
  runPnrPipeline(out, opt, flags, trace);

  {
    // --- Step 4: die separation (validation only; results are final) --------
    obs::ScopedPhase phase("die_separation");
    const SeparatedDesign sep = separateDies(out, opt.stackOrder);
    phase.attr("f2f_bumps", static_cast<double>(sep.f2fBumps));
    trace << "step4 separation: logic-die wl_um=" << sep.logicDieWirelengthUm
          << " macro-die wl_um=" << sep.macroDieWirelengthUm << " bumps=" << sep.f2fBumps
          << "\n";
    M3D_LOG(info) << "step4 separation done: logic-die wl_um=" << sep.logicDieWirelengthUm
                  << " macro-die wl_um=" << sep.macroDieWirelengthUm
                  << " bumps=" << sep.f2fBumps;
  }

  out.metrics.flow = flowName(FlowKind::kMacro3D);
  out.metrics.tileName = cfg.name;
  out.metrics.footprintMm2 = displayMm2(dbu2ToUm2(die.area()));
  out.metrics.metalAreaMm2 =
      out.metrics.footprintMm2 * static_cast<double>(out.routingBeol.numMetals());
  out.trace = trace.str();
  finishFlowRun(out, opt, run);
  return out;
}

SeparatedDesign separateDies(const FlowOutput& out, MacroDieStackOrder order) {
  SeparatedDesign sep;
  const SeparatedBeols beols = separateBeol(out.routingBeol, order);
  sep.logicDieBeol = beols.logicDie;
  sep.macroDieBeol = beols.macroDie;
  sep.logicDieWirelengthUm = out.routes.wirelengthOfDieUm(out.routingBeol, DieId::kLogic);
  sep.macroDieWirelengthUm = out.routes.wirelengthOfDieUm(out.routingBeol, DieId::kMacro);
  sep.f2fBumps = out.routes.f2fBumps;
  return sep;
}

}  // namespace m3d
