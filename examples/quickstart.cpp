/// \file quickstart.cpp
/// Minimal end-to-end tour of the library: generate the small-cache
/// OpenPiton tile, run the 2D baseline and the Macro-3D flow, and print the
/// head-to-head comparison. All artifacts land in examples_out/ (gitignored,
/// regenerated on demand), among them the finished Macro-3D design as one
/// design-database file, examples_out/macro3d_small.m3ddb, which
/// loadFlowCheckpoint reads back. Runs in a few seconds (3.3 s on a
/// 4-vCPU x86-64 VM).

#include <chrono>
#include <cstdio>
#include <iostream>

#include "core/macro3d.hpp"
#include "flows/flow_checkpoint.hpp"
#include "flows/flows.hpp"
#include "io/fsutil.hpp"
#include "report/run_report_table.hpp"
#include "report/table.hpp"

int main() {
  using namespace m3d;

  // Per-stage progress on stderr while the flows run (M3D_LOG_LEVEL
  // overrides; try =debug for per-iteration detail).
  obs::configureLogging(obs::LogLevel::kInfo);

  const std::string outDir = "examples_out";
  io::ensureDirectories(outDir);

  TileConfig cfg = makeSmallCacheTileConfig();

  std::cout << "Running 2D baseline flow...\n";
  const FlowOutput d2 = runFlow2D(cfg);
  std::cout << d2.trace << "\n";

  std::cout << "Running Macro-3D flow...\n";
  FlowOptions m3opt;
  m3opt.report.jsonPath = outDir + "/quickstart_macro3d_report.json";
  // Checkpoint every pipeline stage into the design database so the warm
  // re-run below restores instead of recomputing (delete the directory to
  // force a cold run).
  m3opt.checkpointDir = outDir + "/checkpoints";
  const auto coldT0 = std::chrono::steady_clock::now();
  const FlowOutput m3 = runFlowMacro3D(cfg, m3opt);
  const double coldMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - coldT0)
                            .count();
  std::cout << m3.trace << "\n";

  // Warm re-run: identical inputs, so every stage restores from the cache.
  std::cout << "Re-running Macro-3D flow from the stage cache...\n";
  m3opt.report.jsonPath.clear();
  const auto warmT0 = std::chrono::steady_clock::now();
  const FlowOutput m3warm = runFlowMacro3D(cfg, m3opt);
  const double warmMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - warmT0)
                            .count();
  std::printf("cold run: %.0f ms, warm (--resume) run: %.0f ms, identical fclk: %s\n\n",
              coldMs, warmMs,
              m3warm.metrics.fclkMhz == m3.metrics.fclkMhz ? "yes" : "NO");

  // Independent physical-verification verdicts (src/verify/).
  std::cout << "2D signoff:       " << d2.verify.verdictLine() << "\n";
  std::cout << "Macro-3D signoff: " << m3.verify.verdictLine() << "\n\n";

  // Where the wall-clock went (from the run report's span tree).
  std::cout << runReportSpanTable(m3.report, /*maxDepth=*/1).str() << "\n";

  Table t("Quickstart: 2D vs Macro-3D (small-cache tile)");
  t.setHeader({"metric", "2D", "Macro-3D"});
  t.addRow({"fclk [MHz]", Table::num(d2.metrics.fclkMhz, 0),
            Table::withDelta(m3.metrics.fclkMhz, d2.metrics.fclkMhz, 0)});
  t.addRow({"Emean [fJ/cycle]", Table::num(d2.metrics.emeanFj, 1),
            Table::withDelta(m3.metrics.emeanFj, d2.metrics.emeanFj, 1)});
  t.addRow({"Afootprint [mm^2]", Table::num(d2.metrics.footprintMm2, 2),
            Table::withDelta(m3.metrics.footprintMm2, d2.metrics.footprintMm2, 2)});
  t.addRow({"Total wirelength [m]", Table::num(d2.metrics.totalWirelengthM, 2),
            Table::withDelta(m3.metrics.totalWirelengthM, d2.metrics.totalWirelengthM, 2)});
  t.addRow({"F2F bumps", std::to_string(d2.metrics.f2fBumps),
            std::to_string(m3.metrics.f2fBumps)});
  t.addRow({"F2F bumps (signoff recount)", std::to_string(d2.metrics.f2fBumpCount),
            std::to_string(m3.metrics.f2fBumpCount)});
  t.addRow({"Signoff verdict", d2.verify.verdictLine(), m3.verify.verdictLine()});
  t.addRow({"Crit.-path WL [mm]", Table::num(d2.metrics.critPathWirelengthMm, 2),
            Table::withDelta(m3.metrics.critPathWirelengthMm,
                             d2.metrics.critPathWirelengthMm, 2)});
  t.addRow({"Clock-tree depth", std::to_string(d2.metrics.clockTreeDepth),
            std::to_string(m3.metrics.clockTreeDepth)});
  std::cout << t.str() << std::endl;

  // Export the finished Macro-3D design (library, netlist, BEOL, floorplan,
  // routes, parasitics, metrics, signoff report) as a signoff-stage
  // checkpoint.
  const std::string dbPath = outDir + "/macro3d_small.m3ddb";
  if (const db::DbStatus st = saveStageCheckpoint(m3, m3.trace, 6, 0, dbPath); !st.ok()) {
    std::cerr << "cannot write " << dbPath << ": " << st.detail << std::endl;
    return 1;
  }
  std::cout << "wrote " << dbPath << std::endl;
  return 0;
}
