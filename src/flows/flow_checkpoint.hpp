#pragma once

/// \file flow_checkpoint.hpp
/// Flow-state checkpoints on top of the design database (src/db): one
/// .m3ddb file per pipeline stage holding the complete flow state at that
/// stage boundary — library, netlist, tile bookkeeping, tech/BEOL stack,
/// floorplan, CTS tree, committed routes, timing annotations (parasitics +
/// clock model), DesignMetrics, VerifyReport and the pipeline trace text.
///
/// The RouteGrid is deliberately NOT serialized: it is a pure function of
/// (netlist fixed macros, die, BEOL, RouteGridOptions) and is rebuilt
/// deterministically on restore — post-route stages only resize non-fixed
/// standard cells (the frozen-footprint guard rejects fixed instances), so
/// the rebuilt grid is bit-identical to the grid the routes were committed
/// on.
///
/// Stage-cache keys: key[0] chains from a root hash of the pipeline entry
/// state (library + netlist + floorplan + tile groups); key[i] chains from
/// key[i-1], the stage name, and a hash of exactly what stage i reads. Each
/// stage's recipe sits in its entry of the pipeline table in
/// flow_common.cpp, beside the stage body. A perturbation therefore
/// invalidates the first stage whose inputs changed and everything
/// downstream, and nothing upstream -- the ECO property. Example: changing
/// the F2F bump pitch (FlowOptions::f2fVia) alters only the combined BEOL,
/// which first enters the chain at the route stage, so place /
/// pre_route_opt / cts stay cache-valid; resizing a macro changes the
/// netlist and invalidates everything. Thread counts are excluded
/// everywhere (results are bit-identical at any count by the determinism
/// contract).

#include <array>
#include <cstdint>
#include <string>

#include "db/design_db.hpp"
#include "db/stage_cache.hpp"
#include "flows/flow_common.hpp"

namespace m3d {

/// Bump when the pipeline semantics or the key recipe change: stale caches
/// from older binaries then miss instead of restoring wrong state.
/// v11: the encoded-state and ECO-seed hashes in the keys are XXH64.
inline constexpr std::uint32_t kStageKeyVersion = 11;

/// Content keys of the seven pipeline stages for this pipeline input.
/// Call at pipeline entry (before the place stage mutates the netlist).
/// Defined beside the pipeline's stage table (flow_common.cpp).
std::array<std::uint64_t, 7> computeStageKeys(const FlowOutput& out, const FlowOptions& opt,
                                              const PipelineFlags& flags);

/// Serializes the complete flow state of \p out (plus \p pipelineTrace and
/// the stage identity) into one design-database file at \p path.
db::DbStatus saveStageCheckpoint(const FlowOutput& out, const std::string& pipelineTrace,
                                 int stageIdx, std::uint64_t key, const std::string& path);

/// In-pipeline restore: loads \p path and replaces the mutable flow state
/// of the live \p out in place — the Library and Tile objects (and every
/// outstanding Netlist& held by the flow driver) keep their identity. Only
/// the pipeline *outputs* (netlist, CTS, routes, parasitics, clock model,
/// metrics, verify report, trace) are applied; pipeline *inputs* (BEOL,
/// tech nodes, floorplan, tile groups/config) stay live, because a
/// checkpoint of stage i is valid for every input that enters the key
/// chain only downstream of i (the bump-pitch ECO case). Fails closed
/// (typed status, \p out untouched on any container or codec error) and
/// rejects checkpoints whose library section does not hash-match the live
/// library. out.grid is not touched; the pipeline rebuilds it when resuming
/// at or past the route stage.
db::DbStatus restoreStageCheckpoint(const std::string& path, FlowOutput& out,
                                    std::string& pipelineTrace);

/// Standalone load: reconstructs a self-contained FlowOutput (fresh Library
/// and Tile) from a checkpoint file, for offline inspection of a saved run.
/// On success \p out is replaced whole -- out.grid and out.report are not
/// part of the database and are left empty; on failure it is untouched.
db::DbStatus loadFlowCheckpoint(const std::string& path, FlowOutput& out,
                                std::string* pipelineTrace = nullptr);

}  // namespace m3d
