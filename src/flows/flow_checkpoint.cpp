#include "flows/flow_checkpoint.hpp"

#include <utility>

#include "db/codec.hpp"
#include "db/hash.hpp"
#include "io/fsutil.hpp"

namespace m3d {

namespace {

using db::BinReader;
using db::BinWriter;
using db::DbError;
using db::DbStatus;
using db::DesignDb;
using db::HashStream;

// Section names (fixed emission order => byte-identical re-save).
constexpr const char* kSecMeta = "flow_meta";
constexpr const char* kSecLibrary = "library";
constexpr const char* kSecNetlist = "netlist";
constexpr const char* kSecGroups = "groups";
constexpr const char* kSecTileConfig = "tile_config";
constexpr const char* kSecLogicTech = "logic_tech";
constexpr const char* kSecMacroTech = "macro_tech";
constexpr const char* kSecBeol = "routing_beol";
constexpr const char* kSecFloorplan = "floorplan";
constexpr const char* kSecCts = "cts";
constexpr const char* kSecRoutes = "routes";
constexpr const char* kSecParasitics = "parasitics";
constexpr const char* kSecClock = "clock";
constexpr const char* kSecMetrics = "metrics";
constexpr const char* kSecVerify = "verify";
constexpr const char* kSecTrace = "trace";

// Checkpoint codec of one DesignMetrics field, overloaded on its type.
void put(BinWriter& w, const std::string& v) { w.str(v); }
void put(BinWriter& w, double v) { w.f64(v); }
void put(BinWriter& w, int v) { w.i32(v); }
void put(BinWriter& w, std::int64_t v) { w.i64(v); }
void get(BinReader& r, std::string& v) { v = r.str(); }
void get(BinReader& r, double& v) { v = r.f64(); }
void get(BinReader& r, int& v) { v = r.i32(); }
void get(BinReader& r, std::int64_t& v) { v = r.i64(); }

void encodeMetrics(BinWriter& w, const DesignMetrics& m) {
  forEachDesignMetric(m, [&w](const char*, const auto& v) { put(w, v); });
}

bool decodeMetrics(BinReader& r, DesignMetrics& m) {
  m = DesignMetrics{};
  forEachDesignMetric(m, [&r](const char*, auto& v) { get(r, v); });
  return r.ok();
}

template <typename Encode>
std::vector<std::uint8_t> payloadOf(Encode&& encode) {
  BinWriter w;
  encode(w);
  return w.take();
}

/// Runs \p decode over the named section; requires presence and full
/// consumption of the payload.
template <typename Decode>
DbStatus decodeSection(const DesignDb& dbFile, const char* name, Decode&& decode) {
  const std::vector<std::uint8_t>* payload = dbFile.section(name);
  if (payload == nullptr) {
    return DbStatus::fail(DbError::kMissingSection, std::string("missing section '") + name +
                                                        "'");
  }
  BinReader r(*payload);
  if (!decode(r) || !r.ok() || !r.atEnd()) {
    return DbStatus::fail(DbError::kMalformed, std::string("section '") + name +
                                                   "' failed to decode");
  }
  return DbStatus::success();
}

// Option-subset hashes. Each stage hashes exactly what it reads (including
// fan-in defaults applied inside the stage bodies); thread knobs are
// excluded by the bit-identity contract.

void hashOptimizerOptions(HashStream& h, const OptimizerOptions& o) {
  h.f64(o.targetPeriod);
  h.i32(o.maxPasses);
  // resizeGuard is installed by the pipeline itself as a pure function of
  // state already in the chain — not an independent input.
}

void hashTimingGoal(HashStream& h, const FlowOptions& opt) {
  h.b(opt.maxPerformance);
  h.f64(opt.targetPeriodNs);
  h.i32(opt.maxFreqRounds);
}

struct RestoredState {
  TileGroups groups;
  TileConfig config;
  TechNode logicTech;
  TechNode macroTech;
  Beol beol;
  Floorplan fp;
  CtsResult cts;
  RoutingResult routes;
  std::vector<NetParasitics> paras;
  ClockModel clock;
  DesignMetrics metrics;
  VerifyReport verify;
  std::string trace;
};

/// Decodes every non-netlist section into \p st (netlist/library handling
/// differs between the in-pipeline and standalone paths).
DbStatus decodeSharedSections(const DesignDb& dbFile, const Netlist& nl, RestoredState& st) {
  if (DbStatus s = decodeSection(dbFile, kSecGroups,
                                 [&](BinReader& r) {
                                   return db::decodeTileGroups(r, st.groups, nl.numInstances(),
                                                               nl.numNets(), nl.numPorts());
                                 });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecTileConfig,
                                 [&](BinReader& r) { return db::decodeTileConfig(r, st.config); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecLogicTech,
                                 [&](BinReader& r) { return db::decodeTechNode(r, st.logicTech); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecMacroTech,
                                 [&](BinReader& r) { return db::decodeTechNode(r, st.macroTech); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecBeol,
                                 [&](BinReader& r) { return db::decodeBeol(r, st.beol); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecFloorplan,
                                 [&](BinReader& r) { return db::decodeFloorplan(r, st.fp); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecCts,
                                 [&](BinReader& r) { return db::decodeCtsResult(r, st.cts); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecRoutes,
                                 [&](BinReader& r) { return db::decodeRoutingResult(r, st.routes); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecParasitics,
                                 [&](BinReader& r) { return db::decodeParasitics(r, st.paras); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecClock,
                                 [&](BinReader& r) { return db::decodeClockModel(r, st.clock); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecMetrics,
                                 [&](BinReader& r) { return decodeMetrics(r, st.metrics); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecVerify,
                                 [&](BinReader& r) { return db::decodeVerifyReport(r, st.verify); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSection(dbFile, kSecTrace,
                                 [&](BinReader& r) {
                                   st.trace = r.str();
                                   return r.ok();
                                 });
      !s.ok()) {
    return s;
  }
  return DbStatus::success();
}

/// Applies the sections that are pipeline *outputs* — the state the skipped
/// stages would have produced. Used by the in-pipeline restore, which must
/// NOT touch the pipeline *inputs* (BEOL, tech nodes, floorplan, groups,
/// config): a stage-i checkpoint is valid for every input that enters the
/// key chain only after stage i (e.g. a bump-pitch ECO changes the live
/// BEOL but replays a pre-route checkpoint — overwriting the live BEOL with
/// the checkpointed one would route the old stack).
void applyStageOutputs(RestoredState&& st, FlowOutput& out) {
  out.cts = std::move(st.cts);
  out.routes = std::move(st.routes);
  out.paras = std::move(st.paras);
  out.clock = std::move(st.clock);
  out.metrics = std::move(st.metrics);
  out.verify = std::move(st.verify);
}

/// Applies every restored section, inputs included (standalone loads, which
/// reconstruct a self-contained FlowOutput).
void applyRestoredState(RestoredState&& st, FlowOutput& out) {
  out.tile->groups = std::move(st.groups);
  out.tile->config = std::move(st.config);
  out.logicTech = std::move(st.logicTech);
  out.macroTech = std::move(st.macroTech);
  out.routingBeol = std::move(st.beol);
  out.fp = std::move(st.fp);
  applyStageOutputs(std::move(st), out);
}

}  // namespace

std::array<std::uint64_t, 7> computeStageKeys(const FlowOutput& out, const FlowOptions& opt,
                                              const PipelineFlags& flags) {
  const Netlist& nl = out.tile->netlist;
  std::array<std::uint64_t, 7> keys{};

  // Root: the pipeline entry state every stage transitively depends on.
  HashStream root;
  root.u32(kStageKeyVersion);
  root.u64(db::hashLibrary(*out.lib));
  root.u64(db::hashNetlist(nl));
  root.u64(db::hashFloorplan(out.fp));
  root.u64(db::hashTileGroups(out.tile->groups));

  // Stage 0: place (seeding + global place / overlap-fix + repeaters).
  {
    HashStream h;
    h.u64(root.digest());
    h.str(kPipelineStageNames[0]);
    h.b(flags.inheritPlacement);
    h.i64(opt.partialBlockageResolution);
    h.str(placeEngineName(opt.placer.engine));
    h.i32(opt.placer.maxIters);
    h.b(opt.placer.useExistingPositions);
    h.i64(opt.placer.legalizer.partialBlockageResolution);
    h.f64(opt.placer.legalizer.cellWidthScale);
    keys[0] = h.digest();
  }

  // Stage 1: pre_route_opt (estimated parasitics + sizing/buffering).
  {
    HashStream h;
    h.u64(keys[0]);
    h.str(kPipelineStageNames[1]);
    h.b(flags.preRouteOpt);
    if (flags.preRouteOpt) {
      const EstimationOptions eopt = makeEstimationOptions(out.routingBeol);
      h.f64(eopt.rPerUm);
      h.f64(eopt.cPerUm);
      hashTimingGoal(h, opt);
      hashOptimizerOptions(h, opt.optBase);
      h.i64(opt.partialBlockageResolution);
    }
    keys[1] = h.digest();
  }

  // Stage 2: cts.
  {
    HashStream h;
    h.u64(keys[1]);
    h.str(kPipelineStageNames[2]);
    h.i32(opt.cts.maxSinksPerLeaf);
    h.i64(opt.partialBlockageResolution);
    keys[2] = h.digest();
  }

  // Stage 3: route (the full BEOL enters the chain here — a bump-pitch or
  // macro-die-stack change invalidates route and downstream, nothing above).
  {
    HashStream h;
    h.u64(keys[2]);
    h.str(kPipelineStageNames[3]);
    h.u64(db::hashBeol(out.routingBeol));
    h.f64(opt.grid.trackUtilization);
    h.f64(opt.grid.m1Utilization);
    h.i32(opt.router.maxIterations);
    h.f64(opt.router.f2fViaCost);
    h.i32(opt.router.batchSize);
    h.i32(opt.router.searchHaloGcells);
    // Incremental ECO seed: the reused routes are a route input, so the
    // seed *content* enters the key (an unreadable path hashes as the path
    // string -- the route stage will warn and fall back to a full route).
    h.b(!opt.ecoRouteFrom.empty());
    if (!opt.ecoRouteFrom.empty()) {
      std::vector<std::uint8_t> bytes;
      if (io::readFileBytes(opt.ecoRouteFrom, bytes)) {
        h.u64(db::fnv1a64(bytes.data(), bytes.size()));
      } else {
        h.str(opt.ecoRouteFrom);
      }
    }
    keys[3] = h.digest();
  }

  // Stage 4: extract (pure function of routes + BEOL, both in the chain).
  {
    HashStream h;
    h.u64(keys[3]);
    h.str(kPipelineStageNames[4]);
    keys[4] = h.digest();
  }

  // Stage 5: post_route_opt.
  {
    HashStream h;
    h.u64(keys[4]);
    h.str(kPipelineStageNames[5]);
    h.b(flags.postRouteOpt);
    if (flags.postRouteOpt) {
      hashTimingGoal(h, opt);
      hashOptimizerOptions(h, opt.optBase);
    }
    keys[5] = h.digest();
  }

  // Stage 6: signoff STA + power + verification.
  {
    HashStream h;
    h.u64(keys[5]);
    h.str(kPipelineStageNames[6]);
    h.str(opt.signoffCorner.name == nullptr ? "" : opt.signoffCorner.name);
    h.f64(opt.signoffCorner.delayDerate);
    hashTimingGoal(h, opt);
    h.f64(out.logicTech.vdd);
    h.b(opt.signoff);
    h.b(opt.verify.drc);
    h.b(opt.verify.connectivity);
    h.b(opt.verify.placement);
    h.b(opt.verify.f2f);
    keys[6] = h.digest();
  }
  return keys;
}

db::DbStatus saveStageCheckpoint(const FlowOutput& out, const std::string& pipelineTrace,
                                 int stageIdx, std::uint64_t key, const std::string& path) {
  const Netlist& nl = out.tile->netlist;
  DesignDb dbFile;
  dbFile.setSection(kSecMeta, payloadOf([&](BinWriter& w) {
                      w.u32(kStageKeyVersion);
                      w.i32(stageIdx);
                      w.str(stageIdx >= 0 && stageIdx < 7 ? kPipelineStageNames[stageIdx] : "?");
                      w.u64(key);
                    }));
  dbFile.setSection(kSecLibrary,
                    payloadOf([&](BinWriter& w) { db::encodeLibrary(w, *out.lib); }));
  dbFile.setSection(kSecNetlist, payloadOf([&](BinWriter& w) { db::encodeNetlist(w, nl); }));
  dbFile.setSection(kSecGroups,
                    payloadOf([&](BinWriter& w) { db::encodeTileGroups(w, out.tile->groups); }));
  dbFile.setSection(kSecTileConfig,
                    payloadOf([&](BinWriter& w) { db::encodeTileConfig(w, out.tile->config); }));
  dbFile.setSection(kSecLogicTech,
                    payloadOf([&](BinWriter& w) { db::encodeTechNode(w, out.logicTech); }));
  dbFile.setSection(kSecMacroTech,
                    payloadOf([&](BinWriter& w) { db::encodeTechNode(w, out.macroTech); }));
  dbFile.setSection(kSecBeol,
                    payloadOf([&](BinWriter& w) { db::encodeBeol(w, out.routingBeol); }));
  dbFile.setSection(kSecFloorplan,
                    payloadOf([&](BinWriter& w) { db::encodeFloorplan(w, out.fp); }));
  dbFile.setSection(kSecCts, payloadOf([&](BinWriter& w) { db::encodeCtsResult(w, out.cts); }));
  dbFile.setSection(kSecRoutes,
                    payloadOf([&](BinWriter& w) { db::encodeRoutingResult(w, out.routes); }));
  dbFile.setSection(kSecParasitics,
                    payloadOf([&](BinWriter& w) { db::encodeParasitics(w, out.paras); }));
  dbFile.setSection(kSecClock,
                    payloadOf([&](BinWriter& w) { db::encodeClockModel(w, out.clock); }));
  dbFile.setSection(kSecMetrics,
                    payloadOf([&](BinWriter& w) { encodeMetrics(w, out.metrics); }));
  dbFile.setSection(kSecVerify,
                    payloadOf([&](BinWriter& w) { db::encodeVerifyReport(w, out.verify); }));
  dbFile.setSection(kSecTrace, payloadOf([&](BinWriter& w) { w.str(pipelineTrace); }));
  return dbFile.saveFile(path);
}

int checkpointStageIndex(const db::DesignDb& dbFile) {
  const std::vector<std::uint8_t>* payload = dbFile.section(kSecMeta);
  if (payload == nullptr) return -1;
  BinReader r(*payload);
  const std::uint32_t keyVersion = r.u32();
  const std::int32_t stage = r.i32();
  if (!r.ok() || keyVersion != kStageKeyVersion || stage < 0 || stage > 6) return -1;
  return stage;
}

db::DbStatus restoreStageCheckpoint(const std::string& path, FlowOutput& out,
                                    std::string& pipelineTrace) {
  DesignDb dbFile;
  if (DbStatus s = dbFile.loadFile(path); !s.ok()) return s;
  // The live library must be the one the checkpoint was taken against: the
  // pipeline never extends the library, so a mismatch means the cache entry
  // belongs to a different design generation. Compare content hashes.
  const std::vector<std::uint8_t>* libSection = dbFile.section(kSecLibrary);
  if (libSection == nullptr) {
    return DbStatus::fail(DbError::kMissingSection, "missing section 'library'");
  }
  if (db::fnv1a64(libSection->data(), libSection->size()) != db::hashLibrary(*out.lib)) {
    return DbStatus::fail(DbError::kHashMismatch,
                          "checkpoint library does not match the live library");
  }
  // Decode everything into temporaries first so a malformed later section
  // cannot leave out half-restored.
  RestoredState st;
  Netlist& nl = out.tile->netlist;
  if (DbStatus s = decodeSection(dbFile, kSecNetlist,
                                 [&](BinReader& r) { return db::decodeNetlist(r, nl); });
      !s.ok()) {
    return s;
  }
  if (DbStatus s = decodeSharedSections(dbFile, nl, st); !s.ok()) return s;
  pipelineTrace = std::move(st.trace);
  applyStageOutputs(std::move(st), out);
  return DbStatus::success();
}

db::DbStatus loadFlowCheckpoint(const std::string& path, FlowOutput& out,
                                std::string* pipelineTrace) {
  DesignDb dbFile;
  if (DbStatus s = dbFile.loadFile(path); !s.ok()) return s;
  auto lib = std::make_unique<Library>();
  if (DbStatus s = decodeSection(dbFile, kSecLibrary,
                                 [&](BinReader& r) { return db::decodeLibrary(r, *lib); });
      !s.ok()) {
    return s;
  }
  auto tile = std::make_unique<Tile>(lib.get());
  if (DbStatus s = decodeSection(dbFile, kSecNetlist,
                                 [&](BinReader& r) { return db::decodeNetlist(r, tile->netlist); });
      !s.ok()) {
    return s;
  }
  RestoredState st;
  if (DbStatus s = decodeSharedSections(dbFile, tile->netlist, st); !s.ok()) return s;
  out.lib = std::move(lib);
  out.tile = std::move(tile);
  out.grid.reset();
  if (pipelineTrace != nullptr) *pipelineTrace = std::move(st.trace);
  applyRestoredState(std::move(st), out);
  return DbStatus::success();
}

}  // namespace m3d
