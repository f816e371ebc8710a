#include "flows/flow_checkpoint.hpp"

#include <utility>

#include "db/codec.hpp"
#include "db/hash.hpp"

namespace m3d {

/// Codec of the metrics section: every field, in forEachDesignMetric's
/// order. db::encode and db::decode find it by argument-dependent lookup.
template <typename Io, db::MaybeConst<DesignMetrics> M>
void code(Io& io, M& m, const db::IdBounds&) {
  forEachDesignMetric(m, [&io](const char*, auto& field) { io(field); });
}

namespace {

using db::BinReader;
using db::BinWriter;
using db::DbError;
using db::DbStatus;
using db::DesignDb;

/// The checkpoint's state sections, in file order after flow_meta and
/// library (the pipeline trace follows them). Calls
/// \p section(name, pipelineInput, member...) with that member of each
/// FlowOutput in \p outs. The netlist comes first: ids in later sections
/// are checked against it. A pipeline input is state the pipeline
/// reads but never writes: the in-pipeline restore keeps the live copy,
/// because a stage-i checkpoint is valid for every input that enters the
/// key chain only after stage i (a bump-pitch ECO changes the live BEOL but
/// replays a pre-route checkpoint -- overwriting the live BEOL would route
/// the old stack).
template <typename F, typename... Outs>
void forEachSection(F&& section, Outs&... outs) {
  section("netlist", false, outs.tile->netlist...);
  section("groups", true, outs.tile->groups...);
  section("tile_config", true, outs.tile->config...);
  section("logic_tech", true, outs.logicTech...);
  section("macro_tech", true, outs.macroTech...);
  section("routing_beol", true, outs.routingBeol...);
  section("floorplan", true, outs.fp...);
  section("cts", false, outs.cts...);
  section("routes", false, outs.routes...);
  section("parasitics", false, outs.paras...);
  section("clock", false, outs.clock...);
  section("metrics", false, outs.metrics...);
  section("verify", false, outs.verify...);
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
  if (!decode(r) || !r.atEnd()) {
    return DbStatus::fail(DbError::kMalformed, std::string("section '") + name +
                                                   "' failed to decode");
  }
  return DbStatus::success();
}

/// Decodes every state section into \p into (whose tile's netlist is bound
/// to the checkpoint's library) and the pipeline trace into \p trace. Each
/// section's ids are checked against the netlist, routing BEOL and die
/// decoded before it.
DbStatus decodeDesign(const DesignDb& dbFile, FlowOutput& into, std::string& trace) {
  const Netlist& nl = into.tile->netlist;
  DbStatus st = DbStatus::success();
  forEachSection(
      [&](const char* name, bool, auto& v) {
        if (!st.ok()) return;
        st = decodeSection(dbFile, name, [&](BinReader& r) {
          return db::decode(r, v, &nl, &into.routingBeol, &into.fp.die);
        });
      },
      into);
  if (!st.ok()) return st;
  return decodeSection(dbFile, "trace", [&](BinReader& r) {
    trace = r.str();
    return r.ok();
  });
}

}  // namespace

db::DbStatus saveStageCheckpoint(const FlowOutput& out, const std::string& pipelineTrace,
                                 int stageIdx, std::uint64_t key, const std::string& path) {
  DesignDb dbFile;
  dbFile.setSection("flow_meta", payloadOf([&](BinWriter& w) {
                      w.u32(kStageKeyVersion);
                      w.i32(stageIdx);
                      w.str(stageIdx >= 0 && stageIdx < 7 ? kPipelineStageNames[stageIdx] : "?");
                      w.u64(key);
                    }));
  dbFile.setSection("library", payloadOf([&](BinWriter& w) { db::encode(w, *out.lib); }));
  forEachSection(
      [&](const char* name, bool, const auto& v) {
        dbFile.setSection(name, payloadOf([&](BinWriter& w) { db::encode(w, v); }));
      },
      out);
  dbFile.setSection("trace", payloadOf([&](BinWriter& w) { w.str(pipelineTrace); }));
  return dbFile.saveFile(path);
}

db::DbStatus restoreStageCheckpoint(const std::string& path, FlowOutput& out,
                                    std::string& pipelineTrace) {
  DesignDb dbFile;
  if (DbStatus s = dbFile.loadFile(path); !s.ok()) return s;
  // The live library must be the one the checkpoint was taken against: the
  // pipeline never extends the library, so a mismatch means the cache entry
  // belongs to a different design generation. Compare content hashes.
  const std::vector<std::uint8_t>* libSection = dbFile.section("library");
  if (libSection == nullptr) {
    return DbStatus::fail(DbError::kMissingSection, "missing section 'library'");
  }
  if (db::contentHash64(libSection->data(), libSection->size()) != db::contentHash(*out.lib)) {
    return DbStatus::fail(DbError::kHashMismatch,
                          "checkpoint library does not match the live library");
  }
  // Decode into a staging copy first so a malformed later section cannot
  // leave out half-restored (the pipeline then recomputes on it), then
  // apply the pipeline outputs only.
  FlowOutput staged;
  staged.tile = std::make_unique<Tile>(out.lib.get());
  if (DbStatus s = decodeDesign(dbFile, staged, pipelineTrace); !s.ok()) return s;
  forEachSection(
      [](const char*, bool pipelineInput, auto& from, auto& to) {
        if (!pipelineInput) to = std::move(from);
      },
      staged, out);
  return DbStatus::success();
}

db::DbStatus loadFlowCheckpoint(const std::string& path, FlowOutput& out,
                                std::string* pipelineTrace) {
  DesignDb dbFile;
  if (DbStatus s = dbFile.loadFile(path); !s.ok()) return s;
  FlowOutput loaded;
  loaded.lib = std::make_unique<Library>();
  if (DbStatus s = decodeSection(dbFile, "library",
                                 [&](BinReader& r) { return db::decode(r, *loaded.lib); });
      !s.ok()) {
    return s;
  }
  loaded.tile = std::make_unique<Tile>(loaded.lib.get());
  std::string trace;
  if (DbStatus s = decodeDesign(dbFile, loaded, trace); !s.ok()) return s;
  out = std::move(loaded);
  if (pipelineTrace != nullptr) *pipelineTrace = std::move(trace);
  return DbStatus::success();
}

}  // namespace m3d
