#pragma once

/// \file codec.hpp
/// Binary codecs between the in-memory design objects and design-database
/// section payloads. Encoders are deterministic (fixed field order, id
/// order for containers) so equal state yields equal bytes — the property
/// the content hashes and the byte-identity round-trip tests rely on.
/// Decoders validate structure (enum ranges, cross-references, counts)
/// against the bounds-checked BinReader and report failure through the
/// reader's sticky failed state plus a false return; they never trust a
/// field enough to index with it unchecked.

#include <cstdint>
#include <vector>

#include "cts/cts.hpp"
#include "db/serialize.hpp"
#include "extract/extraction.hpp"
#include "floorplan/floorplan.hpp"
#include "lib/library.hpp"
#include "netlist/netlist.hpp"
#include "netlist/openpiton.hpp"
#include "route/router.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"
#include "verify/verify.hpp"

namespace m3d::db {

// Each pair is symmetric: encodeX appends to the writer exactly what
// decodeX consumes. decodeX returns false (leaving the output in an
// unspecified but safe state) on any structural violation.

void encodeLibrary(BinWriter& w, const Library& lib);
bool decodeLibrary(BinReader& r, Library& out);

/// Netlist payload covers instances/nets/ports only; the Library travels in
/// its own section. \p decode validates every cross-reference against
/// \p out's library and replaces the netlist state in place (object
/// identity — and every outstanding Netlist& — survives the restore).
void encodeNetlist(BinWriter& w, const Netlist& nl);
bool decodeNetlist(BinReader& r, Netlist& out);

void encodeTileGroups(BinWriter& w, const TileGroups& g);
bool decodeTileGroups(BinReader& r, TileGroups& out, int numInstances, int numNets,
                      int numPorts);

void encodeTileConfig(BinWriter& w, const TileConfig& c);
bool decodeTileConfig(BinReader& r, TileConfig& out);

void encodeBeol(BinWriter& w, const Beol& beol);
bool decodeBeol(BinReader& r, Beol& out);

void encodeTechNode(BinWriter& w, const TechNode& t);
bool decodeTechNode(BinReader& r, TechNode& out);

void encodeFloorplan(BinWriter& w, const Floorplan& fp);
bool decodeFloorplan(BinReader& r, Floorplan& out);

void encodeCtsResult(BinWriter& w, const CtsResult& cts);
bool decodeCtsResult(BinReader& r, CtsResult& out);

void encodeRoutingResult(BinWriter& w, const RoutingResult& routes);
bool decodeRoutingResult(BinReader& r, RoutingResult& out);

void encodeParasitics(BinWriter& w, const std::vector<NetParasitics>& paras);
bool decodeParasitics(BinReader& r, std::vector<NetParasitics>& out);

void encodeClockModel(BinWriter& w, const ClockModel& clock);
bool decodeClockModel(BinReader& r, ClockModel& out);

void encodeVerifyReport(BinWriter& w, const VerifyReport& rep);
bool decodeVerifyReport(BinReader& r, VerifyReport& out);

// Content hashes (db::contentHash64, XXH64, over the encoded bytes). Used
// for stage-cache keys; hashX(a) == hashX(b) iff encodeX(a) == encodeX(b).
std::uint64_t hashLibrary(const Library& lib);
std::uint64_t hashNetlist(const Netlist& nl);
std::uint64_t hashTileGroups(const TileGroups& g);
std::uint64_t hashBeol(const Beol& beol);
std::uint64_t hashFloorplan(const Floorplan& fp);

}  // namespace m3d::db
