#pragma once

/// \file codec.hpp
/// The section payloads of the design database, each format stated once.
///
/// Every payload type has one `code(io, v, ids)` that lists its fields in
/// file order and runs in the direction its Io picks (serialize.hpp): over a
/// BinWriter it appends the fields of a const object, over a BinReader it
/// reads them back into a mutable one, so the writer and the reader cannot
/// drift apart. Encoding is deterministic (fixed field order, id order for
/// containers): equal state yields equal bytes, which the content hashes and
/// the byte-identity tests rely on.
///
/// Validation sits beside its field. io.count(v, minBytes) guards every
/// element count by a minimum element size, so a corrupt count cannot drive
/// a huge allocation; io.enumU8(e, last) bounds every enum; io.check(cond)
/// states every other rule. The reader fails on a false cond; the writer
/// discards it but still evaluates it, so a check in a field list compares
/// values and never indexes with one, and rules that index another table
/// run in the reader-only tail of the codec. Library, Netlist and Beol keep
/// their tables private: the reader fills new tables (io.table), checks
/// them and installs them only once the whole payload has passed.
///
/// Ids that point into the design are checked against the checkpoint's
/// netlist (IdBounds): the tile groups, each CTS buffer's cell and nets, the
/// route table (one route per net, or none yet), the parasitics (one entry
/// per net with one value per pin, or none) and the clock latencies (one
/// per instance, or none). Each route segment's layer and nodes are checked
/// against the checkpoint's routing BEOL and die. The section hashes are
/// unkeyed, so this is what keeps a checkpoint with matching hashes from
/// handing the next stage an out-of-range id.

#include <concepts>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cts/cts.hpp"
#include "db/hash.hpp"
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

/// Bounds of the ids a payload holds into the design: the sizes of the
/// checkpoint's netlist, and the netlist itself for the rules that index it;
/// and the routing grid a route segment indexes, as RouteGrid builds it over
/// the checkpoint's routing BEOL and die. All zero (and no netlist) when
/// writing (the writer checks nothing) and when decoding without them.
struct IdBounds {
  std::int32_t instances = 0;
  std::int32_t nets = 0;
  std::int32_t ports = 0;
  const Netlist* design = nullptr;
  std::int32_t metals = 0;
  std::int32_t cuts = 0;
  std::int64_t gridNodes = 0;  ///< nx * ny gcells times the metal count.
};

// The payload types: Library, Netlist, TileGroups, TileConfig, Beol,
// TechNode, Floorplan, CtsResult, RoutingResult, std::vector<NetParasitics>,
// ClockModel and VerifyReport below, and DesignMetrics beside the flows
// (flows/flow_checkpoint.cpp). `code` is found by argument-dependent lookup
// (every Io is a db type), so a codec declared beside its type works too.

/// Appends the payload of \p v to \p w. Flattened: every field write of
/// the codec inlines into one function, as in a hand-written encoder. Left
/// to its heuristics, GCC 12 stops inlining the writer's calls into the
/// larger codecs, and a small-tile checkpoint save ran about 15% slower
/// (4-vCPU x86-64 VM).
template <typename T>
[[gnu::flatten]] void encode(BinWriter& w, const T& v) {
  code(w, v, IdBounds{});
}

/// Reads one payload of \p v from \p r. Returns false, with \p r failed and
/// \p v unspecified but safe, on any violation. \p design is the
/// checkpoint's netlist, which ids in the other sections point into;
/// \p routingBeol and \p die are its routing stack and die, whose grid the
/// route segments index (both sections decode before the routes). A
/// Netlist decodes against its own library and replaces its tables in
/// place, so the object (and every Netlist& held across a restore) stays.
template <typename T>
bool decode(BinReader& r, T& v, const Netlist* design = nullptr,
            const Beol* routingBeol = nullptr, const Rect* die = nullptr) {
  IdBounds ids;
  if (design != nullptr) {
    ids.instances = design->numInstances();
    ids.nets = design->numNets();
    ids.ports = design->numPorts();
    ids.design = design;
  }
  if (routingBeol != nullptr && die != nullptr && !die->isEmpty()) {
    const GridMapping gcells(*die, kGcellSize);
    ids.metals = routingBeol->numMetals();
    ids.cuts = routingBeol->numCuts();
    ids.gridNodes = std::int64_t{gcells.nx()} * gcells.ny() * ids.metals;
  }
  code(r, v, ids);
  return r.ok();
}

/// contentHash64 of the encoding of \p v: equal iff the encodings are. The
/// stage-cache keys hash the design state with it.
template <typename T>
std::uint64_t contentHash(const T& v) {
  BinWriter w;
  encode(w, v);
  return contentHash64(w.buffer().data(), w.size());
}

// --- Building blocks ---------------------------------------------------------

/// T is U, const when writing.
template <typename T, typename U>
concept MaybeConst = std::same_as<std::remove_const_t<T>, U>;

/// True when \p id indexes a table of \p n entries.
constexpr bool isId(std::int64_t id, std::int64_t n) { return id >= 0 && id < n; }

/// Codes a vector: its element count (each element takes at least
/// \p minBytes), then each element through \p elem.
template <typename Io, typename V, typename F>
void codeVector(Io& io, V& v, std::size_t minBytes, F&& elem) {
  io.count(v, minBytes);
  for (auto& e : v) {
    elem(e);
    if (!io.ok()) return;
  }
}

/// Codes a vector of scalars, one field each.
template <typename Io, typename V>
void codeVector(Io& io, V& v, std::size_t minBytes) {
  codeVector(io, v, minBytes, [&io](auto& e) { io(e); });
}

/// Codes a vector of ids into a table of \p n entries.
template <typename Io, typename V>
void codeIds(Io& io, V& v, std::int64_t n) {
  codeVector(io, v, 4, [&](auto& id) {
    io(id);
    io.check(isId(id, n));
  });
}

template <typename Io, MaybeConst<Point> P>
void code(Io& io, P& p) {
  io(p.x, p.y);
}

template <typename Io, MaybeConst<Rect> R>
void code(Io& io, R& rc) {
  io(rc.xlo, rc.ylo, rc.xhi, rc.yhi);
}

// --- Library -----------------------------------------------------------------

template <typename Io, MaybeConst<Library> L>
void code(Io& io, L& lib, const IdBounds&) {
  auto&& cells = io.table(lib.cells());
  codeVector(io, cells, 8, [&](auto& c) {
    io(c.name);
    io.enumU8(c.cls, CellClass::kFiller);
    io(c.width, c.height, c.substrateWidth, c.substrateHeight);
    // Library::addCell asserts positive sizes (and unique names: see below).
    io.check(!c.name.empty() && c.width > 0 && c.height > 0 && c.substrateWidth >= 0 &&
             c.substrateHeight >= 0);
    codeVector(io, c.pins, 8, [&](auto& p) {
      io(p.name);
      io.enumU8(p.dir, PinDir::kInout);
      io(p.cap, p.isClock, p.layer);
      code(io, p.offset);
    });
    const auto numPins = static_cast<std::int64_t>(c.pins.size());
    codeVector(io, c.arcs, 8, [&](auto& a) {
      io(a.fromPin, a.toPin, a.intrinsic, a.driveRes);
      io.check(isId(a.fromPin, numPins) && isId(a.toPin, numPins));
    });
    codeVector(io, c.obstructions, 8, [&](auto& o) {
      io(o.layer);
      code(io, o.rect);
    });
    io(c.setup, c.leakage, c.energyPerToggle, c.family, c.driveStrength);
  });
  std::string bufferFamily = lib.bufferFamily();
  CellTypeId filler = lib.fillerCell();
  io(bufferFamily, filler);
  io.check(filler >= -1 && filler < static_cast<std::int64_t>(cells.size()));
  if constexpr (Io::kReading) {
    std::set<std::string_view> names;
    for (const CellType& c : cells) io.check(names.insert(c.name).second);
    if (!io.ok()) return;
    for (CellType& c : cells) lib.addCell(std::move(c));
    lib.setBufferFamily(bufferFamily);
    lib.setFillerCell(filler);
  }
}

// --- Netlist -----------------------------------------------------------------

/// Instances, nets and ports only: the library travels in its own section.
template <typename Io, MaybeConst<Netlist> N>
void code(Io& io, N& nl, const IdBounds&) {
  auto&& insts = io.table(nl.instances());
  auto&& nets = io.table(nl.nets());
  auto&& ports = io.table(nl.ports());
  codeVector(io, insts, 8, [&](auto& inst) {
    io(inst.name, inst.type);
    code(io, inst.pos);
    io(inst.fixed);
    io.enumU8(inst.die, DieId::kMacro);
    codeVector(io, inst.pinNets, 4);
  });
  codeVector(io, nets, 8, [&](auto& net) {
    io(net.name);
    codeVector(io, net.pins, 13, [&](auto& p) {
      io.enumU8(p.kind, NetPin::Kind::kPort);
      io(p.inst, p.libPin, p.port);
    });
    io(net.driverIdx, net.isClock);
    io.check(net.driverIdx >= -1 && net.driverIdx < static_cast<std::int64_t>(net.pins.size()));
  });
  const auto numNets = static_cast<std::int64_t>(nets.size());
  codeVector(io, ports, 8, [&](auto& port) {
    io(port.name);
    io.enumU8(port.dir, PinDir::kInout);
    io(port.isClock, port.cap);
    io.enumU8(port.side, Side::kWest);
    code(io, port.pos);
    io(port.layer, port.net, port.pairTag, port.halfCycle);
    io.check(port.net >= -1 && port.net < numNets);
  });
  if constexpr (Io::kReading) {
    // The ids into other tables, once all are read (checks that index stay
    // out of the field lists, which the writer also runs): each instance's
    // cell, with one net entry per cell pin, and each net pin's port or its
    // instance and cell pin.
    const Library& lib = nl.library();
    for (const Instance& inst : insts) {
      io.check(isId(inst.type, lib.numCells()) &&
               inst.pinNets.size() == lib.cell(inst.type).pins.size());
      for (const NetId n : inst.pinNets) io.check(n >= -1 && n < numNets);
    }
    if (!io.ok()) return;
    const auto numInsts = static_cast<std::int64_t>(insts.size());
    const auto numPorts = static_cast<std::int64_t>(ports.size());
    for (const Net& net : nets) {
      for (const NetPin& p : net.pins) {
        if (p.kind == NetPin::Kind::kPort) {
          io.check(isId(p.port, numPorts));
        } else if (io.check(isId(p.inst, numInsts))) {
          const CellType& cell = lib.cell(insts[static_cast<std::size_t>(p.inst)].type);
          io.check(isId(p.libPin, static_cast<std::int64_t>(cell.pins.size())));
        }
      }
    }
    if (io.ok()) nl.restore(std::move(insts), std::move(nets), std::move(ports));
  }
}

// --- Tile groups / config ----------------------------------------------------

template <typename Io, MaybeConst<TileGroups> G>
void code(Io& io, G& g, const IdBounds& ids) {
  codeIds(io, g.macros, ids.instances);
  codeIds(io, g.coreCells, ids.instances);
  codeIds(io, g.cacheCtrlCells, ids.instances);
  codeIds(io, g.nocCells, ids.instances);
  codeVector(io, g.modules, 8, [&](auto& m) {
    io(m.first);
    codeIds(io, m.second, ids.instances);
  });
  io(g.clockNet, g.clockPort);
  io.check(g.clockNet >= -1 && g.clockNet < ids.nets && g.clockPort >= -1 &&
           g.clockPort < ids.ports);
}

template <typename Io, MaybeConst<TileConfig> C>
void code(Io& io, C& c, const IdBounds&) {
  io(c.name, c.cache.l1iKb, c.cache.l1dKb, c.cache.l2Kb, c.cache.l3Kb, c.coreGates, c.coreRegs,
     c.l1CtrlGates, c.l1CtrlRegs, c.l2CtrlGates, c.l2CtrlRegs, c.l3CtrlGates, c.l3CtrlRegs,
     c.nocGates, c.nocRegs, c.numNocs, c.nocDataBits, c.wordBits, c.maxBankKb, c.bitcellUm2,
     c.seed);
}

// --- Tech / BEOL -------------------------------------------------------------

template <typename Io, MaybeConst<Beol> B>
void code(Io& io, B& beol, const IdBounds&) {
  auto&& metals = io.table(beol.metals());
  auto&& cuts = io.table(beol.cuts());
  codeVector(io, metals, 8, [&](auto& m) {
    io(m.name);
    io.enumU8(m.dir, LayerDir::kVertical);
    io(m.pitch, m.width, m.rPerUm, m.cPerUm);
    io.enumU8(m.die, DieId::kMacro);
  });
  codeVector(io, cuts, 8, [&](auto& c) {
    io(c.name, c.res, c.cap, c.pitch, c.size, c.isF2f);
    io.enumU8(c.die, DieId::kMacro);
  });
  // Strict metal/cut alternation: one cut between each two metals.
  io.check(cuts.size() == (metals.empty() ? 0 : metals.size() - 1));
  bool flipped = beol.macroDieFlipped();
  io(flipped);
  if constexpr (Io::kReading) {
    if (!io.ok()) return;
    beol = Beol{};
    for (std::size_t i = 0; i < metals.size(); ++i) {
      beol.addMetal(metals[i]);
      if (i < cuts.size()) beol.addCut(cuts[i]);
    }
    beol.setMacroDieFlipped(flipped);
  }
}

template <typename Io, MaybeConst<TechNode> T>
void code(Io& io, T& t, const IdBounds& ids) {
  io(t.name, t.siteWidth, t.rowHeight, t.vdd);
  code(io, t.beol, ids);
}

// --- Floorplan ---------------------------------------------------------------

template <typename Io, MaybeConst<Floorplan> F>
void code(Io& io, F& fp, const IdBounds&) {
  code(io, fp.die);
  codeVector(io, fp.blockages, 40, [&](auto& b) {
    code(io, b.rect);
    io(b.density);
  });
  io(fp.rowHeight, fp.siteWidth);
}

// --- CTS ---------------------------------------------------------------------

template <typename Io, MaybeConst<CtsResult> C>
void code(Io& io, C& cts, const IdBounds& ids) {
  codeVector(io, cts.buffers, 20, [&](auto& b) {
    io(b.inst, b.parent, b.level, b.inputNet, b.outputNet);
    // A buffer's parent comes before it; its cell and nets are in the
    // netlist (the extract stage walks them).
    const std::int64_t index = &b - cts.buffers.data();
    io.check(b.parent >= -1 && b.parent < index && isId(b.inst, ids.instances) &&
             isId(b.inputNet, ids.nets) && isId(b.outputNet, ids.nets));
  });
  io(cts.maxDepth, cts.estWirelengthUm, cts.numSinks);
}

// --- Routing -----------------------------------------------------------------

template <typename Io, MaybeConst<RoutingResult> R>
void code(Io& io, R& routes, const IdBounds& ids) {
  codeVector(io, routes.nets, 9, [&](auto& nr) {
    io(nr.routed);
    codeVector(io, nr.segs, 13, [&](auto& s) {
      io(s.isVia, s.layer, s.fromNode, s.toNode);
      // On the routing grid: the router, extraction and signoff index the
      // stack by the layer and their grids by the nodes. Whether a segment
      // is a legal hop stays the DRC's to report.
      io.check(isId(s.layer, s.isVia ? ids.cuts : ids.metals) &&
               isId(s.fromNode, ids.gridNodes) && isId(s.toNode, ids.gridNodes));
    });
  });
  // Indexed by NetId: one route per net, or none before the route stage.
  io.check(routes.nets.empty() || routes.nets.size() == static_cast<std::size_t>(ids.nets));
  io(routes.totalWirelengthUm);
  codeVector(io, routes.wirelengthPerLayerUm, 8);
  codeVector(io, routes.viasPerCut, 8);
  io(routes.f2fBumps, routes.overflowedEdges, routes.totalOverflow, routes.unroutedNets,
     routes.iterationsUsed, routes.nodesPopped, routes.nodesRelaxed, routes.windowFallbacks,
     routes.ecoDirtyGcells, routes.ecoNetsReused, routes.ecoNetsRipped);
}

// --- Parasitics / clock model ------------------------------------------------

template <typename Io, MaybeConst<std::vector<NetParasitics>> V>
void code(Io& io, V& paras, const IdBounds& ids) {
  codeVector(io, paras, 40, [&](auto& p) {
    io(p.wireCap, p.pinCap, p.totalRes);
    codeVector(io, p.sinkWireDelay, 8);
    codeVector(io, p.sinkWireLengthUm, 8);
  });
  // Indexed by NetId, and each entry's vectors by its net's pins: one entry
  // per net, or none (before the estimate, and from CTS to extraction).
  io.check(paras.empty() || paras.size() == static_cast<std::size_t>(ids.nets));
  if constexpr (Io::kReading) {
    if (!io.ok() || paras.empty()) return;
    for (NetId n = 0; n < ids.nets; ++n) {
      const std::size_t pins = ids.design->net(n).pins.size();
      const NetParasitics& p = paras[static_cast<std::size_t>(n)];
      if (!io.check(p.sinkWireDelay.size() == pins && p.sinkWireLengthUm.size() == pins)) return;
    }
  }
}

template <typename Io, MaybeConst<ClockModel> C>
void code(Io& io, C& clock, const IdBounds& ids) {
  codeVector(io, clock.latency, 8);
  // Indexed by InstId: one latency per instance, or none (an ideal clock).
  io.check(clock.latency.empty() ||
           clock.latency.size() == static_cast<std::size_t>(ids.instances));
  io(clock.maxTreeDepth, clock.maxLatency, clock.skew, clock.uncertainty);
}

// --- Verify report -----------------------------------------------------------

template <typename Io, MaybeConst<VerifyReport> V>
void code(Io& io, V& rep, const IdBounds&) {
  codeVector(io, rep.violations, 57, [&](auto& v) {
    io.enumU8(v.kind, ViolationKind::kMacroDieLayerLeak);
    io(v.net, v.otherNet, v.cell, v.layer);
    code(io, v.rect);
    io(v.detail);
  });
  io(rep.errors, rep.warnings, rep.recomputedOverflowedEdges, rep.recomputedTotalOverflow,
     rep.f2fBumpCount);
  codeVector(io, rep.f2fBumpsPerNet, 8);
}

}  // namespace m3d::db
