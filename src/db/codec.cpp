#include "db/codec.hpp"

#include <set>
#include <utility>

#include "db/hash.hpp"

namespace m3d::db {

namespace {

void encodePoint(BinWriter& w, const Point& p) {
  w.i64(p.x);
  w.i64(p.y);
}

Point decodePoint(BinReader& r) {
  Point p;
  p.x = r.i64();
  p.y = r.i64();
  return p;
}

void encodeRect(BinWriter& w, const Rect& rc) {
  w.i64(rc.xlo);
  w.i64(rc.ylo);
  w.i64(rc.xhi);
  w.i64(rc.yhi);
}

Rect decodeRect(BinReader& r) {
  Rect rc;
  rc.xlo = r.i64();
  rc.ylo = r.i64();
  rc.xhi = r.i64();
  rc.yhi = r.i64();
  return rc;
}

void encodeDoubleVec(BinWriter& w, const std::vector<double>& v) {
  w.u64(static_cast<std::uint64_t>(v.size()));
  for (double x : v) w.f64(x);
}

bool decodeDoubleVec(BinReader& r, std::vector<double>& out) {
  const std::uint64_t n = r.count(8);
  if (!r.ok()) return false;
  out.resize(static_cast<std::size_t>(n));
  for (auto& x : out) x = r.f64();
  return r.ok();
}

void encodeI64Vec(BinWriter& w, const std::vector<std::int64_t>& v) {
  w.u64(static_cast<std::uint64_t>(v.size()));
  for (std::int64_t x : v) w.i64(x);
}

bool decodeI64Vec(BinReader& r, std::vector<std::int64_t>& out) {
  const std::uint64_t n = r.count(8);
  if (!r.ok()) return false;
  out.resize(static_cast<std::size_t>(n));
  for (auto& x : out) x = r.i64();
  return r.ok();
}

/// Decodes a vector of ids, each required to be in [\p lo, \p hi).
bool decodeIdVec(BinReader& r, std::vector<std::int32_t>& out, std::int32_t lo,
                 std::int32_t hi) {
  const std::uint64_t n = r.count(4);
  if (!r.ok()) return false;
  out.resize(static_cast<std::size_t>(n));
  for (auto& x : out) {
    x = r.i32();
    if (x < lo || x >= hi) {
      r.fail();
      return false;
    }
  }
  return r.ok();
}

}  // namespace

// --- Library ---------------------------------------------------------------

void encodeLibrary(BinWriter& w, const Library& lib) {
  w.u64(static_cast<std::uint64_t>(lib.numCells()));
  for (CellTypeId id = 0; id < lib.numCells(); ++id) {
    const CellType& c = lib.cell(id);
    w.str(c.name);
    w.u8(static_cast<std::uint8_t>(c.cls));
    w.i64(c.width);
    w.i64(c.height);
    w.i64(c.substrateWidth);
    w.i64(c.substrateHeight);
    w.u64(c.pins.size());
    for (const LibPin& p : c.pins) {
      w.str(p.name);
      w.u8(static_cast<std::uint8_t>(p.dir));
      w.f64(p.cap);
      w.b(p.isClock);
      w.str(p.layer);
      encodePoint(w, p.offset);
    }
    w.u64(c.arcs.size());
    for (const TimingArc& a : c.arcs) {
      w.i32(a.fromPin);
      w.i32(a.toPin);
      w.f64(a.intrinsic);
      w.f64(a.driveRes);
    }
    w.u64(c.obstructions.size());
    for (const Obstruction& o : c.obstructions) {
      w.str(o.layer);
      encodeRect(w, o.rect);
    }
    w.f64(c.setup);
    w.f64(c.leakage);
    w.f64(c.energyPerToggle);
    w.str(c.family);
    w.i32(c.driveStrength);
  }
  w.str(lib.bufferFamily());
  w.i32(lib.fillerCell());
}

bool decodeLibrary(BinReader& r, Library& out) {
  const std::uint64_t numCells = r.count(8);
  if (!r.ok()) return false;
  std::set<std::string> names;
  for (std::uint64_t i = 0; i < numCells; ++i) {
    CellType c;
    c.name = r.str();
    const std::uint8_t cls = r.u8();
    c.width = r.i64();
    c.height = r.i64();
    c.substrateWidth = r.i64();
    c.substrateHeight = r.i64();
    // Guard the invariants Library::addCell asserts, so a corrupt payload
    // fails closed instead of tripping an assert.
    if (!r.ok() || c.name.empty() || !names.insert(c.name).second || cls > 4 ||
        c.width <= 0 || c.height <= 0 || c.substrateWidth < 0 || c.substrateHeight < 0) {
      r.fail();
      return false;
    }
    c.cls = static_cast<CellClass>(cls);
    const std::uint64_t numPins = r.count(8);
    if (!r.ok()) return false;
    for (std::uint64_t k = 0; k < numPins; ++k) {
      LibPin p;
      p.name = r.str();
      const std::uint8_t dir = r.u8();
      p.cap = r.f64();
      p.isClock = r.b();
      p.layer = r.str();
      p.offset = decodePoint(r);
      if (!r.ok() || dir > 2) {
        r.fail();
        return false;
      }
      p.dir = static_cast<PinDir>(dir);
      c.pins.push_back(std::move(p));
    }
    const std::uint64_t numArcs = r.count(8);
    if (!r.ok()) return false;
    for (std::uint64_t k = 0; k < numArcs; ++k) {
      TimingArc a;
      a.fromPin = r.i32();
      a.toPin = r.i32();
      a.intrinsic = r.f64();
      a.driveRes = r.f64();
      const int np = static_cast<int>(c.pins.size());
      if (!r.ok() || a.fromPin < 0 || a.fromPin >= np || a.toPin < 0 || a.toPin >= np) {
        r.fail();
        return false;
      }
      c.arcs.push_back(a);
    }
    const std::uint64_t numObs = r.count(8);
    if (!r.ok()) return false;
    for (std::uint64_t k = 0; k < numObs; ++k) {
      Obstruction o;
      o.layer = r.str();
      o.rect = decodeRect(r);
      if (!r.ok()) return false;
      c.obstructions.push_back(std::move(o));
    }
    c.setup = r.f64();
    c.leakage = r.f64();
    c.energyPerToggle = r.f64();
    c.family = r.str();
    c.driveStrength = r.i32();
    if (!r.ok()) return false;
    out.addCell(std::move(c));
  }
  out.setBufferFamily(r.str());
  const std::int32_t filler = r.i32();
  if (!r.ok() || filler < -1 || filler >= out.numCells()) {
    r.fail();
    return false;
  }
  out.setFillerCell(filler);
  return true;
}

// --- Netlist ---------------------------------------------------------------

void encodeNetlist(BinWriter& w, const Netlist& nl) {
  w.u64(static_cast<std::uint64_t>(nl.numInstances()));
  for (InstId i = 0; i < nl.numInstances(); ++i) {
    const Instance& inst = nl.instance(i);
    w.str(inst.name);
    w.i32(inst.type);
    encodePoint(w, inst.pos);
    w.b(inst.fixed);
    w.u8(static_cast<std::uint8_t>(inst.die));
    w.u64(inst.pinNets.size());
    for (NetId n : inst.pinNets) w.i32(n);
  }
  w.u64(static_cast<std::uint64_t>(nl.numNets()));
  for (NetId n = 0; n < nl.numNets(); ++n) {
    const Net& net = nl.net(n);
    w.str(net.name);
    w.u64(net.pins.size());
    for (const NetPin& p : net.pins) {
      w.u8(static_cast<std::uint8_t>(p.kind));
      w.i32(p.inst);
      w.i32(p.libPin);
      w.i32(p.port);
    }
    w.i32(net.driverIdx);
    w.b(net.isClock);
  }
  w.u64(static_cast<std::uint64_t>(nl.numPorts()));
  for (PortId p = 0; p < nl.numPorts(); ++p) {
    const Port& port = nl.port(p);
    w.str(port.name);
    w.u8(static_cast<std::uint8_t>(port.dir));
    w.b(port.isClock);
    w.f64(port.cap);
    w.u8(static_cast<std::uint8_t>(port.side));
    encodePoint(w, port.pos);
    w.str(port.layer);
    w.i32(port.net);
    w.i32(port.pairTag);
    w.b(port.halfCycle);
  }
}

bool decodeNetlist(BinReader& r, Netlist& out) {
  const Library& lib = out.library();
  std::vector<Instance> insts;
  std::vector<Net> nets;
  std::vector<Port> ports;

  const std::uint64_t numInsts = r.count(8);
  if (!r.ok()) return false;
  insts.reserve(static_cast<std::size_t>(numInsts));
  for (std::uint64_t i = 0; i < numInsts; ++i) {
    Instance inst;
    inst.name = r.str();
    inst.type = r.i32();
    inst.pos = decodePoint(r);
    inst.fixed = r.b();
    const std::uint8_t die = r.u8();
    if (!r.ok() || inst.type < 0 || inst.type >= lib.numCells() || die > 1) {
      r.fail();
      return false;
    }
    inst.die = static_cast<DieId>(die);
    const std::uint64_t numPinNets = r.count(4);
    if (!r.ok() || numPinNets != lib.cell(inst.type).pins.size()) {
      r.fail();
      return false;
    }
    inst.pinNets.resize(static_cast<std::size_t>(numPinNets));
    for (auto& n : inst.pinNets) n = r.i32();
    if (!r.ok()) return false;
    insts.push_back(std::move(inst));
  }

  const std::uint64_t numNets = r.count(8);
  if (!r.ok()) return false;
  nets.reserve(static_cast<std::size_t>(numNets));
  for (std::uint64_t n = 0; n < numNets; ++n) {
    Net net;
    net.name = r.str();
    const std::uint64_t numPins = r.count(13);
    if (!r.ok()) return false;
    net.pins.reserve(static_cast<std::size_t>(numPins));
    for (std::uint64_t k = 0; k < numPins; ++k) {
      NetPin p;
      const std::uint8_t kind = r.u8();
      p.inst = r.i32();
      p.libPin = r.i32();
      p.port = r.i32();
      if (!r.ok() || kind > 1) {
        r.fail();
        return false;
      }
      p.kind = static_cast<NetPin::Kind>(kind);
      if (p.kind == NetPin::Kind::kInstPin) {
        if (p.inst < 0 || static_cast<std::uint64_t>(p.inst) >= numInsts || p.libPin < 0 ||
            static_cast<std::size_t>(p.libPin) >=
                lib.cell(insts[static_cast<std::size_t>(p.inst)].type).pins.size()) {
          r.fail();
          return false;
        }
      }
      net.pins.push_back(p);
    }
    net.driverIdx = r.i32();
    net.isClock = r.b();
    if (!r.ok() || net.driverIdx < -1 ||
        net.driverIdx >= static_cast<int>(net.pins.size())) {
      r.fail();
      return false;
    }
    nets.push_back(std::move(net));
  }

  const std::uint64_t numPorts = r.count(8);
  if (!r.ok()) return false;
  ports.reserve(static_cast<std::size_t>(numPorts));
  for (std::uint64_t p = 0; p < numPorts; ++p) {
    Port port;
    port.name = r.str();
    const std::uint8_t dir = r.u8();
    port.isClock = r.b();
    port.cap = r.f64();
    const std::uint8_t side = r.u8();
    port.pos = decodePoint(r);
    port.layer = r.str();
    port.net = r.i32();
    port.pairTag = r.i32();
    port.halfCycle = r.b();
    if (!r.ok() || dir > 2 || side > 3 || port.net < -1 ||
        static_cast<std::uint64_t>(port.net + 1) > numNets) {
      r.fail();
      return false;
    }
    port.dir = static_cast<PinDir>(dir);
    port.side = static_cast<Side>(side);
    ports.push_back(std::move(port));
  }

  // Cross-check net pin references against the now-known counts: pinNets
  // entries and port back-references must be valid net ids, port pins valid
  // port ids.
  const auto numNetsI = static_cast<std::int32_t>(numNets);
  const auto numPortsI = static_cast<std::int32_t>(numPorts);
  for (const Instance& inst : insts) {
    for (NetId n : inst.pinNets) {
      if (n < -1 || n >= numNetsI) return false;
    }
  }
  for (const Net& net : nets) {
    for (const NetPin& p : net.pins) {
      if (p.kind == NetPin::Kind::kPort && (p.port < 0 || p.port >= numPortsI)) return false;
    }
  }

  out.restore(std::move(insts), std::move(nets), std::move(ports));
  return true;
}

// --- Tile groups / config --------------------------------------------------

void encodeTileGroups(BinWriter& w, const TileGroups& g) {
  auto ids = [&w](const std::vector<InstId>& v) {
    w.u64(v.size());
    for (InstId i : v) w.i32(i);
  };
  ids(g.macros);
  ids(g.coreCells);
  ids(g.cacheCtrlCells);
  ids(g.nocCells);
  w.u64(g.modules.size());
  for (const auto& [name, cells] : g.modules) {
    w.str(name);
    ids(cells);
  }
  w.i32(g.clockNet);
  w.i32(g.clockPort);
}

bool decodeTileGroups(BinReader& r, TileGroups& out, int numInstances, int numNets,
                      int numPorts) {
  out = TileGroups{};
  if (!decodeIdVec(r, out.macros, 0, numInstances)) return false;
  if (!decodeIdVec(r, out.coreCells, 0, numInstances)) return false;
  if (!decodeIdVec(r, out.cacheCtrlCells, 0, numInstances)) return false;
  if (!decodeIdVec(r, out.nocCells, 0, numInstances)) return false;
  const std::uint64_t numModules = r.count(8);
  if (!r.ok()) return false;
  for (std::uint64_t i = 0; i < numModules; ++i) {
    std::string name = r.str();
    std::vector<InstId> cells;
    if (!decodeIdVec(r, cells, 0, numInstances)) return false;
    out.modules.emplace_back(std::move(name), std::move(cells));
  }
  out.clockNet = r.i32();
  out.clockPort = r.i32();
  if (!r.ok() || out.clockNet < -1 || out.clockNet >= numNets || out.clockPort < -1 ||
      out.clockPort >= numPorts) {
    r.fail();
    return false;
  }
  return true;
}

void encodeTileConfig(BinWriter& w, const TileConfig& c) {
  w.str(c.name);
  w.i32(c.cache.l1iKb);
  w.i32(c.cache.l1dKb);
  w.i32(c.cache.l2Kb);
  w.i32(c.cache.l3Kb);
  w.i32(c.coreGates);
  w.i32(c.coreRegs);
  w.i32(c.l1CtrlGates);
  w.i32(c.l1CtrlRegs);
  w.i32(c.l2CtrlGates);
  w.i32(c.l2CtrlRegs);
  w.i32(c.l3CtrlGates);
  w.i32(c.l3CtrlRegs);
  w.i32(c.nocGates);
  w.i32(c.nocRegs);
  w.i32(c.numNocs);
  w.i32(c.nocDataBits);
  w.i32(c.wordBits);
  w.i32(c.maxBankKb);
  w.f64(c.bitcellUm2);
  w.u64(c.seed);
}

bool decodeTileConfig(BinReader& r, TileConfig& out) {
  out = TileConfig{};
  out.name = r.str();
  out.cache.l1iKb = r.i32();
  out.cache.l1dKb = r.i32();
  out.cache.l2Kb = r.i32();
  out.cache.l3Kb = r.i32();
  out.coreGates = r.i32();
  out.coreRegs = r.i32();
  out.l1CtrlGates = r.i32();
  out.l1CtrlRegs = r.i32();
  out.l2CtrlGates = r.i32();
  out.l2CtrlRegs = r.i32();
  out.l3CtrlGates = r.i32();
  out.l3CtrlRegs = r.i32();
  out.nocGates = r.i32();
  out.nocRegs = r.i32();
  out.numNocs = r.i32();
  out.nocDataBits = r.i32();
  out.wordBits = r.i32();
  out.maxBankKb = r.i32();
  out.bitcellUm2 = r.f64();
  out.seed = r.u64();
  return r.ok();
}

// --- Tech / BEOL -----------------------------------------------------------

void encodeBeol(BinWriter& w, const Beol& beol) {
  w.u64(static_cast<std::uint64_t>(beol.numMetals()));
  for (const MetalLayer& m : beol.metals()) {
    w.str(m.name);
    w.u8(static_cast<std::uint8_t>(m.dir));
    w.i64(m.pitch);
    w.i64(m.width);
    w.f64(m.rPerUm);
    w.f64(m.cPerUm);
    w.u8(static_cast<std::uint8_t>(m.die));
  }
  w.u64(static_cast<std::uint64_t>(beol.numCuts()));
  for (const CutLayer& c : beol.cuts()) {
    w.str(c.name);
    w.f64(c.res);
    w.f64(c.cap);
    w.i64(c.pitch);
    w.i64(c.size);
    w.b(c.isF2f);
    w.u8(static_cast<std::uint8_t>(c.die));
  }
  w.b(beol.macroDieFlipped());
}

bool decodeBeol(BinReader& r, Beol& out) {
  out = Beol{};
  const std::uint64_t numMetals = r.count(8);
  if (!r.ok()) return false;
  std::vector<MetalLayer> metals;
  for (std::uint64_t i = 0; i < numMetals; ++i) {
    MetalLayer m;
    m.name = r.str();
    const std::uint8_t dir = r.u8();
    m.pitch = r.i64();
    m.width = r.i64();
    m.rPerUm = r.f64();
    m.cPerUm = r.f64();
    const std::uint8_t die = r.u8();
    if (!r.ok() || dir > 1 || die > 1) {
      r.fail();
      return false;
    }
    m.dir = static_cast<LayerDir>(dir);
    m.die = static_cast<DieId>(die);
    metals.push_back(std::move(m));
  }
  const std::uint64_t numCuts = r.count(8);
  // Beol invariant: strict metal/cut alternation (cuts == metals - 1).
  if (!r.ok() || (numMetals == 0 ? numCuts != 0 : numCuts != numMetals - 1)) {
    r.fail();
    return false;
  }
  std::vector<CutLayer> cuts;
  for (std::uint64_t i = 0; i < numCuts; ++i) {
    CutLayer c;
    c.name = r.str();
    c.res = r.f64();
    c.cap = r.f64();
    c.pitch = r.i64();
    c.size = r.i64();
    c.isF2f = r.b();
    const std::uint8_t die = r.u8();
    if (!r.ok() || die > 1) {
      r.fail();
      return false;
    }
    c.die = static_cast<DieId>(die);
    cuts.push_back(std::move(c));
  }
  const bool flipped = r.b();
  if (!r.ok()) return false;
  for (std::uint64_t i = 0; i < numMetals; ++i) {
    out.addMetal(metals[static_cast<std::size_t>(i)]);
    if (i < numCuts) out.addCut(cuts[static_cast<std::size_t>(i)]);
  }
  out.setMacroDieFlipped(flipped);
  return true;
}

void encodeTechNode(BinWriter& w, const TechNode& t) {
  w.str(t.name);
  w.i64(t.siteWidth);
  w.i64(t.rowHeight);
  w.f64(t.vdd);
  encodeBeol(w, t.beol);
}

bool decodeTechNode(BinReader& r, TechNode& out) {
  out = TechNode{};
  out.name = r.str();
  out.siteWidth = r.i64();
  out.rowHeight = r.i64();
  out.vdd = r.f64();
  if (!r.ok()) return false;
  return decodeBeol(r, out.beol);
}

// --- Floorplan -------------------------------------------------------------

void encodeFloorplan(BinWriter& w, const Floorplan& fp) {
  encodeRect(w, fp.die);
  w.u64(fp.blockages.size());
  for (const Blockage& b : fp.blockages) {
    encodeRect(w, b.rect);
    w.f64(b.density);
  }
  w.i64(fp.rowHeight);
  w.i64(fp.siteWidth);
}

bool decodeFloorplan(BinReader& r, Floorplan& out) {
  out = Floorplan{};
  out.die = decodeRect(r);
  const std::uint64_t numBlockages = r.count(40);
  if (!r.ok()) return false;
  out.blockages.resize(static_cast<std::size_t>(numBlockages));
  for (Blockage& b : out.blockages) {
    b.rect = decodeRect(r);
    b.density = r.f64();
  }
  out.rowHeight = r.i64();
  out.siteWidth = r.i64();
  return r.ok();
}

// --- CTS -------------------------------------------------------------------

void encodeCtsResult(BinWriter& w, const CtsResult& cts) {
  w.u64(cts.buffers.size());
  for (const CtsBuffer& b : cts.buffers) {
    w.i32(b.inst);
    w.i32(b.parent);
    w.i32(b.level);
    w.i32(b.inputNet);
    w.i32(b.outputNet);
  }
  w.i32(cts.maxDepth);
  w.f64(cts.estWirelengthUm);
  w.i32(cts.numSinks);
}

bool decodeCtsResult(BinReader& r, CtsResult& out) {
  out = CtsResult{};
  const std::uint64_t numBuffers = r.count(20);
  if (!r.ok()) return false;
  out.buffers.resize(static_cast<std::size_t>(numBuffers));
  for (std::size_t i = 0; i < out.buffers.size(); ++i) {
    CtsBuffer& b = out.buffers[i];
    b.inst = r.i32();
    b.parent = r.i32();
    b.level = r.i32();
    b.inputNet = r.i32();
    b.outputNet = r.i32();
    if (!r.ok() || b.parent < -1 || b.parent >= static_cast<int>(i)) {
      r.fail();
      return false;
    }
  }
  out.maxDepth = r.i32();
  out.estWirelengthUm = r.f64();
  out.numSinks = r.i32();
  return r.ok();
}

// --- Routing ---------------------------------------------------------------

void encodeRoutingResult(BinWriter& w, const RoutingResult& routes) {
  w.u64(routes.nets.size());
  for (const NetRoute& nr : routes.nets) {
    w.b(nr.routed);
    w.u64(nr.segs.size());
    for (const RouteSeg& s : nr.segs) {
      w.b(s.isVia);
      w.i32(s.layer);
      w.i32(s.fromNode);
      w.i32(s.toNode);
    }
  }
  w.f64(routes.totalWirelengthUm);
  encodeDoubleVec(w, routes.wirelengthPerLayerUm);
  encodeI64Vec(w, routes.viasPerCut);
  w.i64(routes.f2fBumps);
  w.i32(routes.overflowedEdges);
  w.i64(routes.totalOverflow);
  w.i32(routes.unroutedNets);
  w.i32(routes.iterationsUsed);
  w.i64(routes.nodesPopped);
  w.i64(routes.nodesRelaxed);
  w.i64(routes.windowFallbacks);
  w.i64(routes.ecoDirtyGcells);
  w.i64(routes.ecoNetsReused);
  w.i64(routes.ecoNetsRipped);
}

bool decodeRoutingResult(BinReader& r, RoutingResult& out) {
  out = RoutingResult{};
  const std::uint64_t numNets = r.count(9);
  if (!r.ok()) return false;
  out.nets.resize(static_cast<std::size_t>(numNets));
  for (NetRoute& nr : out.nets) {
    nr.routed = r.b();
    const std::uint64_t numSegs = r.count(13);
    if (!r.ok()) return false;
    nr.segs.resize(static_cast<std::size_t>(numSegs));
    for (RouteSeg& s : nr.segs) {
      s.isVia = r.b();
      s.layer = r.i32();
      s.fromNode = r.i32();
      s.toNode = r.i32();
      if (!r.ok() || s.layer < 0 || s.fromNode < 0 || s.toNode < 0) {
        r.fail();
        return false;
      }
    }
  }
  out.totalWirelengthUm = r.f64();
  if (!decodeDoubleVec(r, out.wirelengthPerLayerUm)) return false;
  if (!decodeI64Vec(r, out.viasPerCut)) return false;
  out.f2fBumps = r.i64();
  out.overflowedEdges = r.i32();
  out.totalOverflow = r.i64();
  out.unroutedNets = r.i32();
  out.iterationsUsed = r.i32();
  out.nodesPopped = r.i64();
  out.nodesRelaxed = r.i64();
  out.windowFallbacks = r.i64();
  out.ecoDirtyGcells = r.i64();
  out.ecoNetsReused = r.i64();
  out.ecoNetsRipped = r.i64();
  return r.ok();
}

// --- Parasitics ------------------------------------------------------------

void encodeParasitics(BinWriter& w, const std::vector<NetParasitics>& paras) {
  w.u64(paras.size());
  for (const NetParasitics& p : paras) {
    w.f64(p.wireCap);
    w.f64(p.pinCap);
    w.f64(p.totalRes);
    encodeDoubleVec(w, p.sinkWireDelay);
    encodeDoubleVec(w, p.sinkWireLengthUm);
  }
}

bool decodeParasitics(BinReader& r, std::vector<NetParasitics>& out) {
  out.clear();
  const std::uint64_t n = r.count(40);
  if (!r.ok()) return false;
  out.resize(static_cast<std::size_t>(n));
  for (NetParasitics& p : out) {
    p.wireCap = r.f64();
    p.pinCap = r.f64();
    p.totalRes = r.f64();
    if (!decodeDoubleVec(r, p.sinkWireDelay)) return false;
    if (!decodeDoubleVec(r, p.sinkWireLengthUm)) return false;
  }
  return r.ok();
}

// --- Clock model -----------------------------------------------------------

void encodeClockModel(BinWriter& w, const ClockModel& clock) {
  encodeDoubleVec(w, clock.latency);
  w.i32(clock.maxTreeDepth);
  w.f64(clock.maxLatency);
  w.f64(clock.skew);
  w.f64(clock.uncertainty);
}

bool decodeClockModel(BinReader& r, ClockModel& out) {
  out = ClockModel{};
  if (!decodeDoubleVec(r, out.latency)) return false;
  out.maxTreeDepth = r.i32();
  out.maxLatency = r.f64();
  out.skew = r.f64();
  out.uncertainty = r.f64();
  return r.ok();
}

// --- Verify report ---------------------------------------------------------

void encodeVerifyReport(BinWriter& w, const VerifyReport& rep) {
  w.u64(rep.violations.size());
  for (const Violation& v : rep.violations) {
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.i32(v.net);
    w.i32(v.otherNet);
    w.i32(v.cell);
    w.i32(v.layer);
    encodeRect(w, v.rect);
    w.str(v.detail);
  }
  w.i64(rep.errors);
  w.i64(rep.warnings);
  w.i32(rep.recomputedOverflowedEdges);
  w.i64(rep.recomputedTotalOverflow);
  w.i64(rep.f2fBumpCount);
  encodeI64Vec(w, rep.f2fBumpsPerNet);
}

bool decodeVerifyReport(BinReader& r, VerifyReport& out) {
  out = VerifyReport{};
  const std::uint64_t n = r.count(57);
  if (!r.ok()) return false;
  out.violations.resize(static_cast<std::size_t>(n));
  for (Violation& v : out.violations) {
    const std::uint8_t kind = r.u8();
    v.net = r.i32();
    v.otherNet = r.i32();
    v.cell = r.i32();
    v.layer = r.i32();
    v.rect = decodeRect(r);
    v.detail = r.str();
    if (!r.ok() || kind > static_cast<std::uint8_t>(ViolationKind::kMacroDieLayerLeak)) {
      r.fail();
      return false;
    }
    v.kind = static_cast<ViolationKind>(kind);
  }
  out.errors = r.i64();
  out.warnings = r.i64();
  out.recomputedOverflowedEdges = r.i32();
  out.recomputedTotalOverflow = r.i64();
  out.f2fBumpCount = r.i64();
  if (!decodeI64Vec(r, out.f2fBumpsPerNet)) return false;
  return r.ok();
}

// --- Content hashes --------------------------------------------------------

namespace {
template <typename Encode>
std::uint64_t hashEncoded(Encode&& encode) {
  BinWriter w;
  encode(w);
  return contentHash64(w.buffer().data(), w.size());
}
}  // namespace

std::uint64_t hashLibrary(const Library& lib) {
  return hashEncoded([&](BinWriter& w) { encodeLibrary(w, lib); });
}
std::uint64_t hashNetlist(const Netlist& nl) {
  return hashEncoded([&](BinWriter& w) { encodeNetlist(w, nl); });
}
std::uint64_t hashTileGroups(const TileGroups& g) {
  return hashEncoded([&](BinWriter& w) { encodeTileGroups(w, g); });
}
std::uint64_t hashBeol(const Beol& beol) {
  return hashEncoded([&](BinWriter& w) { encodeBeol(w, beol); });
}
std::uint64_t hashFloorplan(const Floorplan& fp) {
  return hashEncoded([&](BinWriter& w) { encodeFloorplan(w, fp); });
}

}  // namespace m3d::db
