#include "netlist/openpiton.hpp"

#include <algorithm>
#include <cassert>

#include "lib/sram_generator.hpp"

namespace m3d {

namespace {

int ceilLog2i(std::int64_t v) {
  int b = 0;
  while ((std::int64_t{1} << b) < v) ++b;
  return b;
}

/// Bank count heuristic: more banks for bigger caches (mirrors memory
/// compilers splitting large capacities for speed).
int numBanks(int capacityKb) {
  if (capacityKb <= 64) return 4;
  if (capacityKb <= 256) return 8;
  return 16;
}

std::vector<NetId> makeBus(Netlist& nl, const std::string& name, int width) {
  std::vector<NetId> out;
  out.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) out.push_back(nl.addNet(name + "[" + std::to_string(i) + "]"));
  return out;
}

void append(std::vector<NetId>& dst, const std::vector<NetId>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Returns (and creates on first use) the SRAM master for the given bank
/// geometry.
CellTypeId getSramMaster(Library& lib, const TechNode& tech, const TileConfig& cfg, int words,
                         int bits) {
  const std::string name = "SRAM_" + std::to_string(words) + "X" + std::to_string(bits);
  CellTypeId id = lib.findCell(name);
  if (id != kInvalidCellType) return id;
  SramSpec spec;
  spec.name = name;
  spec.words = words;
  spec.bitsPerWord = bits;
  spec.bitcellUm2 = cfg.bitcellUm2;
  return lib.addCell(makeSramMacro(spec, tech));
}

struct CacheBuild {
  std::vector<InstId> macros;
  std::vector<InstId> ctrlCells;
};

/// Builds one cache: SRAM data banks + a tag array + a controller cloud.
/// The controller consumes every SRAM Q output plus \p reqNets and drives
/// every SRAM input pin plus \p respNets (which this function creates).
CacheBuild buildCache(Tile& tile, Library& lib, const TechNode& tech, Rng& rng,
                      const std::string& prefix, int capacityKb, int ctrlGates, int ctrlRegs,
                      const std::vector<NetId>& reqNets, std::vector<NetId>& respNets,
                      int respWidth) {
  Netlist& nl = tile.netlist;
  const TileConfig& cfg = tile.config;
  CacheBuild out;

  const int banks = numBanks(capacityKb);
  const int bankKb = std::max(1, capacityKb / banks);
  const int bankWords = bankKb * 1024 * 8 / cfg.wordBits;
  const CellTypeId bankMaster = getSramMaster(lib, tech, cfg, bankWords, cfg.wordBits);
  // Tag array: ~1/32 of the data capacity, at least 1 KB.
  const int tagWords = std::max(1, capacityKb / 32) * 1024 * 8 / cfg.wordBits;
  const CellTypeId tagMaster = getSramMaster(lib, tech, cfg, tagWords, cfg.wordBits);

  const int addrBits = ceilLog2i(bankWords);
  const int tagAddrBits = ceilLog2i(tagWords);

  // Shared buses across banks.
  const auto addrBus = makeBus(nl, prefix + "_addr", addrBits);
  const auto dBus = makeBus(nl, prefix + "_wdata", cfg.wordBits);
  const NetId weNet = nl.addNet(prefix + "_we");

  std::vector<NetId> ctrlConsume = reqNets;
  // SRAM input buses are flow-through: computed combinationally from the
  // incoming request within the access cycle (paper Sec. V-A: in 2D "the
  // critical path starts at a flip-flop and ends at a memory block").
  std::vector<NetId> ctrlCombDrive;
  std::vector<NetId> ctrlDrive;
  append(ctrlCombDrive, addrBus);
  append(ctrlCombDrive, dBus);
  ctrlCombDrive.push_back(weNet);

  auto instantiate = [&](const std::string& name, CellTypeId master, int nAddr) {
    const InstId inst = nl.addInstance(name, master);
    out.macros.push_back(inst);
    tile.groups.macros.push_back(inst);
    const CellType& c = lib.cell(master);
    nl.connect(tile.groups.clockNet, inst, "CLK");
    const NetId ce = nl.addNet(name + "_ce");
    nl.connect(ce, inst, "CE");
    ctrlCombDrive.push_back(ce);
    nl.connect(weNet, inst, "WE");
    for (int a = 0; a < nAddr; ++a) {
      nl.connect(addrBus[static_cast<std::size_t>(std::min(a, addrBits - 1))], inst,
                 "A" + std::to_string(a));
    }
    for (int d = 0; d < cfg.wordBits; ++d) {
      nl.connect(dBus[static_cast<std::size_t>(d)], inst, "D" + std::to_string(d));
    }
    for (int q = 0; q < cfg.wordBits; ++q) {
      const NetId qn = nl.addNet(name + "_q" + std::to_string(q));
      nl.connect(qn, inst, "Q" + std::to_string(q));
      ctrlConsume.push_back(qn);
    }
    (void)c;
  };

  for (int b = 0; b < banks; ++b) {
    instantiate(prefix + "_bank" + std::to_string(b), bankMaster, addrBits);
  }
  instantiate(prefix + "_tag", tagMaster, tagAddrBits);

  respNets = makeBus(nl, prefix + "_resp", respWidth);
  append(ctrlDrive, respNets);

  CloudSpec spec;
  spec.prefix = prefix + "_ctrl";
  spec.numGates = ctrlGates;
  spec.numRegs = ctrlRegs;
  spec.levels = 6;
  spec.clockNet = tile.groups.clockNet;
  spec.consumeNets = std::move(ctrlConsume);
  spec.driveNets = std::move(ctrlDrive);
  spec.combDriveNets = std::move(ctrlCombDrive);
  const CloudResult r = buildLogicCloud(nl, rng, spec);
  out.ctrlCells = r.gates;
  out.ctrlCells.insert(out.ctrlCells.end(), r.registers.begin(), r.registers.end());
  std::vector<InstId> module = out.ctrlCells;
  module.insert(module.end(), out.macros.begin(), out.macros.end());
  tile.groups.modules.push_back({prefix, std::move(module)});
  return out;
}

}  // namespace

TileConfig makeSmallCacheTileConfig() {
  TileConfig cfg;
  cfg.name = "small";
  cfg.cache = CacheConfig{8, 16, 16, 256};
  return cfg;
}

TileConfig makeLargeCacheTileConfig() {
  TileConfig cfg;
  cfg.name = "large";
  cfg.cache = CacheConfig{16, 16, 128, 1024};
  // Bigger caches come with somewhat larger control logic (MSHRs, wider
  // tags); mirrors the paper's larger logic area for the large-cache tile.
  cfg.l2CtrlGates = 1300;
  cfg.l2CtrlRegs = 260;
  cfg.l3CtrlGates = 1700;
  cfg.l3CtrlRegs = 340;
  cfg.coreGates = 5600;
  cfg.coreRegs = 1050;
  return cfg;
}

TileConfig makeTinyTileConfig() {
  TileConfig cfg;
  cfg.name = "tiny";
  cfg.cache = CacheConfig{2, 2, 4, 8};
  cfg.coreGates = 350;
  cfg.coreRegs = 70;
  cfg.l1CtrlGates = 40;
  cfg.l1CtrlRegs = 10;
  cfg.l2CtrlGates = 60;
  cfg.l2CtrlRegs = 14;
  cfg.l3CtrlGates = 80;
  cfg.l3CtrlRegs = 18;
  cfg.nocGates = 60;
  cfg.nocRegs = 14;
  cfg.nocDataBits = 3;
  return cfg;
}

Tile generateTile(Library& lib, const TechNode& tech, const TileConfig& cfg) {
  Tile tile(&lib);
  tile.config = cfg;
  Netlist& nl = tile.netlist;
  Rng rng(cfg.seed);

  // --- Clock ---------------------------------------------------------------
  const PortId clkPort = nl.addPort("clk", PinDir::kInput, Side::kWest, /*isClock=*/true);
  const NetId clk = nl.addNet("clk");
  nl.connectPort(clk, clkPort);
  tile.groups.clockNet = clk;
  tile.groups.clockPort = clkPort;

  // --- Inter-module buses ----------------------------------------------------
  const auto l1iReq = makeBus(nl, "l1i_req", 16);
  const auto l1dReq = makeBus(nl, "l1d_req", 24);
  std::vector<NetId> l1iResp, l1dResp;
  const auto l1iL2 = makeBus(nl, "l1i_l2", 8);
  const auto l1dL2 = makeBus(nl, "l1d_l2", 8);
  const auto l2L3 = makeBus(nl, "l2_l3", 12);
  const auto l2Noc = makeBus(nl, "l2_noc", 6);
  const auto l3Noc = makeBus(nl, "l3_noc", 12);
  const auto nocL3 = makeBus(nl, "noc_l3", 12);

  // --- Chip-level misc I/O ----------------------------------------------------
  std::vector<NetId> ioIn, ioOut;
  for (int i = 0; i < 8; ++i) {
    const PortId p = nl.addPort("io_in[" + std::to_string(i) + "]", PinDir::kInput, Side::kWest);
    const NetId n = nl.addNet("io_in[" + std::to_string(i) + "]");
    nl.connectPort(n, p);
    ioIn.push_back(n);
  }
  for (int i = 0; i < 8; ++i) {
    const PortId p = nl.addPort("io_out[" + std::to_string(i) + "]", PinDir::kOutput, Side::kEast);
    const NetId n = nl.addNet("io_out[" + std::to_string(i) + "]");
    nl.connectPort(n, p);
    ioOut.push_back(n);
  }

  // --- Caches -------------------------------------------------------------
  {
    auto b = buildCache(tile, lib, tech, rng, "l1i", cfg.cache.l1iKb, cfg.l1CtrlGates,
                        cfg.l1CtrlRegs, l1iReq, l1iResp, 16);
    auto& cc = tile.groups.cacheCtrlCells;
    cc.insert(cc.end(), b.ctrlCells.begin(), b.ctrlCells.end());
  }
  {
    auto b = buildCache(tile, lib, tech, rng, "l1d", cfg.cache.l1dKb, cfg.l1CtrlGates,
                        cfg.l1CtrlRegs, l1dReq, l1dResp, 24);
    auto& cc = tile.groups.cacheCtrlCells;
    cc.insert(cc.end(), b.ctrlCells.begin(), b.ctrlCells.end());
  }

  // Relay clouds drive the L1->L2 miss buses from the L1 responses' domain.
  {
    CloudSpec relay;
    relay.prefix = "l1_miss";
    relay.numGates = 60;
    relay.numRegs = 16;
    relay.levels = 2;
    relay.clockNet = clk;
    relay.consumeNets = l1iReq;  // observes the same traffic
    append(relay.consumeNets, l1dReq);
    relay.driveNets = l1iL2;
    append(relay.driveNets, l1dL2);
    const CloudResult r = buildLogicCloud(nl, rng, relay);
    auto& cc = tile.groups.cacheCtrlCells;
    cc.insert(cc.end(), r.gates.begin(), r.gates.end());
    cc.insert(cc.end(), r.registers.begin(), r.registers.end());
    std::vector<InstId> module = r.gates;
    module.insert(module.end(), r.registers.begin(), r.registers.end());
    tile.groups.modules.push_back({"l1_miss", std::move(module)});
  }

  {
    std::vector<NetId> l2Req = l1iL2;
    append(l2Req, l1dL2);
    std::vector<NetId> l2Out;
    auto b = buildCache(tile, lib, tech, rng, "l2", cfg.cache.l2Kb, cfg.l2CtrlGates,
                        cfg.l2CtrlRegs, l2Req, l2Out, 18);
    auto& cc = tile.groups.cacheCtrlCells;
    cc.insert(cc.end(), b.ctrlCells.begin(), b.ctrlCells.end());
    // l2Out: 18 nets -> 12 to L3, 6 to the NoC. Transfer by construction:
    // we created l2L3/l2Noc above, so relay l2Out onto them.
    CloudSpec relay;
    relay.prefix = "l2_out";
    relay.numGates = 40;
    relay.numRegs = 8;
    relay.levels = 2;
    relay.clockNet = clk;
    relay.consumeNets = l2Out;
    relay.driveNets = l2L3;
    append(relay.driveNets, l2Noc);
    const CloudResult r = buildLogicCloud(nl, rng, relay);
    cc.insert(cc.end(), r.gates.begin(), r.gates.end());
    cc.insert(cc.end(), r.registers.begin(), r.registers.end());
    std::vector<InstId> module = r.gates;
    module.insert(module.end(), r.registers.begin(), r.registers.end());
    tile.groups.modules.push_back({"l2_out", std::move(module)});
  }

  {
    std::vector<NetId> l3Req = l2L3;
    append(l3Req, nocL3);
    std::vector<NetId> l3Out;
    auto b = buildCache(tile, lib, tech, rng, "l3", cfg.cache.l3Kb, cfg.l3CtrlGates,
                        cfg.l3CtrlRegs, l3Req, l3Out, 12);
    auto& cc = tile.groups.cacheCtrlCells;
    cc.insert(cc.end(), b.ctrlCells.begin(), b.ctrlCells.end());
    CloudSpec relay;
    relay.prefix = "l3_out";
    relay.numGates = 30;
    relay.numRegs = 6;
    relay.levels = 2;
    relay.clockNet = clk;
    relay.consumeNets = l3Out;
    relay.driveNets = l3Noc;
    const CloudResult r = buildLogicCloud(nl, rng, relay);
    cc.insert(cc.end(), r.gates.begin(), r.gates.end());
    cc.insert(cc.end(), r.registers.begin(), r.registers.end());
    std::vector<InstId> module = r.gates;
    module.insert(module.end(), r.registers.begin(), r.registers.end());
    tile.groups.modules.push_back({"l3_out", std::move(module)});
  }

  // --- Core -----------------------------------------------------------------
  {
    CloudSpec core;
    core.prefix = "core";
    core.numGates = cfg.coreGates;
    core.numRegs = cfg.coreRegs;
    core.levels = 12;
    core.clockNet = clk;
    core.consumeNets = l1iResp;
    append(core.consumeNets, l1dResp);
    append(core.consumeNets, ioIn);
    core.driveNets = l1iReq;
    append(core.driveNets, l1dReq);
    append(core.driveNets, ioOut);
    const CloudResult r = buildLogicCloud(nl, rng, core);
    auto& cc = tile.groups.coreCells;
    cc.insert(cc.end(), r.gates.begin(), r.gates.end());
    cc.insert(cc.end(), r.registers.begin(), r.registers.end());
    tile.groups.modules.push_back({"core", cc});
  }

  // --- NoC routers + inter-tile ports ----------------------------------------
  // Per paper Sec. V-1: all tile pins on the top logic-die metal; an output
  // pin at the north edge is paired (same x) with the matching input pin at
  // the south edge so abutted tile instances connect without extra routing,
  // and both path halves get a half-cycle constraint.
  int pairTag = 0;
  const struct {
    Side outSide;
    const char* outName;
    const char* inName;
  } kLinks[4] = {
      {Side::kNorth, "N_out", "S_in"},
      {Side::kSouth, "S_out", "N_in"},
      {Side::kEast, "E_out", "W_in"},
      {Side::kWest, "W_out", "E_in"},
  };

  for (int k = 0; k < cfg.numNocs; ++k) {
    const std::string np = "noc" + std::to_string(k);
    std::vector<NetId> inNets;
    std::vector<NetId> outNets;
    for (const auto& link : kLinks) {
      for (int i = 0; i < cfg.nocDataBits; ++i) {
        const std::string on = np + "_" + link.outName + "[" + std::to_string(i) + "]";
        const std::string in = np + "_" + link.inName + "[" + std::to_string(i) + "]";
        const PortId po = nl.addPort(on, PinDir::kOutput, link.outSide);
        const PortId pi = nl.addPort(in, PinDir::kInput, oppositeSide(link.outSide));
        nl.port(po).halfCycle = true;
        nl.port(pi).halfCycle = true;
        nl.port(po).pairTag = pairTag;
        nl.port(pi).pairTag = pairTag;
        ++pairTag;
        const NetId no = nl.addNet(on);
        const NetId ni = nl.addNet(in);
        nl.connectPort(no, po);
        nl.connectPort(ni, pi);
        outNets.push_back(no);
        inNets.push_back(ni);
      }
    }
    CloudSpec router;
    router.prefix = np;
    router.numGates = cfg.nocGates;
    router.numRegs = cfg.nocRegs;
    router.levels = 5;
    router.clockNet = clk;
    router.consumeNets = inNets;
    if (k == 1) append(router.consumeNets, l2Noc);
    if (k == 2) append(router.consumeNets, l3Noc);
    router.driveNets = outNets;
    if (k == 0) append(router.driveNets, nocL3);
    const CloudResult r = buildLogicCloud(nl, rng, router);
    auto& cc = tile.groups.nocCells;
    cc.insert(cc.end(), r.gates.begin(), r.gates.end());
    cc.insert(cc.end(), r.registers.begin(), r.registers.end());
    std::vector<InstId> module = r.gates;
    module.insert(module.end(), r.registers.begin(), r.registers.end());
    tile.groups.modules.push_back({np, std::move(module)});
  }

  assert(nl.validate().empty());
  return tile;
}

}  // namespace m3d
