#pragma once

/// \file openpiton.hpp
/// Synthetic OpenPiton-tile netlist generator (the paper's case study,
/// Sec. V / Fig. 3).
///
/// A tile consists of a 64-bit out-of-order RISC-V Ariane core, a private
/// L1 (I+D) and L1.5/L2 cache, a shared-L3 slice, and three parallel NoC
/// routers with N/S/E/W inter-tile links. We reproduce that structure at a
/// scaled size (see flows/case_study.hpp for the scale calibration): each
/// block is a register-bounded random-logic cloud, each cache is a set of
/// generated SRAM bank macros plus a tag array and a controller cloud, and
/// each NoC router exposes aligned, half-cycle-constrained inter-tile ports
/// exactly as the paper's design setup prescribes (Sec. V-1).

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/logic_cloud.hpp"
#include "netlist/netlist.hpp"
#include "tech/tech_node.hpp"

namespace m3d {

/// Cache capacities per tile [KB].
struct CacheConfig {
  int l1iKb = 8;
  int l1dKb = 16;
  int l2Kb = 16;
  int l3Kb = 256;
};

/// Full tile configuration.
struct TileConfig {
  std::string name = "small";
  CacheConfig cache;

  // Logic sizes (combinational gates / registers per block).
  int coreGates = 5000;
  int coreRegs = 950;
  int l1CtrlGates = 350;
  int l1CtrlRegs = 70;
  int l2CtrlGates = 800;
  int l2CtrlRegs = 160;
  int l3CtrlGates = 1100;
  int l3CtrlRegs = 220;
  int nocGates = 550;
  int nocRegs = 140;

  int numNocs = 3;        ///< parallel on-chip networks (paper: 3).
  int nocDataBits = 16;   ///< inter-tile link width per NoC per direction (scaled).
  int wordBits = 32;      ///< SRAM word width (scaled from 64/144).
  int maxBankKb = 64;     ///< largest SRAM bank; bigger caches are banked.

  /// Effective bitcell area [um^2]; case-study calibration such that macros
  /// occupy >50% of the tile substrate (paper Sec. V observation).
  double bitcellUm2 = 0.006;

  std::uint64_t seed = 0xC0FFEE;
};

/// The paper's small-cache tile: 8 KB L1I, 16 KB L1D, 16 KB L2, 256 KB L3.
TileConfig makeSmallCacheTileConfig();
/// The paper's modern/large-cache tile: 16 KB L1I+L1D, 128 KB L2, 1 MB L3.
TileConfig makeLargeCacheTileConfig();
/// A tiny tile ("tiny": 2/2/4/8 KB caches, a few hundred gates per block)
/// whose whole flow runs in well under a second: the tests, the smoke
/// benches and m3d_serve's "tiny" jobs use it.
TileConfig makeTinyTileConfig();

/// Instance-group bookkeeping for floorplanning/reporting.
struct TileGroups {
  std::vector<InstId> macros;          ///< all SRAM bank/tag instances.
  std::vector<InstId> coreCells;
  std::vector<InstId> cacheCtrlCells;
  std::vector<InstId> nocCells;
  /// Fine-grained logical modules ("core", "l1i", "l1d", "l2", "l3",
  /// "noc0".., relays): used for hierarchical placement seeding.
  std::vector<std::pair<std::string, std::vector<InstId>>> modules;
  NetId clockNet = kInvalidId;
  PortId clockPort = kInvalidId;
};

/// Generated tile: netlist plus group bookkeeping.
struct Tile {
  explicit Tile(const Library* lib) : netlist(lib) {}
  Netlist netlist;
  TileGroups groups;
  TileConfig config;
};

/// Generates the tile netlist. Extends \p lib with the SRAM macro masters
/// the configuration needs (idempotent per distinct geometry).
Tile generateTile(Library& lib, const TechNode& tech, const TileConfig& cfg);

}  // namespace m3d
