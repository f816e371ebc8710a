#pragma once

/// \file net_buffering.hpp
/// Global repeater insertion: splits every long signal net into bounded-
/// length segments by inserting buffer trees, the way commercial P&R inserts
/// thousands of repeaters in wire-dominated nodes. Runs geometrically
/// (no STA) before timing optimization; the sizing optimizer then tunes the
/// critical ones.

#include "floorplan/floorplan.hpp"
#include "netlist/netlist.hpp"

namespace m3d {

struct NetBufferingOptions {
  /// Maximum driver->sink Manhattan length before a repeater is inserted
  /// [DBU].
  Dbu maxLength = umToDbu(100.0);
};

struct NetBufferingResult {
  int buffersInserted = 0;
  int netsProcessed = 0;
};

/// Inserts repeaters on all non-clock nets whose driver->sink spans exceed
/// maxLength. Buffer positions are clamped into the die; run legalize()
/// afterwards. Deterministic.
NetBufferingResult bufferLongNets(Netlist& nl, const Floorplan& fp,
                                  const NetBufferingOptions& opt = NetBufferingOptions{});

}  // namespace m3d
