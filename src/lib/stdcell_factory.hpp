#pragma once

/// \file stdcell_factory.hpp
/// Synthetic 28 nm-class standard-cell library.
///
/// The library is calibrated so that an FO4 inverter delay is ~22 ps and a
/// DFF CK->Q + setup budget is ~160 ps, in line with published 28 nm slow-
/// corner numbers. Delay model: d = intrinsic + driveRes * Cload (see
/// TimingArc). Drive strength Xk scales driveRes by 1/k and input caps,
/// energy and leakage by ~k.

#include "lib/library.hpp"
#include "tech/tech_node.hpp"

namespace m3d {

/// Builds the standard-cell library for \p tech. Contains, at multiple drive
/// strengths: INV, BUF (registered as the buffering family), NAND2, NOR2,
/// AND2, OR2, AOI21, OAI21, XOR2, XNOR2, MUX2, DFF, plus a FILLER cell.
Library makeStdCellLib(const TechNode& tech);

/// Buffer master that CTS (leaf level), repeater insertion and the timing
/// optimizer insert: the X8 drive of the BUF family.
inline constexpr const char* kBufferCell = "BUF_X8";

}  // namespace m3d
