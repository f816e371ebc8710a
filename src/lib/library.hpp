#pragma once

/// \file library.hpp
/// Cell library: owns cell types, provides name lookup and drive-strength
/// family navigation (used by the sizing optimizer).

#include <map>
#include <string>
#include <vector>

#include "lib/cell_type.hpp"

namespace m3d {

using CellTypeId = std::int32_t;
inline constexpr CellTypeId kInvalidCellType = -1;

class Library {
 public:
  /// Adds a cell type; the name must be unique. Returns its id.
  CellTypeId addCell(CellType cell);

  int numCells() const { return static_cast<int>(cells_.size()); }
  const CellType& cell(CellTypeId id) const { return cells_[static_cast<std::size_t>(id)]; }
  CellType& cell(CellTypeId id) { return cells_[static_cast<std::size_t>(id)]; }
  /// Every cell type, indexed by CellTypeId.
  const std::vector<CellType>& cells() const { return cells_; }

  /// Id of the cell named \p name, or kInvalidCellType.
  CellTypeId findCell(const std::string& name) const;

  /// All cells of a family ("INV") ordered by increasing drive strength.
  std::vector<CellTypeId> family(const std::string& familyName) const;

  /// Next stronger cell of the same family, or kInvalidCellType at the top.
  CellTypeId nextSizeUp(CellTypeId id) const;
  /// Next weaker cell of the same family, or kInvalidCellType at the bottom.
  CellTypeId nextSizeDown(CellTypeId id) const;

  /// The buffer family used for net buffering and CTS (strongest first
  /// lookup is done by the optimizer). Set by the factory.
  void setBufferFamily(const std::string& fam) { bufferFamily_ = fam; }
  const std::string& bufferFamily() const { return bufferFamily_; }

  /// The filler cell id (defines the substrate size of projected macros).
  void setFillerCell(CellTypeId id) { filler_ = id; }
  CellTypeId fillerCell() const { return filler_; }

 private:
  std::vector<CellType> cells_;
  std::map<std::string, CellTypeId> byName_;
  std::map<std::string, std::vector<CellTypeId>> byFamily_;
  std::string bufferFamily_;
  CellTypeId filler_ = kInvalidCellType;
};

}  // namespace m3d
