#pragma once

/// \file netlist.hpp
/// Flat gate-level netlist database: instances of library cells, top-level
/// ports and multi-pin nets. This is the single design database shared by
/// floorplanning, placement, routing, extraction, STA, CTS and the flows.

#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "lib/library.hpp"
#include "tech/layer.hpp"

namespace m3d {

using InstId = std::int32_t;
using NetId = std::int32_t;
using PortId = std::int32_t;
inline constexpr std::int32_t kInvalidId = -1;

/// A connection point of a net: either pin \p libPin of instance \p inst, or
/// top-level port \p port.
struct NetPin {
  enum class Kind : std::uint8_t { kInstPin, kPort };
  Kind kind = Kind::kInstPin;
  InstId inst = kInvalidId;
  int libPin = -1;
  PortId port = kInvalidId;

  static NetPin makeInstPin(InstId i, int lp) {
    NetPin p;
    p.kind = Kind::kInstPin;
    p.inst = i;
    p.libPin = lp;
    return p;
  }
  static NetPin makePort(PortId pt) {
    NetPin p;
    p.kind = Kind::kPort;
    p.port = pt;
    return p;
  }
  friend bool operator==(const NetPin&, const NetPin&) = default;
};

/// A placed instance of a library cell.
struct Instance {
  std::string name;
  CellTypeId type = kInvalidCellType;
  Point pos;            ///< lower-left origin [DBU]; set by floorplan/placement.
  bool fixed = false;   ///< true for floorplanned macros.
  DieId die = DieId::kLogic;  ///< physical die the instance sits on.
  std::vector<NetId> pinNets;  ///< net per library-pin index (kInvalidId = open).
};

/// Die edge a top-level port sits on.
enum class Side : std::uint8_t { kNorth, kSouth, kEast, kWest };

Side oppositeSide(Side s);
const char* sideName(Side s);

/// A top-level I/O port.
struct Port {
  std::string name;
  PinDir dir = PinDir::kInput;
  bool isClock = false;
  double cap = 2.0e-15;   ///< external pin load for output ports [F].
  Side side = Side::kNorth;
  Point pos;              ///< set by the floorplanner (alignment constraints).
  std::string layer = "M6";  ///< all tile pins sit on the logic-die top metal.
  NetId net = kInvalidId;
  /// Ports with the same non-negative tag on opposite sides represent the
  /// two ends of an inter-tile path and must be coordinate-aligned
  /// (paper Sec. V-1).
  int pairTag = -1;
  /// True for inter-tile signal ports constrained with a half-cycle delay.
  bool halfCycle = false;
};

/// A signal or clock net.
struct Net {
  std::string name;
  std::vector<NetPin> pins;
  int driverIdx = -1;  ///< index into pins of the driving pin.
  bool isClock = false;
};

class Netlist {
 public:
  explicit Netlist(const Library* lib) : lib_(lib) {}

  const Library& library() const { return *lib_; }

  // --- construction -----------------------------------------------------
  InstId addInstance(const std::string& name, CellTypeId type);
  NetId addNet(const std::string& name);
  PortId addPort(const std::string& name, PinDir dir, Side side, bool isClock = false);

  /// Connects pin \p libPin of \p inst to \p net. Output pins become the
  /// net's driver (a net must not get two drivers).
  void connect(NetId net, InstId inst, int libPin);
  /// Convenience: connect by pin name.
  void connect(NetId net, InstId inst, const std::string& pinName);
  /// Connects a top-level port. Input ports become the net's driver.
  void connectPort(NetId net, PortId port);
  /// Removes a pin from its net (used by the optimizer when re-hooking
  /// sinks onto buffer nets).
  void disconnect(NetId net, const NetPin& pin);

  /// Replaces the cell master of \p inst by \p newType. The new master must
  /// have an identical pin interface (same names/directions in order).
  void resize(InstId inst, CellTypeId newType);

  /// Wholesale state replacement, used by the design-database restore path:
  /// swaps in fully built instance/net/port tables. The library pointer and
  /// the Netlist object identity are unchanged, so references held across a
  /// checkpoint restore (flow drivers keep a Netlist& over the whole
  /// pipeline) stay valid. The caller owns referential integrity; the db
  /// decoder bounds-checks every id before calling this and validate()
  /// remains available as a deep check.
  void restore(std::vector<Instance> insts, std::vector<Net> nets, std::vector<Port> ports);

  // --- access -----------------------------------------------------------
  int numInstances() const { return static_cast<int>(insts_.size()); }
  int numNets() const { return static_cast<int>(nets_.size()); }
  int numPorts() const { return static_cast<int>(ports_.size()); }

  Instance& instance(InstId i) { return insts_[static_cast<std::size_t>(i)]; }
  const Instance& instance(InstId i) const { return insts_[static_cast<std::size_t>(i)]; }
  Net& net(NetId n) { return nets_[static_cast<std::size_t>(n)]; }
  const Net& net(NetId n) const { return nets_[static_cast<std::size_t>(n)]; }
  Port& port(PortId p) { return ports_[static_cast<std::size_t>(p)]; }
  const Port& port(PortId p) const { return ports_[static_cast<std::size_t>(p)]; }
  /// The whole tables, indexed by id (read-only; restore() replaces them).
  const std::vector<Instance>& instances() const { return insts_; }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Port>& ports() const { return ports_; }

  const CellType& cellOf(InstId i) const { return lib_->cell(instance(i).type); }

  /// Absolute position of a net pin (instance origin + pin offset, or port
  /// position).
  Point pinPosition(const NetPin& p) const;
  /// Layer name the net pin's physical shape sits on.
  const std::string& pinLayer(const NetPin& p) const;
  /// Input capacitance presented by the net pin.
  double pinCap(const NetPin& p) const;
  /// True if this net pin is a driver (output inst pin / input port).
  bool isDriverPin(const NetPin& p) const;

  /// Half-perimeter wirelength of a net at current positions [DBU].
  Dbu netHpwl(NetId n) const;
  /// Sum of HPWL over all nets [DBU]. \p numThreads parallelizes the sum
  /// over chunks of nets (0 = auto, 1 = sequential); the integer partials
  /// are folded in chunk order, so the result is identical at any count.
  std::int64_t totalHpwl(int numThreads = 1) const;

  /// Checks structural invariants; returns a diagnostic string (empty when
  /// healthy): every net has exactly one driver and at least one sink, pin
  /// references are in range, pinNets back-references are consistent.
  std::string validate() const;

 private:
  const Library* lib_;
  std::vector<Instance> insts_;
  std::vector<Net> nets_;
  std::vector<Port> ports_;
};

/// Aggregate area/count statistics of a netlist.
struct NetlistStats {
  int numInstances = 0;
  int numStdCells = 0;
  int numMacros = 0;
  int numSequential = 0;
  int numNets = 0;
  int numPorts = 0;
  std::int64_t stdCellArea = 0;   ///< DBU^2 substrate area of standard cells.
  std::int64_t macroArea = 0;     ///< DBU^2 substrate area of macros (original size).
  double macroAreaFraction() const {
    const double t = static_cast<double>(stdCellArea + macroArea);
    return t == 0.0 ? 0.0 : static_cast<double>(macroArea) / t;
  }
};

NetlistStats computeStats(const Netlist& nl);

}  // namespace m3d
