#pragma once
// Netlist: gate-level intermediate representation for wrapper synthesis.
//
// Every wrapper generator in this repository (one-hot / binary FSM,
// shift-register, synchronization processor) lowers to this IR; the
// technology mapper, static timing analyzer, netlist simulator, SAT
// equivalence checker and structural Verilog emitter all consume it.
//
// Node kinds:
//   Input / Output     top-level ports (Output has one fanin: its source)
//   Const0 / Const1    constants (one shared node each)
//   Not / And / Or / Xor / Mux   combinational gates (Mux: sel, a0, a1)
//   Dff                D flip-flop with optional clock-enable and a
//                      synchronous reset value
//   RomBit             one data bit of an asynchronous ROM; fanins are the
//                      address bits (LSB first). ROM contents are stored in
//                      the netlist and costed separately from logic slices,
//                      mirroring how the paper's synchronization-processor
//                      program memory is an async ROM next to the datapath.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/small_vec.hpp"

namespace lis::netlist {

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = static_cast<NodeId>(-1);

enum class Op : std::uint8_t {
  Input,
  Output,
  Const0,
  Const1,
  Not,
  And,
  Or,
  Xor,
  Mux,
  Dff,
  RomBit,
};

const char* opName(Op op);

/// Fanin list: inline up to the 3 operands of a Mux (the widest gate), so
/// ordinary nodes never heap-allocate; only RomBit address lists spill.
using FaninList = support::SmallVec<NodeId, 3>;

struct Node {
  Op op = Op::Const0;
  FaninList fanin;
  std::string name;     // non-empty for ports and named registers
  bool resetValue = false; // Dff only
  bool hasEnable = false;  // Dff only: fanin = {d, enable}
  std::uint32_t romId = 0;     // RomBit only
  std::uint32_t romBit = 0;    // RomBit only
};

/// Contents of one asynchronous ROM: `depth` words of `width` bits.
struct Rom {
  unsigned width = 0;
  std::vector<std::uint64_t> words;
  std::string name;
};

struct NetlistStats {
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t gates = 0; // Not/And/Or/Xor/Mux (sum of the by-type counts)
  std::size_t nots = 0;
  std::size_t ands = 0;
  std::size_t ors = 0;
  std::size_t xors = 0;
  std::size_t muxes = 0;
  std::size_t dffs = 0;
  std::size_t romBits = 0; // total ROM storage bits
};

class Netlist {
public:
  explicit Netlist(std::string name = "top");

  const std::string& name() const { return name_; }

  // --- construction -------------------------------------------------------
  NodeId addInput(std::string name);
  NodeId addOutput(std::string name, NodeId src);
  NodeId constant(bool value);
  NodeId mkNot(NodeId a);
  NodeId mkAnd(NodeId a, NodeId b);
  NodeId mkOr(NodeId a, NodeId b);
  NodeId mkXor(NodeId a, NodeId b);
  NodeId mkXnor(NodeId a, NodeId b) { return mkNot(mkXor(a, b)); }
  /// Mux: sel ? a1 : a0.
  NodeId mkMux(NodeId sel, NodeId a0, NodeId a1);
  /// D flip-flop. enable==kNoNode means always-on.
  NodeId mkDff(NodeId d, NodeId enable = kNoNode, bool resetValue = false,
               std::string name = {});
  /// Rewire an existing DFF's data (and optionally enable) input. Needed to
  /// close sequential loops (counter feedback) after the register exists.
  void setDffInputs(NodeId dff, NodeId d, NodeId enable = kNoNode);

  /// Balanced reduction trees.
  NodeId andTree(std::span<const NodeId> terms);
  NodeId orTree(std::span<const NodeId> terms);

  /// Declare a ROM; returns its id.
  std::uint32_t addRom(unsigned width, std::vector<std::uint64_t> words,
                       std::string name);
  /// One output bit of a ROM. `addr` is LSB-first; at most 64 address bits
  /// (throws std::invalid_argument beyond that).
  NodeId mkRomBit(std::uint32_t romId, std::uint32_t bit,
                  std::span<const NodeId> addr);

  // --- inspection ---------------------------------------------------------
  std::size_t nodeCount() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  const std::vector<NodeId>& dffs() const { return dffs_; }
  const Rom& rom(std::uint32_t id) const { return roms_[id]; }
  std::size_t romCount() const { return roms_.size(); }

  NetlistStats stats() const;

  /// Fanout count per node (Output nodes count as consumers).
  std::vector<std::uint32_t> fanoutCounts() const;

  /// Combinational topological order: every non-Dff node appears after its
  /// fanins; Dff outputs, inputs and constants are sources. Throws
  /// std::runtime_error on a combinational cycle.
  std::vector<NodeId> topoOrder() const;

  /// Graphviz dump for debugging.
  std::string toDot() const;

private:
  NodeId addNode(Node n);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  std::vector<Rom> roms_;
  NodeId const0_ = kNoNode;
  NodeId const1_ = kNoNode;
};

} // namespace lis::netlist
