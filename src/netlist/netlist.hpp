#pragma once
// Netlist: gate-level intermediate representation for wrapper synthesis.
//
// The system elaborator (sync::buildSystem: shells with one-hot or binary
// FSM control, relay stations, their datapaths) lowers to this IR; the
// technology mapper, static timing analyzer, netlist simulator, SAT
// equivalence checker and structural Verilog emitter all consume it.
//
// Node kinds:
//   Input / Output     top-level ports (Output has one fanin: its source)
//   Const0 / Const1    constants (one shared node each)
//   Not / And / Or / Xor / Mux   combinational gates (Mux: sel, a0, a1)
//   Dff                D flip-flop with optional clock-enable and a
//                      synchronous reset value

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

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
};

const char* opName(Op op);

/// Fanin list: at most the 3 operands of a Mux (the widest gate), inline.
class FaninList {
public:
  FaninList() = default;
  FaninList(std::initializer_list<NodeId> ids) {
    assert(ids.size() <= 3 && "a node has at most three fanins");
    for (NodeId id : ids) ids_[size_++] = id;
  }

  std::size_t size() const { return size_; }
  NodeId operator[](std::size_t i) const { return ids_[i]; }
  const NodeId* begin() const { return ids_; }
  const NodeId* end() const { return ids_ + size_; }

private:
  NodeId ids_[3] = {};
  std::uint8_t size_ = 0;
};

struct Node {
  Op op = Op::Const0;
  FaninList fanin;
  std::string name;     // non-empty for ports and named registers
  bool resetValue = false; // Dff only
  bool hasEnable = false;  // Dff only: fanin = {d, enable}
};

struct NetlistStats {
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t gates = 0; // Not/And/Or/Xor/Mux
  std::size_t dffs = 0;
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

  // --- inspection ---------------------------------------------------------
  std::size_t nodeCount() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  const std::vector<NodeId>& dffs() const { return dffs_; }

  NetlistStats stats() const;

  /// Fanout count per node (Output nodes count as consumers).
  std::vector<std::uint32_t> fanoutCounts() const;

  /// Combinational topological order: every non-Dff node appears after its
  /// fanins; Dff outputs, inputs and constants are sources. Throws
  /// std::runtime_error on a combinational cycle.
  std::vector<NodeId> topoOrder() const;

private:
  NodeId addNode(Node n);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  NodeId const0_ = kNoNode;
  NodeId const1_ = kNoNode;
};

} // namespace lis::netlist
