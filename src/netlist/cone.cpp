#include "netlist/cone.hpp"

#include <stdexcept>
#include <string>

namespace lis::netlist {

Cone extractCone(const Netlist& nl, std::span<const NodeId> roots) {
  const std::size_t n = nl.nodeCount();
  // 0 = outside, 1 = in the cone, 2 = root.
  std::vector<char> mark(n, 0);
  std::vector<NodeId> stack;
  for (const NodeId r : roots) {
    if (r >= n) throw std::out_of_range("netlist::extractCone: bad root");
    if (mark[r] == 0) stack.push_back(r);
    mark[r] = 2;
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (const NodeId f : nl.node(id).fanin) {
      if (mark[f] != 0) continue;
      mark[f] = 1;
      stack.push_back(f);
    }
  }

  Cone cone{Netlist(nl.name()), std::vector<NodeId>(n, kNoNode), {}};
  Netlist& out = cone.netlist;
  std::vector<NodeId>& toCone = cone.toCone;
  // Sources first, in source order. DFF pins may read logic built after
  // the register, so they are wired once everything exists.
  for (const NodeId id : nl.inputs()) {
    if (mark[id] != 0) toCone[id] = out.addInput(nl.node(id).name);
  }
  for (const NodeId id : nl.dffs()) {
    if (mark[id] == 0) continue;
    const Node& d = nl.node(id);
    toCone[id] = out.mkDff(out.constant(false), kNoNode, d.resetValue, d.name);
  }
  // Every gate was built after its fanins, so ascending ids are a
  // topological order of the combinational logic.
  for (NodeId id = 0; id < n; ++id) {
    if (mark[id] == 0) continue;
    const Node& node = nl.node(id);
    const auto in = [&](std::size_t i) {
      const NodeId c = toCone[node.fanin[i]];
      if (c == kNoNode) {
        throw std::logic_error("netlist::extractCone: node " +
                               std::to_string(id) + " reads a later node");
      }
      return c;
    };
    switch (node.op) {
      case Op::Const0: toCone[id] = out.constant(false); break;
      case Op::Const1: toCone[id] = out.constant(true); break;
      case Op::Not: toCone[id] = out.mkNot(in(0)); break;
      case Op::And: toCone[id] = out.mkAnd(in(0), in(1)); break;
      case Op::Or: toCone[id] = out.mkOr(in(0), in(1)); break;
      case Op::Xor: toCone[id] = out.mkXor(in(0), in(1)); break;
      case Op::Mux: toCone[id] = out.mkMux(in(0), in(1), in(2)); break;
      case Op::Output:
        toCone[id] = mark[id] == 2 ? out.addOutput(nl.node(id).name, in(0))
                                   : in(0);
        break;
      case Op::Input:
      case Op::Dff:
        break;
    }
  }
  for (const NodeId id : nl.dffs()) {
    if (mark[id] == 0) continue;
    const Node& d = nl.node(id);
    out.setDffInputs(toCone[id], toCone[d.fanin[0]],
                     d.hasEnable ? toCone[d.fanin[1]] : kNoNode);
  }

  cone.toSource.assign(out.nodeCount(), kNoNode);
  for (NodeId id = 0; id < n; ++id) {
    const NodeId c = toCone[id];
    if (c != kNoNode && cone.toSource[c] == kNoNode) cone.toSource[c] = id;
  }
  return cone;
}

} // namespace lis::netlist
