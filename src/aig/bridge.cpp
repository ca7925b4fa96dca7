#include "aig/bridge.hpp"

#include <stdexcept>

namespace lis::aig {

using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::Op;

SequentialAig fromNetlist(const Netlist& nl) {
  SequentialAig sa;
  sa.source = &nl;

  std::vector<Lit> litOf(nl.nodeCount(), kLitFalse);
  auto addSource = [&](NodeId id) {
    litOf[id] = sa.aig.addPi();
    sa.piSource.push_back(id);
  };
  for (NodeId id : nl.inputs()) addSource(id);
  for (NodeId id : nl.dffs()) addSource(id);

  for (NodeId id : nl.topoOrder()) {
    const Node& n = nl.node(id);
    switch (n.op) {
      case Op::Const0: litOf[id] = kLitFalse; break;
      case Op::Const1: litOf[id] = kLitTrue; break;
      case Op::Not: litOf[id] = litNot(litOf[n.fanin[0]]); break;
      case Op::And:
        litOf[id] = sa.aig.addAnd(litOf[n.fanin[0]], litOf[n.fanin[1]]);
        break;
      case Op::Or:
        litOf[id] = sa.aig.addOr(litOf[n.fanin[0]], litOf[n.fanin[1]]);
        break;
      case Op::Xor:
        litOf[id] = sa.aig.addXor(litOf[n.fanin[0]], litOf[n.fanin[1]]);
        break;
      case Op::Mux:
        litOf[id] = sa.aig.addMux(litOf[n.fanin[0]], litOf[n.fanin[1]],
                                  litOf[n.fanin[2]]);
        break;
      case Op::Output: litOf[id] = litOf[n.fanin[0]]; break;
      case Op::Input:
      case Op::Dff:
        break; // sources, lit already assigned
    }
  }

  for (NodeId id : nl.outputs()) sa.aig.addPo(litOf[id]);
  for (NodeId id : nl.dffs()) {
    const Node& n = nl.node(id);
    sa.aig.addPo(litOf[n.fanin[0]]);
    if (n.hasEnable) sa.aig.addPo(litOf[n.fanin[1]]);
  }
  return sa;
}

namespace {

/// Lowers AIG nodes to netlist And/Not gates on demand, memoizing both
/// polarities so no gate or inverter is ever duplicated.
class Lowerer {
public:
  Lowerer(const Aig& aig, Netlist& out)
      : aig_(aig), out_(out), nodeId_(aig.nodeCount(), netlist::kNoNode),
        notId_(aig.nodeCount(), netlist::kNoNode) {}

  void bindPi(std::size_t pi, NodeId id) { nodeId_[aig_.piNode(pi)] = id; }

  NodeId lower(Lit l) {
    const std::uint32_t n = litNode(l);
    if (n == 0) return out_.constant(litIsCompl(l));
    if (!litIsCompl(l)) return lowerNode(n);
    if (notId_[n] == netlist::kNoNode) {
      notId_[n] = out_.mkNot(lowerNode(n));
    }
    return notId_[n];
  }

private:
  NodeId lowerNode(std::uint32_t n) {
    if (nodeId_[n] != netlist::kNoNode) return nodeId_[n];
    if (!aig_.isAnd(n)) {
      throw std::logic_error("aig::toNetlist: unbound PI");
    }
    const Aig::Node& node = aig_.node(n);
    const NodeId a = lower(node.fanin0);
    const NodeId b = lower(node.fanin1);
    nodeId_[n] = out_.mkAnd(a, b);
    return nodeId_[n];
  }

  const Aig& aig_;
  Netlist& out_;
  std::vector<NodeId> nodeId_;
  std::vector<NodeId> notId_;
};

} // namespace

Netlist toNetlist(const SequentialAig& sa) {
  const Netlist& src = *sa.source;
  const Aig& aig = sa.aig;
  if (aig.numPis() != sa.piSource.size()) {
    throw std::invalid_argument("aig::toNetlist: PI count mismatch");
  }

  Netlist out(src.name());
  Lowerer lower(aig, out);

  // Sources first: ports, then the register skeleton (data pins rewired
  // once the logic exists).
  std::size_t pi = 0;
  for (NodeId id : src.inputs()) {
    lower.bindPi(pi++, out.addInput(src.node(id).name));
  }
  std::vector<NodeId> newDffs;
  for (NodeId id : src.dffs()) {
    const Node& n = src.node(id);
    const NodeId placeholder = out.constant(false);
    const NodeId dff =
        out.mkDff(placeholder, n.hasEnable ? placeholder : netlist::kNoNode,
                  n.resetValue, n.name);
    newDffs.push_back(dff);
    lower.bindPi(pi++, dff);
  }

  // PO cursor walks the recorded order: outputs, then DFF pins.
  const std::vector<Lit>& pos = aig.pos();
  std::size_t po = 0;
  for (NodeId id : src.outputs()) {
    out.addOutput(src.node(id).name, lower.lower(pos.at(po++)));
  }
  for (std::size_t i = 0; i < src.dffs().size(); ++i) {
    const Node& n = src.node(src.dffs()[i]);
    const NodeId d = lower.lower(pos.at(po++));
    const NodeId en =
        n.hasEnable ? lower.lower(pos.at(po++)) : netlist::kNoNode;
    out.setDffInputs(newDffs[i], d, en);
  }
  return out;
}

} // namespace lis::aig
