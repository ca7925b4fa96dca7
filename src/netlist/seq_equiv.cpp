#include "netlist/seq_equiv.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace lis::netlist {

Netlist combEnvelope(const Netlist& nl) {
  Netlist env(nl.name() + "_env");
  std::vector<NodeId> map(nl.nodeCount(), kNoNode);

  for (NodeId id : nl.inputs()) {
    map[id] = env.addInput(nl.node(id).name);
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    map[nl.dffs()[i]] = env.addInput("__q" + std::to_string(i));
  }

  std::map<std::pair<std::uint32_t, std::uint32_t>, NodeId> romBitSeen;
  const auto order = nl.topoOrder();
  for (NodeId id : order) {
    const Node& n = nl.node(id);
    switch (n.op) {
      case Op::Input:
      case Op::Dff:
      case Op::Output:
        break;
      case Op::Const0: map[id] = env.constant(false); break;
      case Op::Const1: map[id] = env.constant(true); break;
      case Op::Not: map[id] = env.mkNot(map[n.fanin[0]]); break;
      case Op::And:
        map[id] = env.mkAnd(map[n.fanin[0]], map[n.fanin[1]]);
        break;
      case Op::Or:
        map[id] = env.mkOr(map[n.fanin[0]], map[n.fanin[1]]);
        break;
      case Op::Xor:
        map[id] = env.mkXor(map[n.fanin[0]], map[n.fanin[1]]);
        break;
      case Op::Mux:
        map[id] = env.mkMux(map[n.fanin[0]], map[n.fanin[1]],
                            map[n.fanin[2]]);
        break;
      case Op::RomBit: {
        const auto key = std::make_pair(n.romId, n.romBit);
        if (!romBitSeen.emplace(key, id).second) {
          throw std::invalid_argument(
              "combEnvelope: duplicate RomBit for rom " +
              std::to_string(n.romId) + " bit " + std::to_string(n.romBit));
        }
        const std::string tag =
            std::to_string(n.romId) + "_" + std::to_string(n.romBit);
        map[id] = env.addInput("__rom" + tag);
        for (std::size_t j = 0; j < n.fanin.size(); ++j) {
          env.addOutput("__addr" + tag + "_" + std::to_string(j),
                        map[n.fanin[j]]);
        }
        break;
      }
    }
  }

  for (NodeId id : nl.outputs()) {
    env.addOutput(nl.node(id).name, map[nl.node(id).fanin[0]]);
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    const Node& n = nl.node(nl.dffs()[i]);
    env.addOutput("__d" + std::to_string(i), map[n.fanin[0]]);
    if (n.hasEnable) {
      env.addOutput("__en" + std::to_string(i), map[n.fanin[1]]);
    }
  }
  return env;
}

SeqEquivResult checkSeqEquivalence(const Netlist& a, const Netlist& b,
                                   const EquivOptions& opts) {
  SeqEquivResult r;
  r.method = EquivMethod::Structural; // until the envelope comparison runs
  if (a.dffs().size() != b.dffs().size()) {
    r.detail = "DFF count differs: " + std::to_string(a.dffs().size()) +
               " vs " + std::to_string(b.dffs().size());
    return r;
  }
  for (std::size_t i = 0; i < a.dffs().size(); ++i) {
    const Node& na = a.node(a.dffs()[i]);
    const Node& nb = b.node(b.dffs()[i]);
    if (na.resetValue != nb.resetValue || na.hasEnable != nb.hasEnable) {
      r.detail = "DFF " + std::to_string(i) + " shape differs";
      return r;
    }
  }
  if (a.romCount() != b.romCount()) {
    r.detail = "ROM count differs";
    return r;
  }
  for (std::uint32_t i = 0; i < a.romCount(); ++i) {
    const Rom& ra = a.rom(i);
    const Rom& rb = b.rom(i);
    if (ra.width != rb.width || ra.words != rb.words) {
      r.detail = "ROM " + std::to_string(i) + " contents differ";
      return r;
    }
  }

  const EquivResult comb =
      checkCombEquivalence(combEnvelope(a), combEnvelope(b), opts);
  r.equivalent = comb.equivalent;
  r.method = comb.method;
  r.confidence = comb.confidence;
  r.degraded = comb.degraded;
  r.proof = comb.proof;
  if (!comb.equivalent) {
    r.detail = "envelope output " + comb.failingOutput + " differs";
  } else if (comb.degraded) {
    r.detail = "SAT budget exceeded; verdict from simulation screen";
  }
  return r;
}

} // namespace lis::netlist
