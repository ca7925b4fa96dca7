#include "netlist/generate.hpp"

#include <string>
#include <vector>

#include "netlist/buses.hpp"
#include "support/rng.hpp"

namespace lis::netlist::gen {

Netlist adder(unsigned width, bool swapOperands, bool corruptMsb) {
  Netlist nl("adder");
  BusBuilder bb(nl);
  Bus a(width), b(width);
  for (unsigned i = 0; i < width; ++i) {
    a[i] = nl.addInput("a_" + std::to_string(i));
    b[i] = nl.addInput("b_" + std::to_string(i));
  }
  Bus sum = swapOperands ? bb.adder(b, a) : bb.adder(a, b);
  if (corruptMsb) sum.back() = nl.mkNot(sum.back());
  bb.outputBus("s", sum);
  return nl;
}

Netlist muxTree(unsigned selBits, MuxStyle style) {
  Netlist nl("muxtree");
  BusBuilder bb(nl);
  const unsigned n = 1u << selBits;
  Bus data = bb.inputBus("d", n);
  Bus sel = bb.inputBus("sel", selBits);
  NodeId y;
  if (style == MuxStyle::Tree) {
    std::vector<NodeId> level(data.begin(), data.end());
    for (unsigned s = 0; s < selBits; ++s) {
      std::vector<NodeId> next(level.size() / 2);
      for (std::size_t i = 0; i < next.size(); ++i) {
        next[i] = nl.mkMux(sel[s], level[2 * i], level[2 * i + 1]);
      }
      level = std::move(next);
    }
    y = level.front();
  } else {
    std::vector<NodeId> terms(n);
    for (unsigned addr = 0; addr < n; ++addr) {
      terms[addr] = nl.mkAnd(data[addr], bb.eqConst(sel, addr));
    }
    y = nl.orTree(terms);
  }
  nl.addOutput("y", y);
  return nl;
}

namespace {

/// Gate soup shared by randomDag/randomSeq: appends ~numGates gates over
/// `pool` (never folding: fanins are kept distinct and no constants exist).
void addRandomGates(Netlist& nl, std::vector<NodeId>& pool, unsigned numGates,
                    support::SplitMix64& rng) {
  auto pick = [&] { return pool[rng.below(pool.size())]; };
  auto pickOther = [&](NodeId avoid) {
    NodeId v = pick();
    while (v == avoid && pool.size() > 1) v = pick();
    return v;
  };
  for (unsigned g = 0; g < numGates; ++g) {
    NodeId id = kNoNode;
    switch (rng.below(5)) {
      case 0:
        id = nl.mkNot(pick());
        break;
      case 1: {
        const NodeId x = pick();
        id = nl.mkAnd(x, pickOther(x));
        break;
      }
      case 2: {
        const NodeId x = pick();
        id = nl.mkOr(x, pickOther(x));
        break;
      }
      case 3: {
        const NodeId x = pick();
        id = nl.mkXor(x, pickOther(x));
        break;
      }
      default: {
        const NodeId a0 = pick();
        id = nl.mkMux(pick(), a0, pickOther(a0));
        break;
      }
    }
    pool.push_back(id);
  }
}

void exportOutputs(Netlist& nl, const std::vector<NodeId>& pool,
                   unsigned numOutputs) {
  for (unsigned o = 0; o < numOutputs; ++o) {
    nl.addOutput("o_" + std::to_string(o), pool[pool.size() - 1 - o]);
  }
}

} // namespace

Netlist randomDag(unsigned numInputs, unsigned numGates, unsigned numOutputs,
                  std::uint64_t seed) {
  Netlist nl("random_dag");
  support::SplitMix64 rng(seed);
  std::vector<NodeId> pool;
  pool.reserve(numInputs + numGates);
  for (unsigned i = 0; i < numInputs; ++i) {
    pool.push_back(nl.addInput("x_" + std::to_string(i)));
  }
  addRandomGates(nl, pool, numGates, rng);
  exportOutputs(nl, pool, numOutputs);
  return nl;
}

Netlist randomSeq(unsigned numInputs, unsigned numGates, unsigned numDffs,
                  unsigned numOutputs, std::uint64_t seed) {
  Netlist nl("random_seq");
  support::SplitMix64 rng(seed);
  std::vector<NodeId> pool;
  pool.reserve(numInputs + numDffs + numGates);
  for (unsigned i = 0; i < numInputs; ++i) {
    pool.push_back(nl.addInput("x_" + std::to_string(i)));
  }
  // Registers first so gates can consume their Q values; data inputs are
  // placeholders until the combinational cloud exists.
  std::vector<NodeId> regs;
  for (unsigned k = 0; k < numDffs; ++k) {
    const NodeId q = nl.mkDff(pool[rng.below(pool.size())], kNoNode,
                              rng.flip(), "r_" + std::to_string(k));
    regs.push_back(q);
    pool.push_back(q);
  }
  addRandomGates(nl, pool, numGates, rng);
  for (NodeId q : regs) {
    const NodeId d = pool[rng.below(pool.size())];
    const NodeId en = rng.flip() ? pool[rng.below(pool.size())] : kNoNode;
    nl.setDffInputs(q, d, en);
  }
  exportOutputs(nl, pool, numOutputs);
  return nl;
}

} // namespace lis::netlist::gen
