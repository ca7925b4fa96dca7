#pragma once
// Deterministic netlist generators shared by the benchmark harness and the
// randomized tests: classic structures (adders, mux trees) in deliberately
// different but functionally equal variants for equivalence checking, plus
// seeded random DAGs for simulator stress.

#include <cstdint>

#include "netlist/netlist.hpp"

namespace lis::netlist::gen {

/// Ripple-carry adder: inputs a_i/b_i created interleaved (a_0, b_0, a_1,
/// ...); outputs s_0..s_{width-1}. `swapOperands` builds adder(b, a) — same
/// function, different structure. `corruptMsb` inverts the top sum bit,
/// producing an inequivalent twin.
Netlist adder(unsigned width, bool swapOperands = false,
              bool corruptMsb = false);

enum class MuxStyle {
  Tree,          ///< balanced 2:1 mux tree
  SumOfProducts, ///< OR of (data AND address minterm) terms
};

/// 2^selBits : 1 multiplexer: inputs d_0..d_{2^selBits-1} and sel_*,
/// output y. The two styles are structurally unrelated but equivalent.
Netlist muxTree(unsigned selBits, MuxStyle style);

/// Random combinational DAG: numInputs inputs x_*, ~numGates random gates
/// (Not/And/Or/Xor/Mux over earlier nodes, distinct fanins so nothing
/// constant-folds), last numOutputs gate values exported as o_*.
Netlist randomDag(unsigned numInputs, unsigned numGates, unsigned numOutputs,
                  std::uint64_t seed);

/// Random sequential netlist: like randomDag plus numDffs registers (random
/// reset values, some with enables) whose data inputs are rewired to random
/// gates after construction, closing feedback loops.
Netlist randomSeq(unsigned numInputs, unsigned numGates, unsigned numDffs,
                  unsigned numOutputs, std::uint64_t seed);

} // namespace lis::netlist::gen
