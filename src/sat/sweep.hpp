#pragma once
// SAT-sweeping (fraiging): merge functionally-equivalent AIG nodes.
//
// One bottom-up pass over the AIG in topological order rebuilds every
// AND over its fanins' representatives in a fresh strashed AIG; a
// strash hit is a free merge. Each node the rebuild really creates is
// bucketed by its complement-canonical bit-parallel simulation
// signature and proved against the bucket's representative (an older
// node, so merges always point backwards topologically):
//
//   1. A window query: a small fresh solver over the union of both
//      nodes' cones, cut a fixed number of AND levels below them, with
//      the cut nodes as free variables. UNSAT is already a proof. SAT is
//      a counterexample only when the window reached the primary inputs.
//   2. Otherwise the shared incremental solver over the whole rebuilt
//      graph decides the pair under SweepOptions::perPairConflicts.
//      UNSAT proves the pair.
//
// A counterexample from either step is a distinguishing input pattern:
// it is simulated into every node's signature, which splits the bucket
// before the node tries the bucket's next representative.
//
// Only proven merges are applied: budget-tripped queries leave the
// pair unmerged, so the result is sound regardless of budgets. Window
// and shared solvers draw from one conflict/propagation budget. The
// swept AIG keeps only what the POs reach, dropping the cones the
// merges strand.
//
// netlist::checkCombEquivalence proves with this engine too: it sweeps
// the joint miter of the two netlists and queries only the output
// pairs that did not end on one literal.
//
// sweepNetlist round-trips a sequential netlist through the
// aig::fromNetlist / toNetlist bridges, sweeping the combinational
// core while preserving the register skeleton — the SatSweep
// pipeline pass proves the result sequentially equivalent anyway.

#include <cstdint>

#include "aig/aig.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace lis::sat {

struct SweepOptions {
  /// 64-bit words of random stimulus for the initial signatures.
  unsigned simWords = 8;
  /// Whole-sweep solver budget over window and shared queries
  /// (absolute; 0 = unlimited).
  std::uint64_t conflictBudget = 1u << 20;
  std::uint64_t propagationBudget = 0;
  /// Per-query conflict allowance of the shared solver within the
  /// whole-sweep budget (0 = no per-query cap).
  std::uint64_t perPairConflicts = 2000;
  std::uint64_t seed = 0x5ee9c1a55e5ULL;
};

struct SweepStats {
  std::size_t candidates = 0;   // pair queries attempted
  std::size_t proved = 0;       // merges applied (UNSAT queries)
  std::size_t windowProved = 0; // of `proved`, decided in the window
  std::size_t refuted = 0;      // distinguished by a counterexample
  std::size_t undecided = 0;    // budget-tripped, left unmerged
  std::size_t andsBefore = 0;
  std::size_t andsAfter = 0;
  SolverStats solver; // window and shared solvers together
};

struct AigSweepResult {
  aig::Aig aig; // same PI/PO shape as the input
  SweepStats stats;
};

AigSweepResult sweepAig(const aig::Aig& g, const SweepOptions& opts = {});

struct NetlistSweepResult {
  netlist::Netlist netlist;
  SweepStats stats;
};

NetlistSweepResult sweepNetlist(const netlist::Netlist& nl,
                                const SweepOptions& opts = {});

} // namespace lis::sat
