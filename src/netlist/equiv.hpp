#pragma once
// Combinational equivalence checking, as a tiered strategy:
//
//   1. A random-pattern 64-way bit-parallel simulation sweep (BitSim over
//      both netlists with name-matched inputs driven identically). Any
//      mismatching output word immediately yields a concrete counterexample
//      — inequivalent designs are almost always refuted here before the
//      solver is ever built.
//   2. A SAT proof for designs that survive the sweep: both netlists
//      lowered into one AIG over name-matched inputs (the joint miter),
//      SAT-swept bottom up by sat::sweepAig, which merges proven-equal
//      nodes; only the output pairs the sweep left on different literals
//      get an incremental CDCL query. Sweep and queries share one
//      conflict/propagation budget (EquivOptions::satConflictBudget /
//      satPropagationBudget).
//   3. If the budget trips, a deepened random screen instead of a hang:
//      the verdict degrades to method=Sim with an explicit confidence
//      below 1.0 — sound for "inequivalent" (a counterexample is exact),
//      honest about "equivalent" (screened, not proven).
//
// Only valid for purely combinational netlists; sequential designs are
// compared via their combinational envelopes (see seq_equiv) or by
// co-simulation in the test suites.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace lis::netlist {

/// How a verdict was reached. Structural covers the interface/skeleton
/// comparisons of the sequential checker, which never touch functions;
/// Sat is the miter proof behind the sim screen.
enum class EquivMethod : std::uint8_t { Sim, Structural, Sat };
const char* equivMethodName(EquivMethod m);

/// SAT proof footprint, carried on every result (zeros when the miter
/// never ran) and accumulated per design by the flow so proof search
/// pressure is visible in reports.
struct ProofStats {
  std::uint64_t satConflicts = 0;
  std::uint64_t satDecisions = 0;
  std::uint64_t satPropagations = 0;

  void accumulate(const ProofStats& o) {
    satConflicts += o.satConflicts;
    satDecisions += o.satDecisions;
    satPropagations += o.satPropagations;
  }
};

struct EquivOptions {
  /// 64 * simWords random patterns per sweep round. 0 disables the sweep.
  unsigned simWords = 4;
  unsigned simRounds = 4;
  std::uint64_t seed = 0x51f0a11ed5ee7ULL;
  /// Extra sweep rounds (fresh seed stream) run when a SAT budget trips;
  /// the verdict is then a degraded screen.
  unsigned fallbackSimRounds = 64;
  /// SAT budgets: absolute conflict/propagation totals over the whole
  /// proof (sweep and output queries), 0 = unlimited.
  std::uint64_t satConflictBudget = std::uint64_t{1} << 22;
  std::uint64_t satPropagationBudget = 0;
};

/// A counterexample as named input values, filled by whichever tier
/// refuted (sim lane or SAT model), at any interface width.
struct CexReport {
  std::string output;                               // mismatching PO pair
  std::vector<std::pair<std::string, bool>> inputs; // name -> value
  std::string format() const;
};

struct EquivResult {
  bool equivalent = false;
  /// Name of the first mismatching output, when not equivalent.
  std::string failingOutput;
  /// The distinguishing input assignment (inputs in `a`'s order), set by
  /// every tier that refutes.
  std::optional<CexReport> cex;
  /// How the verdict was reached, and how much to trust it: a refutation
  /// is Sim when a simulation sweep found it and Sat when it is a SAT
  /// model. A completed SAT proof or any concrete counterexample has
  /// confidence 1; a budget-degraded "equivalent" is a screen, reported with
  /// degraded=true and a confidence strictly below 1 derived from the
  /// number of random patterns that failed to distinguish the designs.
  EquivMethod method = EquivMethod::Sat;
  double confidence = 1.0;
  bool degraded = false;
  ProofStats proof;
};

/// Check that two combinational netlists with identical input/output name
/// sets compute the same functions. Throws std::invalid_argument if the
/// interfaces differ, a netlist names two inputs or two outputs alike, or
/// either netlist has registers. Any interface width is proven the same
/// way (sim sweep + SAT miter).
EquivResult checkCombEquivalence(const Netlist& a, const Netlist& b,
                                 const EquivOptions& opts = {});

} // namespace lis::netlist
