#include "netlist/equiv.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>
#include <vector>

#include "aig/aig.hpp"
#include "netlist/bitsim.hpp"
#include "obs/trace.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "sat/sweep.hpp"
#include "support/rng.hpp"

namespace lis::netlist {

const char* equivMethodName(EquivMethod m) {
  switch (m) {
    case EquivMethod::Sim: return "sim";
    case EquivMethod::Structural: return "structural";
    case EquivMethod::Sat: return "sat";
  }
  return "?";
}

std::string CexReport::format() const {
  std::string s = "output '" + output + "' differs under:";
  for (const auto& [name, value] : inputs) {
    s += ' ';
    s += name;
    s += '=';
    s += value ? '1' : '0';
  }
  return s;
}

EquivResult checkCombEquivalence(const Netlist& a, const Netlist& b,
                                 const EquivOptions& opts) {
  // Match interfaces by name. Each name may appear once per side: equal
  // names are tied to one miter input (or compared as one output pair),
  // so a duplicate would silently merge two distinct ports.
  auto names = [](const Netlist& nl, const std::vector<NodeId>& ids,
                  const char* kind) {
    std::vector<std::string> v;
    v.reserve(ids.size());
    for (NodeId id : ids) v.push_back(nl.node(id).name);
    std::sort(v.begin(), v.end());
    const auto dup = std::adjacent_find(v.begin(), v.end());
    if (dup != v.end()) {
      throw std::invalid_argument("checkCombEquivalence: duplicate " +
                                  std::string(kind) + " name '" + *dup +
                                  "' in " + nl.name());
    }
    return v;
  };
  const std::vector<std::string> inputsA = names(a, a.inputs(), "input");
  const std::vector<std::string> inputsB = names(b, b.inputs(), "input");
  const std::vector<std::string> outputsA = names(a, a.outputs(), "output");
  const std::vector<std::string> outputsB = names(b, b.outputs(), "output");
  if (inputsA != inputsB || outputsA != outputsB) {
    throw std::invalid_argument(
        "checkCombEquivalence: interface name sets differ");
  }
  if (!a.dffs().empty() || !b.dffs().empty()) {
    throw std::invalid_argument("checkCombEquivalence: netlist is sequential");
  }
  std::map<std::string, NodeId> bInputByName;
  for (NodeId id : b.inputs()) bInputByName[b.node(id).name] = id;
  std::map<std::string, NodeId> aOutByName, bOutByName;
  for (NodeId id : a.outputs()) aOutByName[a.node(id).name] = id;
  for (NodeId id : b.outputs()) bOutByName[b.node(id).name] = id;

  // Random sweep over `rounds` rounds of 64*simWords patterns from `seed`.
  // Used both as the cheap phase-1 disprover and, deepened with a fresh
  // seed stream, as the degradation path when the SAT budget trips.
  auto simSweep = [&](unsigned rounds,
                      std::uint64_t seed) -> std::optional<EquivResult> {
    if (opts.simWords == 0 || rounds == 0) return std::nullopt;
    BitSim simA(a, opts.simWords);
    BitSim simB(b, opts.simWords);
    support::SplitMix64 rng(seed);
    for (unsigned round = 0; round < rounds; ++round) {
      for (NodeId ia : a.inputs()) {
        const NodeId ib = bInputByName.at(a.node(ia).name);
        for (unsigned w = 0; w < opts.simWords; ++w) {
          const std::uint64_t lanes = rng.next();
          simA.setInputWord(ia, w, lanes);
          simB.setInputWord(ib, w, lanes);
        }
      }
      simA.settle();
      simB.settle();
      for (const auto& [name, idA] : aOutByName) {
        const NodeId idB = bOutByName.at(name);
        for (unsigned w = 0; w < opts.simWords; ++w) {
          const std::uint64_t diff = simA.word(idA, w) ^ simB.word(idB, w);
          if (diff == 0) continue;
          const std::size_t laneIdx =
              std::size_t{w} * 64 +
              static_cast<unsigned>(std::countr_zero(diff));
          EquivResult result;
          result.equivalent = false;
          result.failingOutput = name;
          // A concrete mismatch is an exact disproof, budget or not.
          result.method = EquivMethod::Sim;
          result.confidence = 1.0;
          CexReport report;
          report.output = name;
          for (const NodeId in : a.inputs()) {
            report.inputs.emplace_back(a.node(in).name,
                                       simA.lane(in, laneIdx));
          }
          result.cex = std::move(report);
          return result;
        }
      }
    }
    return std::nullopt;
  };

  // --- Phase 1: bit-parallel random sweep. Disproving is cheap here; the
  // SAT proof below only runs on designs that survive it.
  if (auto refuted = simSweep(opts.simRounds, opts.seed)) return *refuted;

  // --- Phase 2: SAT sweep of the joint miter. Both netlists are lowered
  // into one AIG over shared name-matched inputs, every output of both a
  // PO. The sweep engine (sat/sweep.hpp) merges proven-equivalent nodes
  // bottom-up, so an equivalent output pair normally ends on one literal;
  // only the pairs that did not are queried, incrementally on one solver
  // over the swept graph, within what the sweep left of the budgets. A
  // SAT answer is an exact counterexample at any width; every pair merged
  // or UNSAT is a proof. A tripped budget falls through to phase 3 with
  // the partial search footprint kept on whatever that returns.
  ProofStats satPartial;
  {
    obs::Span satSpan("sat.equiv");
    satSpan.arg("netlist_a", a.name());
    satSpan.arg("netlist_b", b.name());
    satSpan.arg("outputs", static_cast<double>(a.outputs().size()));
    aig::Aig miter;
    std::map<std::string, aig::Lit> piByName;
    for (NodeId id : a.inputs()) piByName[a.node(id).name] = miter.addPi();
    const auto inputOfA = [&](NodeId id) {
      return piByName.at(a.node(id).name);
    };
    const auto inputOfB = [&](NodeId id) {
      return piByName.at(b.node(id).name);
    };
    for (const aig::Lit l : sat::appendCombinational(miter, a, inputOfA)) {
      miter.addPo(l);
    }
    for (const aig::Lit l : sat::appendCombinational(miter, b, inputOfB)) {
      miter.addPo(l);
    }
    std::map<std::string, std::size_t> bOutPos;
    for (std::size_t j = 0; j < b.outputs().size(); ++j) {
      bOutPos[b.node(b.outputs()[j]).name] = a.outputs().size() + j;
    }

    const support::SplitMix64 seeds(opts.seed);
    sat::SweepOptions sweepOpts;
    sweepOpts.conflictBudget = opts.satConflictBudget;
    sweepOpts.propagationBudget = opts.satPropagationBudget;
    sweepOpts.seed = seeds.forkSeed(2);
    sat::AigSweepResult swept = sat::sweepAig(miter, sweepOpts);
    const sat::SweepStats& sw = swept.stats;
    satSpan.arg("candidates", static_cast<double>(sw.candidates));
    satSpan.arg("window_proved", static_cast<double>(sw.windowProved));
    satSpan.arg("solver_proved",
                static_cast<double>(sw.proved - sw.windowProved));
    satSpan.arg("refuted", static_cast<double>(sw.refuted));
    satSpan.arg("undecided", static_cast<double>(sw.undecided));

    // The residual queries get what the sweep left of the budgets.
    aig::Aig& joint = swept.aig;
    sat::Solver solver(seeds.forkSeed(3));
    const auto left = [](std::uint64_t cap, std::uint64_t used) {
      return cap == 0 ? 0 : cap - std::min(cap, used);
    };
    const std::uint64_t conflictsLeft =
        left(opts.satConflictBudget, sw.solver.conflicts);
    const std::uint64_t propagationsLeft =
        left(opts.satPropagationBudget, sw.solver.propagations);
    const bool exhausted =
        (opts.satConflictBudget != 0 && conflictsLeft == 0) ||
        (opts.satPropagationBudget != 0 && propagationsLeft == 0);
    solver.setBudget({conflictsLeft, propagationsLeft});
    sat::AigCnf cnf(solver, joint);
    std::size_t residual = 0;
    // The whole proof's footprint, also recorded on the span.
    const auto footprint = [&] {
      ProofStats p;
      p.satConflicts = sw.solver.conflicts + solver.stats().conflicts;
      p.satDecisions = sw.solver.decisions + solver.stats().decisions;
      p.satPropagations = sw.solver.propagations + solver.stats().propagations;
      satSpan.arg("residual_queries", static_cast<double>(residual));
      satSpan.arg("conflicts", static_cast<double>(p.satConflicts));
      return p;
    };
    bool unknown = false;
    for (std::size_t i = 0; i < a.outputs().size() && !unknown; ++i) {
      const std::string& name = a.node(a.outputs()[i]).name;
      const aig::Lit la = joint.pos()[i];
      const aig::Lit lb = joint.pos()[bOutPos.at(name)];
      if (la == lb) continue; // merged by the sweep
      ++residual;
      if (exhausted) {
        unknown = true;
        break;
      }
      const sat::Result r = solver.solve({cnf.lit(joint.addXor(la, lb))});
      if (r == sat::Result::Sat) {
        EquivResult result;
        result.equivalent = false;
        result.failingOutput = name;
        result.method = EquivMethod::Sat;
        result.confidence = 1.0;
        CexReport report;
        report.output = name;
        for (std::size_t p = 0; p < a.inputs().size(); ++p) {
          report.inputs.emplace_back(a.node(a.inputs()[p]).name,
                                     solver.modelValue(cnf.piLit(p)));
        }
        result.cex = std::move(report);
        result.proof = footprint();
        return result;
      }
      unknown = r == sat::Result::Unknown;
    }
    satPartial = footprint();
    if (!unknown) {
      EquivResult result;
      result.equivalent = true;
      result.method = EquivMethod::Sat;
      result.proof = satPartial;
      return result;
    }
  }

  // --- Phase 3: SAT budget tripped. Deepen the random screen on a fresh
  // seed stream; either it finds a counterexample (exact disproof) or the
  // designs survive and we return a degraded, honestly-quantified
  // "equivalent". The partial search's footprint is still reported.
  if (auto refuted = simSweep(opts.fallbackSimRounds,
                              support::SplitMix64(opts.seed).forkSeed(1))) {
    refuted->proof = satPartial;
    return *refuted;
  }
  EquivResult result;
  result.equivalent = true;
  result.method = EquivMethod::Sim;
  result.degraded = true;
  // Confidence heuristic: P random patterns that failed to distinguish
  // the designs. Saturates towards 1 but never reaches it — a screen is
  // not a proof. The 256 pivot is arbitrary and documented as such.
  const double patterns = 64.0 * opts.simWords *
                          (double(opts.simRounds) + opts.fallbackSimRounds);
  result.confidence = patterns / (patterns + 256.0);
  result.proof = satPartial;
  return result;
}

} // namespace lis::netlist
