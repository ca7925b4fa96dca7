#pragma once
// sat::Solver — a MiniSat-style CDCL core: two-watched-literal
// propagation with blockers, first-UIP conflict analysis with
// self-subsuming clause minimization, EVSIDS variable activities on an
// indexed binary heap, phase saving, Luby restarts and activity-driven
// learnt-clause deletion. Clauses live in one flat uint32 arena
// (header word + literals); reduceDB tombstones a deleted learnt's header
// and lets propagate() drop its stale watchers lazily.
//
// Level-0 cleanup: once kCleanupUnits new level-0 units have accumulated
// (or kCleanupReleased variables were released, see below), solve() drops
// every original clause satisfied at level 0, compacts the arena in clause
// order, drops dead watchers and relocates the learnt list and the
// reasons of level-0 units. A satisfied clause never propagates or
// conflicts, the surviving watchers keep their order, learnt clauses stay
// (reduceDB ranks them) and a reason still locks its clause, so the search
// is exactly the one without the cleanup.
//
// Variable recycling (MiniSat's releaseVar): releaseVar(l) fixes l at
// level 0 and promises the caller never names var(l) again. The next
// cleanup then also drops the learnt clauses that mention a released
// variable (only those: dropping every satisfied learnt would move the
// search of a solver that releases nothing), strips the released
// variables' false literals from the original clauses it keeps, takes the
// variables off the trail and the decision heap, and hands them to the
// next newVar() calls. PDR retires every temporary clause this way, so a
// solver answering many queries keeps bounded variable arrays, watch
// lists, heap and model copy. A solver that never releases a variable
// searches exactly as before.
//
// The solver is incremental: newVar()/addClause() stay legal between
// solve() calls, and solve(assumptions) answers queries under a set of
// assumed literals without mutating the clause database's meaning.
// After an assumption-UNSAT answer, unsatAssumptions() names the subset
// of assumptions the refutation actually used (the "final" conflict).
//
// Budgets are absolute lifetime totals over stats().conflicts and
// stats().propagations (0 = unlimited); a per-call allowance is
// expressed as `setBudget({stats().conflicts + allowance, ...})`. A
// tripped budget makes solve() return Result::Unknown at top level with
// all state intact, so the caller decides how to degrade.
//
// Determinism: a solve is a pure function of the clause database, the
// assumption vector and the construction seed (the seed perturbs
// initial variable activities to diversify tie-breaks). Nothing reads
// the clock or global state, so results are reproducible at any
// Executor job count. One Solver is confined to one thread; distinct
// solvers share nothing (the obs flush in the destructor goes through
// the registry's own lock).

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace lis::sat {

using Var = std::uint32_t;

/// Literal: 2 * var + sign (sign 1 = negated), mirroring aig::Lit.
using Lit = std::uint32_t;

constexpr Lit kLitUndef = 0xffffffffu;

constexpr Lit mkLit(Var v, bool negated = false) {
  return (v << 1) | (negated ? 1u : 0u);
}
constexpr Var litVar(Lit l) { return l >> 1; }
constexpr bool litSign(Lit l) { return (l & 1u) != 0; }
constexpr Lit litNeg(Lit l) { return l ^ 1u; }

enum class Result : std::uint8_t { Sat, Unsat, Unknown };

const char* resultName(Result r);

/// Absolute lifetime caps (0 = unlimited); see header comment.
struct SolverBudget {
  std::uint64_t maxConflicts = 0;
  std::uint64_t maxPropagations = 0;
};

struct SolverStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;  // literals dequeued from the trail
  std::uint64_t restarts = 0;
  std::uint64_t learnedClauses = 0;
  std::uint64_t learnedLits = 0;   // before minimization
  std::uint64_t minimizedLits = 0; // removed by self-subsumption
  std::uint64_t deletedClauses = 0;
  std::uint64_t solves = 0;
  std::uint64_t cores = 0;    // assumption-UNSAT answers with a final core
  std::uint64_t coreLits = 0; // summed core sizes (mean = coreLits / cores)

  void accumulate(const SolverStats& o) {
    conflicts += o.conflicts;
    decisions += o.decisions;
    propagations += o.propagations;
    restarts += o.restarts;
    learnedClauses += o.learnedClauses;
    learnedLits += o.learnedLits;
    minimizedLits += o.minimizedLits;
    deletedClauses += o.deletedClauses;
    solves += o.solves;
    cores += o.cores;
    coreLits += o.coreLits;
  }
};

class Solver {
public:
  explicit Solver(std::uint64_t seed = 0);
  /// Flushes lifetime sat.* totals to obs::Registry::global().
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// A fresh variable: a recycled one when a cleanup freed some (see
  /// header), otherwise the next index.
  Var newVar();
  /// Variables allocated, the recycled pool included.
  std::size_t numVars() const { return assign_.size(); }
  std::size_t numClauses() const { return numClauses_; }

  /// Fix `l` true at level 0, as addClause({l}) does (a literal already
  /// false makes the formula UNSAT), and recycle var(l) at the next
  /// cleanup; the caller must not name var(l) afterwards (top level only).
  void releaseVar(Lit l);

  /// Add a clause (top level only). Satisfied/tautological clauses are
  /// absorbed; false literals are stripped. Returns false when the
  /// formula is already, or hereby becomes, unsatisfiable at top level.
  bool addClause(std::span<const Lit> lits);
  bool addClause(std::initializer_list<Lit> lits);

  void setBudget(const SolverBudget& b) { budget_ = b; }
  const SolverBudget& budget() const { return budget_; }

  Result solve() { return solve(std::span<const Lit>{}); }
  Result solve(std::span<const Lit> assumptions);
  Result solve(std::initializer_list<Lit> assumptions);

  /// After Result::Sat: value of `l` in the model (vars the search never
  /// assigned default to false).
  bool modelValue(Lit l) const;

  /// After an assumption-driven Result::Unsat: the subset of the
  /// assumptions used by the refutation. Empty when the formula is
  /// unsatisfiable without any assumption.
  const std::vector<Lit>& unsatAssumptions() const { return conflictAssumps_; }

  const SolverStats& stats() const { return stats_; }

  /// False once top-level UNSAT has been established.
  bool okay() const { return ok_; }

private:
  struct Watcher {
    std::uint32_t cref;
    Lit blocker;
  };

  static constexpr std::uint32_t kCRefUndef = 0xffffffffu;
  static constexpr std::uint8_t kFalse = 0, kTrue = 1, kUndef = 2;
  static constexpr std::uint32_t kNoPos = 0xffffffffu;
  /// New level-0 units, or released variables, that trigger the next
  /// level-0 cleanup (see header). Released variables come sooner: each
  /// leaves a dead temporary clause on the watchers until then.
  static constexpr std::size_t kCleanupUnits = 256;
  static constexpr std::size_t kCleanupReleased = 64;

  std::uint8_t valueLit(Lit l) const {
    const std::uint8_t a = assign_[litVar(l)];
    return a == kUndef ? kUndef : static_cast<std::uint8_t>(a ^ (l & 1u));
  }
  std::uint32_t decisionLevel() const {
    return static_cast<std::uint32_t>(trailLim_.size());
  }

  // Arena clause accessors. Header word: size << 2 | deleted << 1 |
  // learnt; learnt clauses carry one float activity word after the
  // header, literals follow.
  std::uint32_t allocClause(std::span<const Lit> lits, bool learnt);
  std::uint32_t clauseSize(std::uint32_t c) const { return arena_[c] >> 2; }
  bool clauseLearnt(std::uint32_t c) const { return (arena_[c] & 1u) != 0; }
  bool clauseDeleted(std::uint32_t c) const { return (arena_[c] & 2u) != 0; }
  Lit* clauseLits(std::uint32_t c) {
    return arena_.data() + c + 1 + (arena_[c] & 1u);
  }
  const Lit* clauseLits(std::uint32_t c) const {
    return arena_.data() + c + 1 + (arena_[c] & 1u);
  }
  std::uint32_t clauseWords(std::uint32_t c) const {
    return 1 + (arena_[c] & 1u) + clauseSize(c);
  }
  float clauseActivity(std::uint32_t c) const;
  void setClauseActivity(std::uint32_t c, float a);
  bool satisfiedAtLevel0(std::uint32_t c) const;
  bool mentionsReleased(std::uint32_t c) const;
  void removeSatisfied();
  void rebuildHeap();

  void attachClause(std::uint32_t cref);
  void uncheckedEnqueue(Lit p, std::uint32_t from = kCRefUndef);
  std::uint32_t propagate();
  void analyze(std::uint32_t confl, std::vector<Lit>& outLearnt,
               std::uint32_t& outBtLevel);
  void analyzeFinal(Lit failedAssump);
  void cancelUntil(std::uint32_t level);
  Lit pickBranchLit();
  Result search(std::uint64_t conflictsAllowed);
  void reduceDB();
  bool locked(std::uint32_t cref) const;
  bool overBudget() const;

  void varBumpActivity(Var v);
  void varDecayActivity();
  void claBumpActivity(std::uint32_t cref);
  void claDecayActivity();

  // Indexed binary max-heap over activity_.
  void heapInsert(Var v);
  Var heapPop();
  void heapUp(std::uint32_t i);
  void heapDown(std::uint32_t i);

  std::vector<std::uint32_t> arena_;
  std::vector<std::uint32_t> learnts_;
  std::vector<std::vector<Watcher>> watches_; // indexed by Lit
  std::vector<std::uint8_t> assign_;          // per var: kFalse/kTrue/kUndef
  std::vector<std::uint8_t> polarity_;        // saved phase (1 = true)
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> reasonOf_;
  std::vector<double> activity_;
  std::vector<Var> heap_;
  std::vector<std::uint32_t> heapPos_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trailLim_;
  std::vector<Lit> assumptions_;
  std::vector<Lit> conflictAssumps_;
  std::vector<Var> toClear_;
  std::vector<std::uint8_t> model_;
  std::vector<Var> released_; // released since the last cleanup
  std::vector<Var> freeVars_; // recycled, handed out by newVar()
  std::size_t qhead_ = 0;
  std::size_t cleanedTrail_ = 0; // level-0 trail size at the last cleanup
  std::size_t numClauses_ = 0;
  std::size_t liveLearnts_ = 0;
  double maxLearnts_ = 0.0;
  double varInc_ = 1.0;
  double claInc_ = 1.0;
  bool ok_ = true;
  bool limitHit_ = false;
  SolverBudget budget_;
  SolverStats stats_;
  support::SplitMix64 rng_;
};

} // namespace lis::sat
