#include "sat/pdr.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "netlist/buses.hpp"
#include "lis/lockstep.hpp"
#include "obs/trace.hpp"

namespace lis::sat {

namespace {

using netlist::BusBuilder;
using netlist::Netlist;
using netlist::NodeId;

// ---------------------------------------------------------------------------
// Unbounded-proof monitor
//
// Unlike the BMC monitor's horizon-sized token counters (which wrap past
// the unrolling depth), every (input, output) channel pair carries one
// saturating difference register, offset-encoded so
//   o = accepted_i - delivered_j + (B+1)  clamped to [0, 2B+2].
// While both invariants hold, o never touches a rail, updates are ±1 per
// cycle and clamping only engages *at* a rail — so the first rail hit of
// either kind is cycle-exact, which is all a G-property proof needs.
// (Past the first violation the clamped registers diverge from the true
// difference; counterexample traces are therefore cross-validated by the
// exact-arithmetic cosim replay below.)

struct Monitor {
  Netlist nl;
  NodeId tokenOut = netlist::kNoNode;
  NodeId occOut = netlist::kNoNode;
  NodeId wdOut = netlist::kNoNode;
  std::vector<ForcedInput> maximalEnv; // inValid := 1, outStop := 0
};

Monitor buildUnboundedMonitor(const Netlist& base, const sync::PortView& ports,
                              unsigned bound, unsigned watchdogWindow) {
  Monitor mon;
  mon.nl = base; // node ids in `ports` stay valid in the copy
  Netlist& m = mon.nl;
  // Offset register per (accept, deliver) pair: o = 1 + (acc - del),
  // clamped to [0, rail]. Reset (acc = del = 0) is o == 1, one step
  // above the token rail: the first delivery in excess of acceptances
  // drives o to 0 immediately, so the token proof only has to show the
  // band's bottom edge is unreachable rather than walk a counter B+1
  // steps. The occupancy rail sits at o == bound + 2, i.e. acc - del ==
  // bound + 1 — the first cycle the buffer bound is actually exceeded.
  const unsigned rail = bound + 2;
  const unsigned w = BusBuilder::bitsFor(rail);

  const auto sig = [&](NodeId id) {
    return m.node(id).op == netlist::Op::Output ? m.node(id).fanin[0] : id;
  };
  // a + c mod 2^w over an LSB-first bus, constant c (no widening — the
  // saturation muxes keep the value in range, so a wrap is never latched).
  const auto addConstMod = [&](const std::vector<NodeId>& a, std::uint64_t c) {
    std::vector<NodeId> sum(a.size());
    NodeId carry = m.constant(false);
    for (std::size_t i = 0; i < a.size(); i++) {
      const bool ci = ((c >> i) & 1u) != 0;
      if (ci) {
        sum[i] = m.mkNot(m.mkXor(a[i], carry));
        carry = m.mkOr(a[i], carry);
      } else {
        sum[i] = m.mkXor(a[i], carry);
        carry = m.mkAnd(a[i], carry);
      }
    }
    return sum;
  };
  const auto eqConst = [&](const std::vector<NodeId>& a, std::uint64_t c) {
    NodeId eq = m.constant(true);
    for (std::size_t i = 0; i < a.size(); i++) {
      const bool ci = ((c >> i) & 1u) != 0;
      eq = m.mkAnd(eq, ci ? a[i] : m.mkNot(a[i]));
    }
    return eq;
  };

  std::vector<NodeId> accepted, delivered;
  for (std::size_t i = 0; i < ports.inValid.size(); i++) {
    accepted.push_back(
        m.mkAnd(ports.inValid[i], m.mkNot(sig(ports.inStop[i]))));
  }
  for (std::size_t j = 0; j < ports.outValid.size(); j++) {
    delivered.push_back(
        m.mkAnd(sig(ports.outValid[j]), m.mkNot(ports.outStop[j])));
  }
  // A channel-less side still has well-defined semantics (any delivery
  // is then unbacked): pair against a never-firing event.
  if (accepted.empty()) accepted.push_back(m.constant(false));
  if (delivered.empty()) delivered.push_back(m.constant(false));

  // One saturating offset register per (accept, deliver) pair; returns
  // its two rail flags {atZero, atRail}.
  const auto satDiff = [&](NodeId accEv, NodeId delEv) {
    std::vector<NodeId> q(w);
    for (unsigned b = 0; b < w; b++) {
      q[b] = m.mkDff(m.constant(false), netlist::kNoNode, b == 0);
    }
    const NodeId atZero = eqConst(q, 0);
    const NodeId atRail = eqConst(q, rail);
    const NodeId up =
        m.mkAnd(m.mkAnd(accEv, m.mkNot(delEv)), m.mkNot(atRail));
    const NodeId down =
        m.mkAnd(m.mkAnd(delEv, m.mkNot(accEv)), m.mkNot(atZero));
    const std::vector<NodeId> inc = addConstMod(q, 1);
    const std::vector<NodeId> dec =
        addConstMod(q, (std::uint64_t{1} << w) - 1); // two's-complement -1
    for (unsigned b = 0; b < w; b++) {
      m.setDffInputs(q[b],
                     m.mkMux(down, m.mkMux(up, q[b], inc[b]), dec[b]));
    }
    return std::pair<NodeId, NodeId>{atZero, atRail};
  };

  std::vector<std::vector<NodeId>> atZero(accepted.size()),
      atRailF(accepted.size());
  for (std::size_t i = 0; i < accepted.size(); i++) {
    for (std::size_t j = 0; j < delivered.size(); j++) {
      const auto [z, r] = satDiff(accepted[i], delivered[j]);
      atZero[i].push_back(z);
      atRailF[i].push_back(r);
    }
  }

  // token conservation: some output delivered more tokens than *every*
  // input has accepted.
  std::vector<NodeId> tokenTerms;
  for (std::size_t j = 0; j < delivered.size(); j++) {
    std::vector<NodeId> all;
    for (std::size_t i = 0; i < accepted.size(); i++) {
      all.push_back(atZero[i][j]);
    }
    tokenTerms.push_back(m.andTree(all));
  }
  mon.tokenOut = m.addOutput("__pdr_token_fail", m.orTree(tokenTerms));

  // buffer occupancy: some input out-ran *every* output by more than B.
  std::vector<NodeId> occTerms;
  for (std::size_t i = 0; i < accepted.size(); i++) {
    occTerms.push_back(m.andTree(atRailF[i]));
  }
  mon.occOut = m.addOutput("__pdr_occupancy_fail", m.orTree(occTerms));

  // deadlock watchdog: saturating consecutive-stall counter, identical
  // to the BMC monitor's (already finite-state).
  const unsigned window = std::max(1u, watchdogWindow);
  const unsigned ww = BusBuilder::bitsFor(window);
  std::vector<NodeId> events;
  for (std::size_t i = 0; i < ports.inValid.size(); i++) {
    events.push_back(
        m.mkAnd(ports.inValid[i], m.mkNot(sig(ports.inStop[i]))));
  }
  for (std::size_t j = 0; j < ports.outValid.size(); j++) {
    events.push_back(
        m.mkAnd(sig(ports.outValid[j]), m.mkNot(ports.outStop[j])));
  }
  if (events.empty()) events.push_back(m.constant(false));
  const NodeId stall = m.mkNot(m.orTree(events));
  std::vector<NodeId> cnt(ww);
  for (unsigned i = 0; i < ww; i++) cnt[i] = m.mkDff(m.constant(false));
  const NodeId atW = eqConst(cnt, window);
  std::vector<NodeId> wq(cnt);
  const std::vector<NodeId> winc = addConstMod(wq, 1);
  for (unsigned i = 0; i < ww; i++) {
    const NodeId wBit = m.constant(((window >> i) & 1u) != 0);
    m.setDffInputs(cnt[i], m.mkAnd(stall, m.mkMux(atW, winc[i], wBit)));
  }
  mon.wdOut = m.addOutput("__pdr_watchdog_fail", atW);

  for (const NodeId v : ports.inValid) mon.maximalEnv.push_back({v, true});
  for (const NodeId s : ports.outStop) mon.maximalEnv.push_back({s, false});
  return mon;
}

// ---------------------------------------------------------------------------
// Engine

/// A state cube: sorted (dffIndex << 1 | value) entries. Fewer literals
/// = a bigger cube = a stronger blocking clause.
using Cube = std::vector<std::uint32_t>;

constexpr std::uint32_t cubeIdx(std::uint32_t e) { return e >> 1; }
constexpr bool cubeVal(std::uint32_t e) { return (e & 1u) != 0; }

/// d subsumes c as a blocking clause iff d's literals are a subset of
/// c's (both sorted).
bool subsumes(const Cube& d, const Cube& c) {
  std::size_t i = 0;
  for (const std::uint32_t e : d) {
    while (i < c.size() && c[i] < e) i++;
    if (i == c.size() || c[i] != e) return false;
    i++;
  }
  return true;
}

struct Obligation {
  Cube cube;
  unsigned frame = 0;
  std::size_t parent = SIZE_MAX;  // successor toward the bad state
  std::vector<bool> inputs;       // inputs driving cube -> parent (root:
                                  // inputs making bad fire in cube)
  std::uint64_t seq = 0;
};

class Engine {
public:
  Engine(const aig::SequentialAig& sa, NodeId badOut,
         std::vector<ForcedInput> forced, const PdrOptions& opts,
         SolverStats& statsOut)
      : sa_(sa), badOut_(badOut), forced_(std::move(forced)), opts_(opts),
        statsOut_(statsOut) {
    const Netlist& nl = *sa_.source;
    for (const NodeId id : nl.inputs()) {
      bool isForced = false;
      for (const ForcedInput& f : forced_) isForced |= f.input == id;
      if (!isForced) freeInputs_.push_back(id);
    }
    const auto& dffs = nl.dffs();
    reset_.reserve(dffs.size());
    for (const NodeId d : dffs) reset_.push_back(nl.node(d).resetValue);
  }

  PdrPropertyResult run() {
    result_.trace.inputs = freeInputs_;
    if (runInduction()) return result_;
    runPdr();
    return result_;
  }

private:
  struct Stop {}; // budget / cancellation / frame-cap unwind

  bool cancelled() const {
    return opts_.cancel != nullptr && opts_.cancel->cancelled();
  }

  static Lit onLit(Lit base, bool value) {
    return value ? base : litNeg(base);
  }

  std::vector<bool> modelInputs(const Solver& solver, const Unroller& unr,
                                unsigned frame) const {
    std::vector<bool> vals;
    vals.reserve(freeInputs_.size());
    for (const NodeId id : freeInputs_) {
      vals.push_back(solver.modelValue(unr.inputLit(frame, id)));
    }
    return vals;
  }

  // --- k-induction rung --------------------------------------------------
  // Returns true when the property is decided (proved / violated /
  // degraded); false hands over to PDR with the base-case bound kept.

  bool runInduction() {
    Solver base(opts_.seed);
    base.setBudget({opts_.conflictBudget, opts_.propagationBudget});
    Unroller bu(base, sa_, forced_);
    Solver step(opts_.seed);
    step.setBudget({opts_.conflictBudget, opts_.propagationBudget});
    Unroller su(step, sa_, forced_, /*freeInitialState=*/true);
    bool decided = false;
    for (unsigned k = 0; k <= opts_.maxInductionK && !decided; k++) {
      if (cancelled()) {
        result_.degraded = true;
        result_.method = "bmc";
        decided = true;
        break;
      }
      // Base case: plain BMC at depth k (a SAT answer is a real
      // counterexample with its exact depth).
      {
        obs::Span frameSpan("sat.bmc.frame");
        frameSpan.arg("depth", static_cast<double>(k));
        bu.pushFrame();
        const Result r = base.solve({bu.outputLit(k, badOut_)});
        if (r == Result::Sat) {
          result_.violated = true;
          result_.method = "bmc";
          result_.failDepth = k;
          for (unsigned f = 0; f <= k; f++) {
            result_.trace.frames.push_back(modelInputs(base, bu, f));
          }
          decided = true;
        } else if (r == Result::Unknown) {
          result_.degraded = true;
          result_.method = "bmc";
          decided = true;
        } else {
          result_.depthReached = k;
        }
      }
      if (decided) break;
      // Inductive step at k: free initial state, ¬bad on frames 0..k-1
      // (permanent units — they only strengthen as k grows), pairwise
      // loop-free constraints over states 0..k, bad queried at frame k.
      su.pushFrame(); // frames 0..k now exist
      if (k >= 1) {
        step.addClause({litNeg(su.outputLit(k - 1, badOut_))});
        addDistinctness(step, su, k);
      }
      const Result r = step.solve({su.outputLit(k, badOut_)});
      if (r == Result::Unsat) {
        result_.provedUnbounded = true;
        result_.method = "induction";
        result_.inductionK = k;
        decided = true;
      } else if (r == Result::Unknown) {
        result_.degraded = true;
        result_.method = "bmc";
        decided = true;
      }
    }
    statsOut_.accumulate(base.stats());
    statsOut_.accumulate(step.stats());
    PdrQueryWork& work = result_.engine.at(PdrQuery::Induction);
    work.solves = base.stats().solves + step.stats().solves;
    work.propagations = base.stats().propagations + step.stats().propagations;
    spentConflicts_ = base.stats().conflicts + step.stats().conflicts;
    spentProps_ = base.stats().propagations + step.stats().propagations;
    return decided;
  }

  /// Loop-free constraint: state `k` differs from each earlier state in
  /// at least one bit. Literal-identical state vectors make the clause
  /// empty — then every k-path revisits a state, the recurrence diameter
  /// is below k, and the (already clean) base case covers all of
  /// reachability, so the resulting top-level UNSAT is a sound proof.
  void addDistinctness(Solver& step, const Unroller& su, unsigned k) {
    for (unsigned a = 0; a < k; a++) {
      std::vector<Lit> diff;
      bool alwaysDistinct = false;
      for (std::size_t j = 0; j < su.numDffs() && !alwaysDistinct; j++) {
        const Lit la = su.stateLit(a, j);
        const Lit lb = su.stateLit(k, j);
        if (la == lb) continue;
        if (la == litNeg(lb)) {
          alwaysDistinct = true;
          break;
        }
        const Lit x = mkLit(step.newVar(), false);
        step.addClause({litNeg(x), la, lb});
        step.addClause({litNeg(x), litNeg(la), litNeg(lb)});
        diff.push_back(x);
      }
      if (!alwaysDistinct) step.addClause(diff);
    }
  }

  // --- PDR/IC3 rung ------------------------------------------------------

  void runPdr() {
    Solver solver(opts_.seed);
    const std::uint64_t confl =
        opts_.conflictBudget == 0
            ? 0
            : (opts_.conflictBudget > spentConflicts_
                   ? opts_.conflictBudget - spentConflicts_
                   : 1);
    const std::uint64_t props =
        opts_.propagationBudget == 0
            ? 0
            : (opts_.propagationBudget > spentProps_
                   ? opts_.propagationBudget - spentProps_
                   : 1);
    solver.setBudget({confl, props});
    solver_ = &solver;
    Unroller tr(solver, sa_, forced_, /*freeInitialState=*/true);
    tr_ = &tr;
    tr.pushFrame();
    badLit_ = tr.outputLit(0, badOut_);
    frames_.assign(2, {});  // index 0 unused (F_0 = init); F_1 live
    act_.assign(2, kLitUndef);
    act_[1] = mkLit(solver.newVar(), false);
    unsigned top = 1;

    try {
      for (;;) {
        // Clear every bad state out of F_top.
        {
          obs::Span frameSpan("sat.pdr.frame");
          frameSpan.arg("frame", static_cast<double>(top));
          for (;;) {
            if (cancelled()) throw Stop{};
            std::vector<Lit> assumps = frameAssumps(top);
            assumps.push_back(badLit_);
            const Result r = solver.solve(assumps);
            charge(PdrQuery::Frame);
            if (r == Result::Unknown) throw Stop{};
            if (r == Result::Unsat) break;
            Obligation root;
            root.inputs = modelInputs(solver, tr, 0);
            root.frame = top;
            const Lit badTarget[] = {badLit_};
            root.cube = liftModelState(badTarget);
            if (!blockObligations(std::move(root), top)) {
              finishPdr(top);
              return; // violated; trace assembled
            }
          }
          frameSpan.arg("clauses", static_cast<double>(liveClauses()));
        }
        // No counterexample of length <= top exists (every F_k with
        // k <= top was cleared while it was the top frame).
        if (result_.depthReached < top) result_.depthReached = top;
        if (top == opts_.maxFrames) throw Stop{};
        top++;
        ensureFrame(top);
        // Push phase: propagate clauses forward; an emptied delta means
        // F_k == F_{k+1} — an inductive invariant excluding bad.
        obs::Span pushSpan("sat.pdr.push");
        pushSpan.arg("frame", static_cast<double>(top));
        for (unsigned k = 1; k < top; k++) {
          const std::vector<Cube> snapshot = frames_[k];
          for (const Cube& c : snapshot) {
            if (cancelled()) throw Stop{};
            std::vector<Lit> assumps = frameAssumps(k);
            for (const std::uint32_t e : c) {
              assumps.push_back(
                  onLit(tr.stateLit(1, cubeIdx(e)), cubeVal(e)));
            }
            const Result r = solver.solve(assumps);
            charge(PdrQuery::Push);
            if (r == Result::Unknown) throw Stop{};
            if (r == Result::Unsat) {
              moveCube(c, k, k + 1);
              result_.engine.pushedClauses++;
            }
          }
          if (frames_[k].empty()) {
            result_.provedUnbounded = true;
            result_.method = "pdr";
            finishPdr(top);
            return;
          }
        }
      }
    } catch (const Stop&) {
      result_.degraded = true;
      if (result_.method.empty()) result_.method = "pdr";
      finishPdr(top);
    }
  }

  void finishPdr(unsigned top) {
    result_.frames = top;
    result_.clauses = liveClauses();
    if (!result_.provedUnbounded && result_.method.empty()) {
      result_.method = "pdr";
    }
    charge(lastQuery_); // whatever the last query left uncharged
    statsOut_.accumulate(solver_->stats());
    solver_ = nullptr;
    tr_ = nullptr;
  }

  /// Charge the PDR solver's work since the previous charge to query kind
  /// `q` (see PdrEngineStats::work).
  void charge(PdrQuery q) {
    const SolverStats& s = solver_->stats();
    PdrQueryWork& work = result_.engine.at(q);
    work.solves += s.solves - charged_.solves;
    work.propagations += s.propagations - charged_.propagations;
    charged_ = {s.solves, s.propagations};
    lastQuery_ = q;
  }

  unsigned liveClauses() const {
    unsigned n = 0;
    for (const auto& f : frames_) n += static_cast<unsigned>(f.size());
    return n;
  }

  void ensureFrame(unsigned k) {
    while (act_.size() <= k) {
      act_.push_back(mkLit(solver_->newVar(), false));
      frames_.emplace_back();
    }
  }

  /// Assumptions selecting F_k: activate every frame literal at or
  /// above k, *deactivate* the rest (leaving them free would let the
  /// solver impose stronger frames and turn a genuine SAT into UNSAT).
  std::vector<Lit> frameAssumps(unsigned k) const {
    std::vector<Lit> assumps;
    assumps.reserve(act_.size() - 1);
    for (unsigned j = 1; j < act_.size(); j++) {
      assumps.push_back(j >= k ? act_[j] : litNeg(act_[j]));
    }
    return assumps;
  }

  std::vector<Lit> initAssumps() const {
    std::vector<Lit> assumps;
    assumps.reserve(reset_.size());
    for (std::size_t j = 0; j < reset_.size(); j++) {
      assumps.push_back(onLit(tr_->stateLit(0, j), reset_[j]));
    }
    // The frame activations still need pinning off: their clauses
    // constrain the same current-state variables.
    for (unsigned j = 1; j < act_.size(); j++) {
      assumps.push_back(litNeg(act_[j]));
    }
    return assumps;
  }

  /// Shrink the current model's frame-0 state to the literals the
  /// transition actually needs to drive the successor into `target` (a
  /// conjunction of solver literals: a cube's primed literals, or the
  /// bad output). The lift query assumes the model's inputs and full
  /// state and forbids the target through a temporary clause — the
  /// transition function is deterministic, so it is UNSAT and its core
  /// names the necessary state bits. Every state in the lifted cube
  /// reaches `target` under the same inputs, which is what keeps
  /// counterexample chains concretely replayable. Falls back to the
  /// full model cube on a budget trip (sound, just weaker).
  Cube liftModelState(std::span<const Lit> target) {
    std::vector<bool> sVal(reset_.size());
    for (std::size_t j = 0; j < reset_.size(); j++) {
      sVal[j] = solver_->modelValue(tr_->stateLit(0, j));
    }
    std::vector<bool> iVal;
    iVal.reserve(freeInputs_.size());
    for (const NodeId id : freeInputs_) {
      iVal.push_back(solver_->modelValue(tr_->inputLit(0, id)));
    }

    const Lit u = mkLit(solver_->newVar(), false);
    std::vector<Lit> notTarget;
    notTarget.push_back(litNeg(u));
    for (const Lit l : target) notTarget.push_back(litNeg(l));
    solver_->addClause(notTarget);

    std::vector<Lit> assumps;
    for (unsigned j = 1; j < act_.size(); j++) {
      assumps.push_back(litNeg(act_[j]));
    }
    assumps.push_back(u);
    for (std::size_t i = 0; i < freeInputs_.size(); i++) {
      assumps.push_back(onLit(tr_->inputLit(0, freeInputs_[i]), iVal[i]));
    }
    const std::size_t first = assumps.size();
    for (std::size_t j = 0; j < reset_.size(); j++) {
      assumps.push_back(onLit(tr_->stateLit(0, j), sVal[j]));
    }
    const Result r = solver_->solve(assumps);
    Cube c;
    if (r == Result::Unsat) {
      const std::unordered_set<Lit> core(solver_->unsatAssumptions().begin(),
                                         solver_->unsatAssumptions().end());
      for (std::size_t j = 0; j < reset_.size(); j++) {
        if (core.count(assumps[first + j]) != 0) {
          c.push_back(static_cast<std::uint32_t>(j) << 1 |
                      (sVal[j] ? 1u : 0u));
        }
      }
      result_.engine.liftedLits += reset_.size() - c.size();
    } else {
      for (std::size_t j = 0; j < reset_.size(); j++) {
        c.push_back(static_cast<std::uint32_t>(j) << 1 |
                    (sVal[j] ? 1u : 0u));
      }
    }
    solver_->addClause({litNeg(u)});
    charge(PdrQuery::Lift);
    return c;
  }

  /// Cube consistent with the (complete) initial state — i.e. blocking
  /// it would exclude init, and a concrete obligation cube equal to it
  /// is the start of a real counterexample path.
  bool intersectsInit(const Cube& c) const {
    for (const std::uint32_t e : c) {
      if (cubeVal(e) != reset_[cubeIdx(e)]) return false;
    }
    return true;
  }

  bool isBlocked(const Cube& c, unsigned k) const {
    for (std::size_t j = k; j < frames_.size(); j++) {
      for (const Cube& d : frames_[j]) {
        if (subsumes(d, c)) return true;
      }
    }
    return false;
  }

  /// One consecution query: SAT(F_{k-1} ∧ ¬c ∧ T ∧ c'), charged to
  /// `kind`. Returns the solver result; on UNSAT fills `core` with the
  /// subset of c's literal positions the refutation used.
  Result consecution(PdrQuery kind, const Cube& c, unsigned k,
                     std::vector<bool>* core) {
    // Temporary activation for the ¬c clause, retired permanently after
    // the query (and its MIC follow-ups) by a unit clause.
    const Lit t = mkLit(solver_->newVar(), false);
    std::vector<Lit> notC;
    notC.push_back(litNeg(t));
    for (const std::uint32_t e : c) {
      notC.push_back(litNeg(onLit(tr_->stateLit(0, cubeIdx(e)), cubeVal(e))));
    }
    solver_->addClause(notC);

    std::vector<Lit> assumps =
        k - 1 == 0 ? initAssumps() : frameAssumps(k - 1);
    assumps.push_back(t);
    const std::size_t first = assumps.size();
    for (const std::uint32_t e : c) {
      assumps.push_back(onLit(tr_->stateLit(1, cubeIdx(e)), cubeVal(e)));
    }
    const Result r = solver_->solve(assumps);
    if (r == Result::Unsat && core != nullptr) {
      core->assign(c.size(), false);
      std::unordered_map<Lit, std::vector<std::size_t>> posOf;
      for (std::size_t i = 0; i < c.size(); i++) {
        posOf[assumps[first + i]].push_back(i);
      }
      for (const Lit l : solver_->unsatAssumptions()) {
        const auto it = posOf.find(l);
        if (it == posOf.end()) continue;
        for (const std::size_t i : it->second) (*core)[i] = true;
      }
    }
    solver_->addClause({litNeg(t)});
    charge(kind);
    return r;
  }

  /// Shrink a just-blocked cube: keep the unsat-core literals (re-adding
  /// one init-contradicting literal if the core lost them all), then try
  /// dropping surviving literals one at a time, re-checking consecution.
  Cube generalize(const Cube& c, unsigned k, const std::vector<bool>& core) {
    Cube g;
    for (std::size_t i = 0; i < c.size(); i++) {
      if (core[i]) g.push_back(c[i]);
    }
    result_.engine.coreShrunkLits += c.size() - g.size();
    if (g.empty() || intersectsInit(g)) {
      for (const std::uint32_t e : c) {
        if (cubeVal(e) != reset_[cubeIdx(e)]) {
          g.insert(std::lower_bound(g.begin(), g.end(), e), e);
          break;
        }
      }
    }
    unsigned attempts = 0;
    for (std::size_t i = 0; i < g.size() && attempts < opts_.micAttempts;) {
      Cube cand = g;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      if (cand.empty() || intersectsInit(cand)) {
        i++;
        continue;
      }
      attempts++;
      std::vector<bool> core2;
      if (consecution(PdrQuery::Mic, cand, k, &core2) == Result::Unsat) {
        Cube g2;
        for (std::size_t p = 0; p < cand.size(); p++) {
          if (core2[p]) g2.push_back(cand[p]);
        }
        if (g2.empty() || intersectsInit(g2)) g2 = std::move(cand);
        result_.engine.micDroppedLits += g.size() - g2.size();
        g = std::move(g2);
        i = 0; // positions shifted; restart scan over the smaller cube
      } else {
        i++;
      }
    }
    return g;
  }

  void addBlockedCube(Cube g, unsigned j) {
    // Drop cubes the new clause subsumes anywhere it is active.
    for (std::size_t lvl = 1; lvl <= j && lvl < frames_.size(); lvl++) {
      auto& fs = frames_[lvl];
      fs.erase(std::remove_if(
                   fs.begin(), fs.end(),
                   [&](const Cube& d) { return d != g && subsumes(g, d); }),
               fs.end());
    }
    std::vector<Lit> clause;
    clause.push_back(litNeg(act_[j]));
    for (const std::uint32_t e : g) {
      clause.push_back(
          litNeg(onLit(tr_->stateLit(0, cubeIdx(e)), cubeVal(e))));
    }
    solver_->addClause(clause);
    frames_[j].push_back(std::move(g));
    result_.engine.cubesBlocked++;
  }

  void moveCube(const Cube& c, unsigned from, unsigned to) {
    ensureFrame(to);
    auto& fs = frames_[from];
    const auto it = std::find(fs.begin(), fs.end(), c);
    if (it != fs.end()) fs.erase(it);
    std::vector<Lit> clause;
    clause.push_back(litNeg(act_[to]));
    for (const std::uint32_t e : c) {
      clause.push_back(
          litNeg(onLit(tr_->stateLit(0, cubeIdx(e)), cubeVal(e))));
    }
    solver_->addClause(clause);
    frames_[to].push_back(c);
  }

  /// Discharge the obligation queue rooted at `root`. Returns false when
  /// a concrete path from init to bad is found (the violated result is
  /// filled in), true when every obligation is blocked.
  bool blockObligations(Obligation root, unsigned top) {
    std::vector<Obligation> pool;
    // Min-heap on (frame, seq): deepest-toward-init first, FIFO within
    // a frame — deterministic at any job count.
    const auto higher = [&pool](std::size_t a, std::size_t b) {
      if (pool[a].frame != pool[b].frame) {
        return pool[a].frame > pool[b].frame;
      }
      return pool[a].seq > pool[b].seq;
    };
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        decltype(higher)>
        heap(higher);
    std::uint64_t seq = 0;
    root.seq = seq++;
    pool.push_back(std::move(root));
    heap.push(0);
    while (!heap.empty()) {
      if (cancelled() || pool.size() > (1u << 20)) throw Stop{};
      const std::size_t oi = heap.top();
      heap.pop();
      const unsigned frame = pool[oi].frame;
      if (intersectsInit(pool[oi].cube)) {
        assembleTrace(pool, oi);
        return false;
      }
      if (isBlocked(pool[oi].cube, frame)) continue;
      result_.engine.obligations++;
      std::vector<bool> core;
      const Result r =
          consecution(PdrQuery::Consecution, pool[oi].cube, frame, &core);
      if (r == Result::Unknown) throw Stop{};
      if (r == Result::Sat) {
        // Predecessor in F_{frame-1}; for frame 1 the init assumptions
        // make it the initial state itself, caught at its dequeue.
        Obligation pred;
        pred.inputs = modelInputs(*solver_, *tr_, 0);
        std::vector<Lit> target;
        target.reserve(pool[oi].cube.size());
        for (const std::uint32_t e : pool[oi].cube) {
          target.push_back(onLit(tr_->stateLit(1, cubeIdx(e)), cubeVal(e)));
        }
        pred.cube = liftModelState(target);
        pred.frame = frame - 1;
        pred.parent = oi;
        pred.seq = seq++;
        pool.push_back(std::move(pred));
        heap.push(pool.size() - 1);
        heap.push(oi); // retry once the predecessor is dealt with
        continue;
      }
      Cube g = generalize(pool[oi].cube, frame, core);
      // Push the learned clause as far forward as it stays inductive.
      unsigned j = frame;
      while (j < top) {
        if (consecution(PdrQuery::Forward, g, j + 1, nullptr) !=
            Result::Unsat) {
          break;
        }
        j++;
      }
      addBlockedCube(std::move(g), j);
      if (j < top) {
        // Reschedule: the same concrete state must also be excluded
        // from the next frame up (finds deep counterexamples early).
        pool[oi].frame = j + 1;
        pool[oi].seq = seq++;
        heap.push(oi);
      }
    }
    return true;
  }

  void assembleTrace(const std::vector<Obligation>& pool, std::size_t from) {
    result_.violated = true;
    result_.method = "pdr";
    auto& frames = result_.trace.frames;
    frames.clear();
    for (std::size_t i = from; i != SIZE_MAX; i = pool[i].parent) {
      frames.push_back(pool[i].inputs);
    }
    result_.failDepth = static_cast<unsigned>(frames.size()) - 1;
  }

  const aig::SequentialAig& sa_;
  NodeId badOut_;
  std::vector<ForcedInput> forced_;
  const PdrOptions& opts_;
  SolverStats& statsOut_;
  std::vector<NodeId> freeInputs_;
  std::vector<bool> reset_; // per DFF index
  PdrPropertyResult result_;
  std::uint64_t spentConflicts_ = 0;
  std::uint64_t spentProps_ = 0;

  // PDR state (valid during runPdr only).
  Solver* solver_ = nullptr;
  PdrQueryWork charged_;                 // solver totals at the last charge
  PdrQuery lastQuery_ = PdrQuery::Frame;
  Unroller* tr_ = nullptr;
  Lit badLit_ = kLitUndef;
  std::vector<std::vector<Cube>> frames_; // delta encoding: level k only
  std::vector<Lit> act_;                  // frame activation literals
};

} // namespace

const char* pdrQueryName(PdrQuery q) {
  switch (q) {
    case PdrQuery::Induction: return "induction";
    case PdrQuery::Frame: return "frame";
    case PdrQuery::Lift: return "lift";
    case PdrQuery::Consecution: return "consecution";
    case PdrQuery::Mic: return "mic";
    case PdrQuery::Forward: return "forward";
    case PdrQuery::Push: return "push";
  }
  return "?";
}

PdrPropertyResult provePropertyUnbounded(const netlist::Netlist& nl,
                                         netlist::NodeId badOutput,
                                         std::vector<ForcedInput> forced,
                                         const PdrOptions& opts,
                                         SolverStats& statsOut) {
  const NodeId roots[] = {badOutput};
  const ConeAig model(nl, roots, forced);
  PdrPropertyResult r = Engine(model.sa, model.cone.toCone[badOutput],
                               model.forced, opts, statsOut)
                            .run();
  for (NodeId& id : r.trace.inputs) id = model.cone.toSource[id];
  r.trace.forced = std::move(forced);
  r.coneDffs = static_cast<unsigned>(model.cone.netlist.dffs().size());
  return r;
}

PdrResult proveUnbounded(const netlist::Netlist& nl,
                         const sync::PortView& ports,
                         const PdrOptions& opts) {
  obs::Span span("sat.pdr");
  span.arg("capacity_bound", static_cast<double>(opts.capacityBound));
  const Monitor mon =
      buildUnboundedMonitor(nl, ports, opts.capacityBound,
                            opts.watchdogWindow);

  struct Property {
    const char* name;
    NodeId out;
    std::vector<ForcedInput> forced;
  };
  std::vector<Property> props;
  if (opts.tokenConservation) {
    props.push_back({"token_conservation", mon.tokenOut, {}});
  }
  if (opts.occupancyBound) props.push_back({"occupancy_bound", mon.occOut, {}});
  if (opts.deadlockWatchdog) {
    props.push_back({"deadlock_watchdog", mon.wdOut, mon.maximalEnv});
  }

  // Each property writes only its own slots; the join below is in
  // property order, whatever order the runner ran them in.
  PdrResult result;
  result.properties.resize(props.size());
  std::vector<SolverStats> stats(props.size());
  const auto prove = [&](std::size_t i) {
    obs::Span propSpan("sat.pdr.property");
    propSpan.arg("name", std::string(props[i].name));
    propSpan.arg("netlist", nl.name());
    PdrPropertyResult& r = result.properties[i];
    r = provePropertyUnbounded(mon.nl, props[i].out, props[i].forced, opts,
                               stats[i]);
    r.name = props[i].name;
    propSpan.arg("cone_dffs", static_cast<double>(r.coneDffs));
    propSpan.arg("proved", r.provedUnbounded ? 1.0 : 0.0);
  };
  if (opts.runner) {
    opts.runner(props.size(), prove);
  } else {
    for (std::size_t i = 0; i < props.size(); i++) prove(i);
  }
  for (const SolverStats& s : stats) result.stats.accumulate(s);
  return result;
}

// ---------------------------------------------------------------------------
// Counterexample replay

namespace {

struct Accounting {
  /// Software mirror of the monitor's per-(input, output) saturating
  /// offset registers — reset 1, clamped to [0, bound + 2] — and the
  /// watchdog's stall counter. The replay judges the property against
  /// the exact finite-state semantics the PDR monitor encodes, so a
  /// trace verdict transfers cycle-for-cycle (an exact-arithmetic
  /// check would drift once any one pair's register clamps). A
  /// channel-less side is paired against a never-firing pseudo event,
  /// matching the monitor's constant-0 stand-in.
  std::vector<std::vector<unsigned>> off; // [input][output]
  unsigned wdCnt = 0;

  void start(std::size_t nIn, std::size_t nOut) {
    off.assign(std::max<std::size_t>(nIn, 1),
               std::vector<unsigned>(std::max<std::size_t>(nOut, 1), 1));
    wdCnt = 0;
  }

  void step(const std::vector<char>& accEv, const std::vector<char>& delEv,
            unsigned bound) {
    const unsigned rail = bound + 2;
    for (std::size_t i = 0; i < off.size(); i++) {
      const bool a = i < accEv.size() && accEv[i] != 0;
      for (std::size_t j = 0; j < off[i].size(); j++) {
        const bool d = j < delEv.size() && delEv[j] != 0;
        if (a && !d && off[i][j] < rail) off[i][j]++;
        if (d && !a && off[i][j] > 0) off[i][j]--;
      }
    }
  }

  /// Property check against the *registered* offsets (events strictly
  /// before the current cycle — the monitor's fail flags read the
  /// registers the same way).
  bool violatedNow(const std::string& property, unsigned bound,
                   unsigned window) const {
    if (property == "token_conservation") {
      for (std::size_t j = 0; j < off[0].size(); j++) {
        bool all = true;
        for (std::size_t i = 0; i < off.size(); i++) all &= off[i][j] == 0;
        if (all) return true;
      }
      return false;
    }
    if (property == "occupancy_bound") {
      const unsigned rail = bound + 2;
      for (std::size_t i = 0; i < off.size(); i++) {
        bool all = true;
        for (std::size_t j = 0; j < off[i].size(); j++) {
          all &= off[i][j] == rail;
        }
        if (all) return true;
      }
      return false;
    }
    return wdCnt >= std::max(1u, window);
  }
};

} // namespace

ReplayResult replayTrace(const netlist::Netlist& nl,
                         const sync::PortView& ports,
                         const std::string& property, const PdrTrace& trace,
                         const ReplayOptions& opts, sync::Oracle* oracle) {
  ReplayResult res;
  res.oracleChecked = oracle != nullptr;
  sync::Lockstep ls(nl, ports, {oracle});
  Accounting acct;
  acct.start(ls.numInputs(), ls.numOutputs());

  // Trace frame -> Stimulus: the frame's input levels (forced inputs
  // override), read back through the channel ports; unlisted inputs are 0.
  std::vector<char> level(nl.nodeCount(), 0);
  sync::Stimulus stim(ls.numInputs(), ls.numOutputs());
  const unsigned window = std::max(1u, opts.watchdogWindow);
  const auto any = [](const std::vector<char>& events) {
    return std::find(events.begin(), events.end(), 1) != events.end();
  };
  for (unsigned f = 0; f < trace.frames.size(); f++) {
    for (std::size_t i = 0; i < trace.inputs.size(); i++) {
      level[trace.inputs[i]] = i < trace.frames[f].size() && trace.frames[f][i];
    }
    for (const ForcedInput& fi : trace.forced) level[fi.input] = fi.value;
    for (std::size_t i = 0; i < ls.numInputs(); i++) {
      stim.valid[i] = level[ports.inValid[i]];
      stim.data[i] = 0;
      for (std::size_t b = 0; b < ports.inData[i].size(); b++) {
        if (level[ports.inData[i][b]] != 0) {
          stim.data[i] |= std::uint64_t{1} << b;
        }
      }
    }
    for (std::size_t j = 0; j < ls.numOutputs(); j++) {
      stim.stall[j] = level[ports.outStop[j]];
    }

    // The oracle comparison only informs oracleAgrees: the netlist side
    // replays every frame either way.
    ls.readStops(f);
    ls.drive(0, stim);
    ls.settle(f);

    if (!res.reproduced &&
        acct.violatedNow(property, opts.capacityBound, window)) {
      res.reproduced = true;
      res.violationCycle = f;
    }
    // Count this cycle's handshakes into the registered state.
    acct.step(ls.accepted(0), ls.delivered(0), opts.capacityBound);
    acct.wdCnt = any(ls.accepted(0)) || any(ls.delivered(0))
                     ? 0
                     : std::min(acct.wdCnt + 1, window);
    ls.clock();
  }

  // The fail flags are register-driven: the violation of the last
  // trace frame's events is observable one settle after that frame's
  // clock edge.
  if (!res.reproduced &&
      acct.violatedNow(property, opts.capacityBound, window)) {
    res.reproduced = true;
    res.violationCycle = static_cast<unsigned>(trace.frames.size());
  }

  res.oracleAgrees = res.oracleChecked && ls.agrees(0);
  if (!ls.agrees(0)) {
    res.detail = ls.mismatch(0);
  } else {
    std::ostringstream os;
    os << property << (res.reproduced ? " reproduced at cycle " : " not "
                                        "reproduced over ")
       << (res.reproduced ? res.violationCycle
                          : static_cast<unsigned>(trace.frames.size()));
    res.detail = os.str();
  }
  return res;
}

} // namespace lis::sat
