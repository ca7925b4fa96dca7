#include "sat/pdr.hpp"

#include <algorithm>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "netlist/buses.hpp"
#include "lis/lockstep.hpp"
#include "obs/trace.hpp"
#include "sat/monitor.hpp"

namespace lis::sat {

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

Monitor buildPdrMonitor(const Netlist& base, const sync::PortView& ports,
                        const PdrOptions& opts) {
  // Offset register per (accept, deliver) pair: o = 1 + (acc - del),
  // clamped to [0, rail]. Reset (acc = del = 0) is o == 1, one step
  // above the token rail: the first delivery in excess of acceptances
  // drives o to 0 immediately, so the token proof only has to show the
  // band's bottom edge is unreachable rather than walk a counter B+1
  // steps. The occupancy rail sits at o == bound + 2, i.e. acc - del ==
  // bound + 1 — the first cycle the buffer bound is actually exceeded.
  const unsigned rail = opts.capacityBound + 2;
  const unsigned w = BusBuilder::bitsFor(rail);
  const auto counting = [&](Netlist& m, std::vector<NodeId> accepted,
                            std::vector<NodeId> delivered) {
    // A channel-less side still has well-defined semantics (any delivery
    // is then unbacked): pair against a never-firing event.
    if (accepted.empty()) accepted.push_back(m.constant(false));
    if (delivered.empty()) delivered.push_back(m.constant(false));

    // One saturating offset register per (accept, deliver) pair; returns
    // its two rail flags {atZero, atRail}. The ±1 updates are taken mod
    // 2^w: the saturation muxes keep the value in range, so a wrap is
    // never latched.
    const auto satDiff = [&](NodeId accEv, NodeId delEv) {
      std::vector<NodeId> q(w);
      for (unsigned b = 0; b < w; b++) {
        q[b] = m.mkDff(m.constant(false), netlist::kNoNode, b == 0);
      }
      const NodeId atZero = eqConst(m, q, 0);
      const NodeId atRail = eqConst(m, q, rail);
      const NodeId up =
          m.mkAnd(m.mkAnd(accEv, m.mkNot(delEv)), m.mkNot(atRail));
      const NodeId down =
          m.mkAnd(m.mkAnd(delEv, m.mkNot(accEv)), m.mkNot(atZero));
      const std::vector<NodeId> inc = addConst(m, q, 1);
      const std::vector<NodeId> dec =
          addConst(m, q, (std::uint64_t{1} << w) - 1); // two's-complement -1
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
    const NodeId tokenOut =
        m.addOutput("__pdr_token_fail", m.orTree(tokenTerms));

    // buffer occupancy: some input out-ran *every* output by more than B.
    std::vector<NodeId> occTerms;
    for (std::size_t i = 0; i < accepted.size(); i++) {
      occTerms.push_back(m.andTree(atRailF[i]));
    }
    return std::pair{tokenOut,
                     m.addOutput("__pdr_occupancy_fail", m.orTree(occTerms))};
  };
  return buildMonitor(base, ports, opts.watchdogWindow, counting);
}

namespace {

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
    runPdr();
    return result_;
  }

  /// A proof's inductive invariant, as cubes over the cone's DFF indices:
  /// every cube above the frame whose delta emptied. Empty otherwise.
  const std::vector<Cube>& invariant() const { return invariant_; }

private:
  struct Stop {}; // budget / cancellation / frame-cap unwind

  /// One solver holding the one-step transition relation T (a
  /// free-initial-state Unroller with a single frame) plus whatever
  /// clauses its role adds.
  struct TransitionSolver {
    TransitionSolver(const aig::SequentialAig& sa,
                     const std::vector<ForcedInput>& forced,
                     std::uint64_t seed)
        : solver(seed), tr(solver, sa, forced, /*freeInitialState=*/true) {
      tr.pushFrame();
    }
    Solver solver;
    Unroller tr;
  };

  bool cancelled() const {
    return opts_.cancel != nullptr && opts_.cancel->cancelled();
  }

  static Lit onLit(Lit base, bool value) {
    return value ? base : litNeg(base);
  }

  std::unique_ptr<TransitionSolver> newSolver() const {
    return std::make_unique<TransitionSolver>(sa_, forced_, opts_.seed);
  }

  std::vector<bool> modelInputs(const TransitionSolver& f) const {
    std::vector<bool> vals;
    vals.reserve(freeInputs_.size());
    for (const NodeId id : freeInputs_) {
      vals.push_back(f.solver.modelValue(f.tr.inputLit(0, id)));
    }
    return vals;
  }

  /// c's literals on the state `frame` steps into f's transition (0 = the
  /// current state, 1 = the successor).
  static std::vector<Lit> cubeLits(const TransitionSolver& f, const Cube& c,
                                   unsigned frame) {
    std::vector<Lit> lits;
    lits.reserve(c.size());
    for (const std::uint32_t e : c) {
      lits.push_back(onLit(f.tr.stateLit(frame, cubeIdx(e)), cubeVal(e)));
    }
    return lits;
  }

  void runPdr() {
    lift_ = newSolver();
    // F_0 is the reset state: T plus one unit per DFF.
    solvers_.push_back(newSolver());
    TransitionSolver& init = *solvers_[0];
    for (std::size_t j = 0; j < reset_.size(); j++) {
      init.solver.addClause({onLit(init.tr.stateLit(0, j), reset_[j])});
    }
    frames_.emplace_back(); // index 0 unused: F_0 blocks nothing
    ensureFrame(1);
    unsigned top = 1;

    try {
      for (;;) {
        // Clear every bad state out of F_top.
        {
          obs::Span frameSpan("sat.pdr.frame");
          frameSpan.arg("frame", static_cast<double>(top));
          for (;;) {
            if (cancelled()) throw Stop{};
            TransitionSolver& f = *solvers_[top];
            const Lit bad[] = {f.tr.outputLit(0, badOut_)};
            const Result r = solve(f, bad);
            charge(PdrQuery::Frame);
            if (r == Result::Unknown) throw Stop{};
            if (r == Result::Unsat) break;
            Obligation root;
            root.inputs = modelInputs(f);
            root.frame = top;
            root.cube = liftModelState(f, nullptr);
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
            const Result r = solve(*solvers_[k], cubeLits(*solvers_[k], c, 1));
            charge(PdrQuery::Push);
            if (r == Result::Unknown) throw Stop{};
            if (r == Result::Unsat) {
              moveCube(c, k, k + 1);
              result_.engine.pushedClauses++;
            }
          }
          if (frames_[k].empty()) {
            result_.provedUnbounded = true;
            for (std::size_t j = k + 1; j < frames_.size(); j++) {
              invariant_.insert(invariant_.end(), frames_[j].begin(),
                                frames_[j].end());
            }
            finishPdr(top);
            return;
          }
        }
      }
    } catch (const Stop&) {
      result_.degraded = true;
      finishPdr(top);
    }
  }

  void finishPdr(unsigned top) {
    result_.frames = top;
    result_.clauses = liveClauses();
    charge(lastQuery_); // whatever the last query left uncharged
    statsOut_.accumulate(totals());
    solvers_.clear();
    lift_.reset();
  }

  /// Solver totals over the property's solvers.
  SolverStats totals() const {
    SolverStats sum = lift_->solver.stats();
    for (const auto& f : solvers_) sum.accumulate(f->solver.stats());
    return sum;
  }

  /// Solve on `f` within what the property's whole-run budgets leave.
  Result solve(TransitionSolver& f, std::span<const Lit> assumps) {
    const SolverStats spent = totals();
    const SolverStats& own = f.solver.stats();
    SolverBudget budget;
    if (opts_.conflictBudget != 0) {
      if (spent.conflicts >= opts_.conflictBudget) return Result::Unknown;
      budget.maxConflicts =
          own.conflicts + (opts_.conflictBudget - spent.conflicts);
    }
    if (opts_.propagationBudget != 0) {
      if (spent.propagations >= opts_.propagationBudget) {
        return Result::Unknown;
      }
      budget.maxPropagations =
          own.propagations + (opts_.propagationBudget - spent.propagations);
    }
    f.solver.setBudget(budget);
    return f.solver.solve(assumps);
  }

  /// Charge the property's solver work since the previous charge to query
  /// kind `q` (see PdrEngineStats::work).
  void charge(PdrQuery q) {
    const SolverStats s = totals();
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

  /// Solvers and deltas up to F_k; a new frame starts as T alone (no cube
  /// is blocked above the old top).
  void ensureFrame(unsigned k) {
    while (solvers_.size() <= k) {
      solvers_.push_back(newSolver());
      frames_.emplace_back();
    }
  }

  /// Add ¬c to f over the current state.
  static void addCubeClause(TransitionSolver& f, const Cube& c) {
    std::vector<Lit> clause = cubeLits(f, c, 0);
    for (Lit& l : clause) l = litNeg(l);
    f.solver.addClause(clause);
  }

  /// Shrink `from`'s model state to the literals the transition actually
  /// needs to drive the successor into `target` (a cube's primed
  /// literals; null = the bad output). The lift query runs on the T-only
  /// solver: it assumes the model's inputs and full state and forbids the
  /// target through a temporary clause — the transition function is
  /// deterministic, so it is UNSAT and its core names the necessary state
  /// bits. Every state in the lifted cube reaches `target` under the same
  /// inputs, which is what keeps counterexample chains concretely
  /// replayable. Falls back to the full model cube on a budget trip
  /// (sound, just weaker).
  Cube liftModelState(const TransitionSolver& from, const Cube* target) {
    std::vector<bool> sVal(reset_.size());
    for (std::size_t j = 0; j < reset_.size(); j++) {
      sVal[j] = from.solver.modelValue(from.tr.stateLit(0, j));
    }
    const std::vector<bool> iVal = modelInputs(from);

    TransitionSolver& f = *lift_;
    const Lit u = mkLit(f.solver.newVar(), false);
    std::vector<Lit> notTarget;
    if (target == nullptr) {
      notTarget.push_back(f.tr.outputLit(0, badOut_));
    } else {
      notTarget = cubeLits(f, *target, 1);
    }
    for (Lit& l : notTarget) l = litNeg(l);
    notTarget.push_back(litNeg(u));
    f.solver.addClause(notTarget);

    std::vector<Lit> assumps;
    assumps.push_back(u);
    for (std::size_t i = 0; i < freeInputs_.size(); i++) {
      assumps.push_back(onLit(f.tr.inputLit(0, freeInputs_[i]), iVal[i]));
    }
    const std::size_t first = assumps.size();
    for (std::size_t j = 0; j < reset_.size(); j++) {
      assumps.push_back(onLit(f.tr.stateLit(0, j), sVal[j]));
    }
    const Result r = solve(f, assumps);
    Cube c;
    if (r == Result::Unsat) {
      const std::unordered_set<Lit> core(f.solver.unsatAssumptions().begin(),
                                         f.solver.unsatAssumptions().end());
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
    f.solver.releaseVar(litNeg(u));
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

  /// One consecution query on F_{k-1}'s solver: SAT(F_{k-1} ∧ ¬c ∧ T ∧
  /// c'), charged to `kind`. Returns the solver result; on UNSAT fills
  /// `core` with the subset of c's literal positions the refutation used.
  /// The ¬c clause sits behind an activation literal the query releases,
  /// so the solver recycles its variable.
  Result consecution(PdrQuery kind, const Cube& c, unsigned k,
                     std::vector<bool>* core) {
    TransitionSolver& f = *solvers_[k - 1];
    const Lit t = mkLit(f.solver.newVar(), false);
    std::vector<Lit> notC = cubeLits(f, c, 0);
    for (Lit& l : notC) l = litNeg(l);
    notC.push_back(litNeg(t));
    f.solver.addClause(notC);

    std::vector<Lit> assumps = {t};
    const std::vector<Lit> primed = cubeLits(f, c, 1);
    assumps.insert(assumps.end(), primed.begin(), primed.end());
    const Result r = solve(f, assumps);
    if (r == Result::Unsat && core != nullptr) {
      core->assign(c.size(), false);
      std::unordered_map<Lit, std::vector<std::size_t>> posOf;
      for (std::size_t i = 0; i < c.size(); i++) {
        posOf[primed[i]].push_back(i);
      }
      for (const Lit l : f.solver.unsatAssumptions()) {
        const auto it = posOf.find(l);
        if (it == posOf.end()) continue;
        for (const std::size_t i : it->second) (*core)[i] = true;
      }
    }
    f.solver.releaseVar(litNeg(t));
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

  /// Block g at level j: solvers 1..j gain ¬g.
  void addBlockedCube(Cube g, unsigned j) {
    // Drop cubes the new clause subsumes anywhere it is active.
    for (std::size_t lvl = 1; lvl <= j && lvl < frames_.size(); lvl++) {
      auto& fs = frames_[lvl];
      fs.erase(std::remove_if(
                   fs.begin(), fs.end(),
                   [&](const Cube& d) { return d != g && subsumes(g, d); }),
               fs.end());
    }
    for (unsigned lvl = 1; lvl <= j; lvl++) addCubeClause(*solvers_[lvl], g);
    frames_[j].push_back(std::move(g));
    result_.engine.cubesBlocked++;
  }

  /// Push c from level `from` to `to` = from + 1: only F_to's solver
  /// lacks ¬c.
  void moveCube(const Cube& c, unsigned from, unsigned to) {
    auto& fs = frames_[from];
    const auto it = std::find(fs.begin(), fs.end(), c);
    if (it != fs.end()) fs.erase(it);
    addCubeClause(*solvers_[to], c);
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
        // Predecessor in F_{frame-1}; for frame 1 that is the reset state
        // itself, caught at its dequeue.
        const TransitionSolver& f = *solvers_[frame - 1];
        Obligation pred;
        pred.inputs = modelInputs(f);
        pred.cube = liftModelState(f, &pool[oi].cube);
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
  std::vector<Cube> invariant_;

  // PDR state (valid during runPdr only).
  std::vector<std::unique_ptr<TransitionSolver>> solvers_; // F_k at index k
  std::unique_ptr<TransitionSolver> lift_;                 // T alone
  PdrQueryWork charged_; // solver totals at the last charge
  PdrQuery lastQuery_ = PdrQuery::Frame;
  std::vector<std::vector<Cube>> frames_; // delta encoding: level k only
};

} // namespace

const char* pdrQueryName(PdrQuery q) {
  switch (q) {
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
  Engine engine(model.sa, model.cone.toCone[badOutput], model.forced, opts,
                statsOut);
  PdrPropertyResult r = engine.run();
  for (NodeId& id : r.trace.inputs) id = model.cone.toSource[id];
  const std::vector<NodeId>& coneDffs = model.cone.netlist.dffs();
  for (const Cube& c : engine.invariant()) {
    StateCube& sc = r.invariant.emplace_back();
    for (const std::uint32_t e : c) {
      sc.push_back({model.cone.toSource[coneDffs[cubeIdx(e)]], cubeVal(e)});
    }
  }
  if (r.provedUnbounded) {
    // A fixpoint counts as a proof only once a fresh solver has checked
    // its invariant.
    obs::Span span("sat.pdr.certificate");
    span.arg("cubes", static_cast<double>(r.invariant.size()));
    const InvariantCheck check =
        checkInvariant(nl, badOutput, forced, r.invariant);
    span.arg("ok", check.ok ? 1.0 : 0.0);
    if (!check.ok) {
      r.provedUnbounded = false;
      r.certificateError = check.detail;
    }
  }
  r.trace.forced = std::move(forced);
  r.coneDffs = static_cast<unsigned>(coneDffs.size());
  return r;
}

InvariantCheck checkInvariant(const netlist::Netlist& nl,
                              netlist::NodeId badOutput,
                              std::span<const ForcedInput> forced,
                              const std::vector<StateCube>& invariant) {
  InvariantCheck out;
  const NodeId roots[] = {badOutput};
  const ConeAig model(nl, roots, forced);
  const std::vector<NodeId>& dffs = model.cone.netlist.dffs();
  std::unordered_map<NodeId, std::size_t> dffIndex; // cone node -> index
  for (std::size_t j = 0; j < dffs.size(); j++) dffIndex[dffs[j]] = j;

  Solver solver;
  Unroller tr(solver, model.sa, model.forced, /*freeInitialState=*/true);
  tr.pushFrame();
  // Inv blocks each cube on the current state; next[i] is cube i on the
  // successor state.
  std::vector<std::vector<Lit>> next(invariant.size());
  for (std::size_t i = 0; i < invariant.size(); i++) {
    bool meetsReset = true;
    std::vector<Lit> blocking;
    for (const StateLit& l : invariant[i]) {
      const NodeId c =
          l.dff < model.cone.toCone.size() ? model.cone.toCone[l.dff]
                                           : netlist::kNoNode;
      const auto it = dffIndex.find(c);
      if (it == dffIndex.end()) {
        out.detail = "cube " + std::to_string(i) + " names node " +
                     std::to_string(l.dff) + ", not a DFF of the cone";
        return out;
      }
      const Lit s = tr.stateLit(0, it->second);
      blocking.push_back(l.value ? litNeg(s) : s);
      const Lit n = tr.stateLit(1, it->second);
      next[i].push_back(l.value ? n : litNeg(n));
      meetsReset &= l.value == tr.resetValue(it->second);
    }
    if (meetsReset) {
      out.detail = "cube " + std::to_string(i) + " meets the reset state";
      return out;
    }
    solver.addClause(blocking);
  }
  if (solver.solve({tr.outputLit(0, model.cone.toCone[badOutput])}) !=
      Result::Unsat) {
    out.detail = "a state of the invariant is bad";
    return out;
  }
  for (std::size_t i = 0; i < next.size(); i++) {
    if (solver.solve(next[i]) != Result::Unsat) {
      out.detail = "the invariant steps into cube " + std::to_string(i);
      return out;
    }
  }
  out.ok = true;
  return out;
}

PdrResult proveUnbounded(const netlist::Netlist& nl,
                         const sync::PortView& ports,
                         const PdrOptions& opts) {
  obs::Span span("sat.pdr");
  span.arg("capacity_bound", static_cast<double>(opts.capacityBound));
  const Monitor mon = buildPdrMonitor(nl, ports, opts);

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
    // Task i proves property n-1-i: a thread waiting for its own tasks
    // runs the newest first, so token_conservation, usually the longest,
    // starts first instead of last.
    const std::size_t n = props.size();
    opts.runner(n, [&](std::size_t i) { prove(n - 1 - i); });
  } else {
    for (std::size_t i = 0; i < props.size(); i++) prove(i);
  }
  for (const SolverStats& s : stats) result.stats.accumulate(s);
  return result;
}

// ---------------------------------------------------------------------------
// Counterexample replay

namespace {

enum class Property : std::uint8_t { Token, Occupancy, Watchdog };

/// The property `name` names; any other name throws, so a misspelt one
/// can never replay a different property.
Property propertyNamed(const std::string& name) {
  if (name == "token_conservation") return Property::Token;
  if (name == "occupancy_bound") return Property::Occupancy;
  if (name == "deadlock_watchdog") return Property::Watchdog;
  throw std::invalid_argument("sat::replayTrace: unknown property \"" + name +
                              "\"");
}

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
  bool violatedNow(Property property, unsigned bound, unsigned window) const {
    if (property == Property::Token) {
      for (std::size_t j = 0; j < off[0].size(); j++) {
        bool all = true;
        for (std::size_t i = 0; i < off.size(); i++) all &= off[i][j] == 0;
        if (all) return true;
      }
      return false;
    }
    if (property == Property::Occupancy) {
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
  const Property prop = propertyNamed(property);
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
        acct.violatedNow(prop, opts.capacityBound, window)) {
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
      acct.violatedNow(prop, opts.capacityBound, window)) {
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
