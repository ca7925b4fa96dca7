#include "sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace lis::sat {

namespace {

constexpr double kVarDecay = 0.95;
constexpr double kClaDecay = 0.999;
constexpr std::uint64_t kRestartBase = 100;

/// Finite-subsequence generator for the Luby restart series
/// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
double luby(double y, int x) {
  int size = 1, seq = 0;
  while (size < x + 1) {
    seq++;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    seq--;
    x = x % size;
  }
  return std::pow(y, seq);
}

} // namespace

const char* resultName(Result r) {
  switch (r) {
  case Result::Sat: return "sat";
  case Result::Unsat: return "unsat";
  case Result::Unknown: return "unknown";
  }
  return "?";
}

Solver::Solver(std::uint64_t seed) : rng_(seed) {}

Solver::~Solver() {
  obs::Registry& global = obs::Registry::global();
  global.add("sat.conflicts", static_cast<double>(stats_.conflicts));
  global.add("sat.decisions", static_cast<double>(stats_.decisions));
  global.add("sat.propagations", static_cast<double>(stats_.propagations));
  global.add("sat.restarts", static_cast<double>(stats_.restarts));
  global.add("sat.solves", static_cast<double>(stats_.solves));
  global.add("sat.cores", static_cast<double>(stats_.cores));
  global.add("sat.core_lits", static_cast<double>(stats_.coreLits));
}

Var Solver::newVar() {
  // A deterministic sub-ULP jitter diversifies activity tie-breaks per
  // construction seed without disturbing real bump ordering.
  const double jitter = static_cast<double>(rng_.next() >> 16) * 1e-14;
  Var v;
  if (!freeVars_.empty()) {
    // The cleanup that freed v left it unassigned, unwatched and off the
    // heap (see removeSatisfied).
    v = freeVars_.back();
    freeVars_.pop_back();
    polarity_[v] = 0;
    level_[v] = 0;
    reasonOf_[v] = kCRefUndef;
    activity_[v] = jitter;
  } else {
    v = static_cast<Var>(assign_.size());
    assign_.push_back(kUndef);
    polarity_.push_back(0);
    seen_.push_back(0);
    level_.push_back(0);
    reasonOf_.push_back(kCRefUndef);
    activity_.push_back(jitter);
    heapPos_.push_back(kNoPos);
    watches_.emplace_back();
    watches_.emplace_back();
  }
  heapInsert(v);
  return v;
}

void Solver::releaseVar(Lit l) {
  // As addClause({l}): a literal false at level 0 leaves the formula UNSAT.
  if (valueLit(l) != kTrue && !addClause({l})) return;
  released_.push_back(litVar(l));
}

float Solver::clauseActivity(std::uint32_t c) const {
  return std::bit_cast<float>(arena_[c + 1]);
}

void Solver::setClauseActivity(std::uint32_t c, float a) {
  arena_[c + 1] = std::bit_cast<std::uint32_t>(a);
}

std::uint32_t Solver::allocClause(std::span<const Lit> lits, bool learnt) {
  const std::uint32_t cref = static_cast<std::uint32_t>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 2) |
                   (learnt ? 1u : 0u));
  if (learnt) arena_.push_back(std::bit_cast<std::uint32_t>(0.0f));
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  return cref;
}

void Solver::attachClause(std::uint32_t cref) {
  const Lit* lits = clauseLits(cref);
  watches_[litNeg(lits[0])].push_back({cref, lits[1]});
  watches_[litNeg(lits[1])].push_back({cref, lits[0]});
}

bool Solver::addClause(std::span<const Lit> in) {
  assert(decisionLevel() == 0);
  if (!ok_) return false;
  std::vector<Lit> lits(in.begin(), in.end());
  std::sort(lits.begin(), lits.end());
  std::size_t j = 0;
  Lit prev = kLitUndef;
  for (const Lit l : lits) {
    assert(litVar(l) < numVars());
    const std::uint8_t v = valueLit(l);
    if (v == kTrue || (prev != kLitUndef && l == litNeg(prev))) return true;
    if (v != kFalse && l != prev) {
      lits[j++] = l;
      prev = l;
    }
  }
  lits.resize(j);
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  if (lits.size() == 1) {
    uncheckedEnqueue(lits[0]);
    if (propagate() != kCRefUndef) ok_ = false;
    return ok_;
  }
  attachClause(allocClause(lits, false));
  numClauses_++;
  return true;
}

bool Solver::addClause(std::initializer_list<Lit> lits) {
  return addClause(std::span<const Lit>(lits.begin(), lits.size()));
}

void Solver::uncheckedEnqueue(Lit p, std::uint32_t from) {
  const Var v = litVar(p);
  assert(assign_[v] == kUndef);
  assign_[v] = litSign(p) ? kFalse : kTrue;
  level_[v] = decisionLevel();
  reasonOf_[v] = from;
  trail_.push_back(p);
}

std::uint32_t Solver::propagate() {
  std::uint32_t confl = kCRefUndef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++]; // p is now true
    stats_.propagations++;
    std::vector<Watcher>& ws = watches_[p];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (valueLit(w.blocker) == kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      const std::uint32_t cr = w.cref;
      if (clauseDeleted(cr)) { // tombstoned by reduceDB: drop the watcher
        i++;
        continue;
      }
      Lit* lits = clauseLits(cr);
      const std::uint32_t sz = clauseSize(cr);
      const Lit falseLit = litNeg(p);
      if (lits[0] == falseLit) std::swap(lits[0], lits[1]);
      assert(lits[1] == falseLit);
      i++;
      const Lit first = lits[0];
      if (first != w.blocker && valueLit(first) == kTrue) {
        ws[j++] = {cr, first};
        continue;
      }
      bool moved = false;
      for (std::uint32_t k = 2; k < sz; k++) {
        if (valueLit(lits[k]) != kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[litNeg(lits[1])].push_back({cr, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      ws[j++] = {cr, first}; // unit or conflicting: keep the watcher
      if (valueLit(first) == kFalse) {
        confl = cr;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        uncheckedEnqueue(first, cr);
      }
    }
    ws.resize(j);
  }
  return confl;
}

void Solver::analyze(std::uint32_t confl, std::vector<Lit>& outLearnt,
                     std::uint32_t& outBtLevel) {
  outLearnt.clear();
  outLearnt.push_back(kLitUndef); // slot for the asserting literal
  toClear_.clear();
  int pathC = 0;
  Lit p = kLitUndef;
  std::size_t index = trail_.size();
  std::uint32_t cr = confl;
  do {
    assert(cr != kCRefUndef);
    if (clauseLearnt(cr)) claBumpActivity(cr);
    const Lit* lits = clauseLits(cr);
    const std::uint32_t sz = clauseSize(cr);
    for (std::uint32_t k = (p == kLitUndef ? 0u : 1u); k < sz; k++) {
      const Lit q = lits[k];
      const Var v = litVar(q);
      if (seen_[v] == 0 && level_[v] > 0) {
        varBumpActivity(v);
        seen_[v] = 1;
        toClear_.push_back(v);
        if (level_[v] >= decisionLevel()) {
          pathC++;
        } else {
          outLearnt.push_back(q);
        }
      }
    }
    while (seen_[litVar(trail_[--index])] == 0) {}
    p = trail_[index];
    cr = reasonOf_[litVar(p)];
    seen_[litVar(p)] = 0;
    pathC--;
  } while (pathC > 0);
  outLearnt[0] = litNeg(p);
  stats_.learnedLits += outLearnt.size();

  // Self-subsuming minimization: drop a literal whose entire reason is
  // already inside the learnt clause (or at level 0).
  std::size_t j = 1;
  for (std::size_t i = 1; i < outLearnt.size(); i++) {
    const Var v = litVar(outLearnt[i]);
    const std::uint32_t r = reasonOf_[v];
    bool redundant = false;
    if (r != kCRefUndef) {
      redundant = true;
      const Lit* rl = clauseLits(r);
      const std::uint32_t rs = clauseSize(r);
      for (std::uint32_t k = 1; k < rs; k++) {
        const Var x = litVar(rl[k]);
        if (seen_[x] == 0 && level_[x] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (redundant) {
      stats_.minimizedLits++;
    } else {
      outLearnt[j++] = outLearnt[i];
    }
  }
  outLearnt.resize(j);

  if (outLearnt.size() == 1) {
    outBtLevel = 0;
  } else {
    std::size_t maxI = 1;
    for (std::size_t i = 2; i < outLearnt.size(); i++) {
      if (level_[litVar(outLearnt[i])] > level_[litVar(outLearnt[maxI])]) {
        maxI = i;
      }
    }
    std::swap(outLearnt[1], outLearnt[maxI]);
    outBtLevel = level_[litVar(outLearnt[1])];
  }
  for (const Var v : toClear_) seen_[v] = 0;
}

void Solver::analyzeFinal(Lit failedAssump) {
  conflictAssumps_.clear();
  conflictAssumps_.push_back(failedAssump);
  stats_.cores++;
  if (decisionLevel() == 0) {
    stats_.coreLits += 1;
    return;
  }
  seen_[litVar(failedAssump)] = 1;
  for (std::size_t i = trail_.size(); i-- > trailLim_[0];) {
    const Var x = litVar(trail_[i]);
    if (seen_[x] == 0) continue;
    const std::uint32_t r = reasonOf_[x];
    if (r == kCRefUndef) {
      // A decision below the assumption levels is an assumption itself.
      conflictAssumps_.push_back(trail_[i]);
    } else {
      const Lit* lits = clauseLits(r);
      const std::uint32_t sz = clauseSize(r);
      for (std::uint32_t k = 1; k < sz; k++) {
        const Var y = litVar(lits[k]);
        if (level_[y] > 0) seen_[y] = 1;
      }
    }
    seen_[x] = 0;
  }
  seen_[litVar(failedAssump)] = 0;
  stats_.coreLits += conflictAssumps_.size();
}

void Solver::cancelUntil(std::uint32_t levelTo) {
  if (decisionLevel() <= levelTo) return;
  for (std::size_t i = trail_.size(); i-- > trailLim_[levelTo];) {
    const Var v = litVar(trail_[i]);
    polarity_[v] = assign_[v]; // phase saving
    assign_[v] = kUndef;
    reasonOf_[v] = kCRefUndef;
    if (heapPos_[v] == kNoPos) heapInsert(v);
  }
  trail_.resize(trailLim_[levelTo]);
  trailLim_.resize(levelTo);
  qhead_ = trail_.size();
}

Lit Solver::pickBranchLit() {
  while (!heap_.empty()) {
    const Var v = heapPop();
    if (assign_[v] == kUndef) return mkLit(v, polarity_[v] == 0);
  }
  return kLitUndef;
}

bool Solver::locked(std::uint32_t cref) const {
  const Lit first = clauseLits(cref)[0];
  return valueLit(first) == kTrue && reasonOf_[litVar(first)] == cref;
}

bool Solver::overBudget() const {
  return (budget_.maxConflicts != 0 &&
          stats_.conflicts >= budget_.maxConflicts) ||
         (budget_.maxPropagations != 0 &&
          stats_.propagations >= budget_.maxPropagations);
}

void Solver::reduceDB() {
  std::vector<std::uint32_t> live;
  live.reserve(liveLearnts_);
  for (const std::uint32_t cr : learnts_) {
    if (!clauseDeleted(cr)) live.push_back(cr);
  }
  std::sort(live.begin(), live.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const bool a2 = clauseSize(a) == 2, b2 = clauseSize(b) == 2;
              if (a2 != b2) return b2; // binaries sort last (kept)
              if (clauseActivity(a) != clauseActivity(b)) {
                return clauseActivity(a) < clauseActivity(b);
              }
              return a < b;
            });
  const double extLim = live.empty() ? 0.0 : claInc_ / live.size();
  for (std::size_t i = 0; i < live.size(); i++) {
    const std::uint32_t cr = live[i];
    if (clauseSize(cr) > 2 && !locked(cr) &&
        (i < live.size() / 2 || clauseActivity(cr) < extLim)) {
      arena_[cr] |= 2u; // tombstone; watchers drain lazily in propagate()
      liveLearnts_--;
      stats_.deletedClauses++;
    }
  }
  learnts_.clear();
  for (const std::uint32_t cr : live) {
    if (!clauseDeleted(cr)) learnts_.push_back(cr);
  }
}

bool Solver::satisfiedAtLevel0(std::uint32_t c) const {
  const Lit* lits = clauseLits(c);
  for (std::uint32_t k = 0; k < clauseSize(c); k++) {
    if (valueLit(lits[k]) == kTrue) return true;
  }
  return false;
}

bool Solver::mentionsReleased(std::uint32_t c) const {
  const Lit* lits = clauseLits(c);
  for (std::uint32_t k = 0; k < clauseSize(c); k++) {
    if (seen_[litVar(lits[k])] != 0) return true;
  }
  return false;
}

void Solver::removeSatisfied() {
  assert(decisionLevel() == 0);
  // Released variables are marked in seen_ for the duration.
  const bool releasing = !released_.empty();
  for (const Var v : released_) seen_[v] = 1;
  // Compact the arena in place, keeping clause order: tombstoned learnts,
  // satisfied originals and learnts naming a released variable go; a kept
  // original loses its released (false) literals. fwd[old] is a kept
  // clause's new reference, kCRefUndef for a dropped one.
  std::vector<std::uint32_t> fwd(arena_.size(), kCRefUndef);
  std::uint32_t out = 0;
  for (std::uint32_t c = 0; c < arena_.size();) {
    const std::uint32_t words = clauseWords(c);
    const bool learnt = clauseLearnt(c);
    const bool keep =
        !clauseDeleted(c) &&
        (learnt ? !(releasing && mentionsReleased(c)) : !satisfiedAtLevel0(c));
    if (keep) {
      // Writes never pass the read position (out <= c) but may land on
      // c's header, so it is read first. A kept original is not
      // satisfied, so both its watches are unassigned: a released (false)
      // literal sits at index 2 or later and goes without touching the
      // watchers.
      const std::uint32_t header = arena_[c];
      const std::uint32_t lead = words - clauseSize(c); // header (+ activity)
      std::copy(arena_.begin() + c, arena_.begin() + c + lead,
                arena_.begin() + out);
      std::uint32_t size = 0;
      for (std::uint32_t k = lead; k < words; k++) {
        const Lit l = arena_[c + k];
        if (seen_[litVar(l)] == 0) arena_[out + lead + size++] = l;
      }
      assert(size >= 2);
      arena_[out] = (size << 2) | (header & 1u);
      fwd[c] = out;
      out += lead + size;
    } else if (!learnt) {
      numClauses_--;
    } else if (!clauseDeleted(c)) {
      liveLearnts_--;
      stats_.deletedClauses++;
    }
    c += words;
  }
  arena_.resize(out);
  for (std::vector<Watcher>& ws : watches_) {
    std::size_t j = 0;
    for (const Watcher& w : ws) {
      if (fwd[w.cref] != kCRefUndef) ws[j++] = {fwd[w.cref], w.blocker};
    }
    ws.resize(j);
  }
  std::size_t kept = 0;
  for (const std::uint32_t cref : learnts_) {
    if (fwd[cref] != kCRefUndef) learnts_[kept++] = fwd[cref];
  }
  learnts_.resize(kept);
  // A learnt reason keeps locking its clause in reduceDB; a dropped
  // reason is never read again (analysis stops above level 0).
  for (const Lit p : trail_) {
    std::uint32_t& reason = reasonOf_[litVar(p)];
    if (reason != kCRefUndef) reason = fwd[reason];
  }
  if (releasing) {
    // Off the trail and the heap, into the free pool.
    std::size_t j = 0;
    for (const Lit p : trail_) {
      if (seen_[litVar(p)] == 0) trail_[j++] = p;
    }
    trail_.resize(j);
    qhead_ = j;
    rebuildHeap();
    for (const Var v : released_) {
      // Every clause naming v went or lost v above.
      assert(watches_[mkLit(v)].empty() && watches_[mkLit(v, true)].empty());
      seen_[v] = 0;
      assign_[v] = kUndef;
      freeVars_.push_back(v);
    }
    released_.clear();
  }
  cleanedTrail_ = trail_.size();
}

void Solver::rebuildHeap() {
  // Keep the unassigned variables (level-0 assignments, the released ones
  // included, leave for good), then restore the heap order bottom-up.
  std::size_t j = 0;
  for (const Var v : heap_) {
    if (assign_[v] == kUndef) {
      heap_[j++] = v;
    } else {
      heapPos_[v] = kNoPos;
    }
  }
  heap_.resize(j);
  for (std::size_t i = 0; i < j; i++) {
    heapPos_[heap_[i]] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = j / 2; i-- > 0;) heapDown(static_cast<std::uint32_t>(i));
}

void Solver::varBumpActivity(Var v) {
  if ((activity_[v] += varInc_) > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    varInc_ *= 1e-100;
  }
  if (heapPos_[v] != kNoPos) heapUp(heapPos_[v]);
}

void Solver::varDecayActivity() { varInc_ *= 1.0 / kVarDecay; }

void Solver::claBumpActivity(std::uint32_t cref) {
  const float a = clauseActivity(cref) + static_cast<float>(claInc_);
  setClauseActivity(cref, a);
  if (a > 1e20f) {
    for (const std::uint32_t cr : learnts_) {
      if (!clauseDeleted(cr)) {
        setClauseActivity(cr, clauseActivity(cr) * 1e-20f);
      }
    }
    claInc_ *= 1e-20;
  }
}

void Solver::claDecayActivity() { claInc_ *= 1.0 / kClaDecay; }

void Solver::heapInsert(Var v) {
  heapPos_[v] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(v);
  heapUp(heapPos_[v]);
}

Var Solver::heapPop() {
  const Var top = heap_[0];
  heapPos_[top] = kNoPos;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heapPos_[heap_[0]] = 0;
    heap_.pop_back();
    heapDown(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void Solver::heapUp(std::uint32_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) >> 1;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heapPos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heapPos_[v] = i;
}

void Solver::heapDown(std::uint32_t i) {
  const Var v = heap_[i];
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      child++;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heapPos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heapPos_[v] = i;
}

Result Solver::search(std::uint64_t conflictsAllowed) {
  std::uint64_t conflictC = 0;
  std::vector<Lit> learnt;
  for (;;) {
    const std::uint32_t confl = propagate();
    if (confl != kCRefUndef) {
      stats_.conflicts++;
      conflictC++;
      if (decisionLevel() == 0) {
        ok_ = false;
        return Result::Unsat;
      }
      std::uint32_t btLevel = 0;
      analyze(confl, learnt, btLevel);
      cancelUntil(btLevel);
      if (learnt.size() == 1) {
        uncheckedEnqueue(learnt[0]);
      } else {
        const std::uint32_t cr = allocClause(learnt, true);
        learnts_.push_back(cr);
        liveLearnts_++;
        stats_.learnedClauses++;
        claBumpActivity(cr);
        attachClause(cr);
        uncheckedEnqueue(learnt[0], cr);
      }
      varDecayActivity();
      claDecayActivity();
      if (overBudget()) {
        limitHit_ = true;
        return Result::Unknown;
      }
    } else {
      if (conflictC >= conflictsAllowed) {
        stats_.restarts++;
        cancelUntil(0);
        return Result::Unknown;
      }
      if (overBudget()) {
        limitHit_ = true;
        return Result::Unknown;
      }
      if (static_cast<double>(liveLearnts_) - static_cast<double>(trail_.size()) >=
          maxLearnts_) {
        reduceDB();
        maxLearnts_ *= 1.3;
      }
      Lit next = kLitUndef;
      while (decisionLevel() < assumptions_.size()) {
        const Lit p = assumptions_[decisionLevel()];
        const std::uint8_t v = valueLit(p);
        if (v == kTrue) {
          trailLim_.push_back(static_cast<std::uint32_t>(trail_.size()));
        } else if (v == kFalse) {
          analyzeFinal(p);
          return Result::Unsat;
        } else {
          next = p;
          break;
        }
      }
      if (next == kLitUndef) {
        stats_.decisions++;
        next = pickBranchLit();
        if (next == kLitUndef) {
          model_.assign(assign_.begin(), assign_.end());
          for (std::uint8_t& m : model_) {
            if (m == kUndef) m = kFalse;
          }
          return Result::Sat;
        }
      }
      trailLim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      uncheckedEnqueue(next, kCRefUndef);
    }
  }
}

Result Solver::solve(std::span<const Lit> assumptions) {
  stats_.solves++;
  conflictAssumps_.clear();
  limitHit_ = false;
  if (!ok_) return Result::Unsat;
  for (const Lit a : assumptions) {
    if (a == kLitUndef || litVar(a) >= numVars()) {
      throw std::invalid_argument("sat::Solver::solve: bad assumption");
    }
  }
  assumptions_.assign(assumptions.begin(), assumptions.end());
  model_.clear();
  if (propagate() != kCRefUndef) {
    ok_ = false;
    return Result::Unsat;
  }
  if (maxLearnts_ == 0.0) {
    maxLearnts_ =
        std::max(1000.0, static_cast<double>(numClauses_) * (1.0 / 3.0));
  }
  if (trail_.size() >= cleanedTrail_ + kCleanupUnits ||
      released_.size() >= kCleanupReleased) {
    removeSatisfied();
  }
  Result status = Result::Unknown;
  for (int curr = 0; status == Result::Unknown; curr++) {
    status = search(
        static_cast<std::uint64_t>(luby(2.0, curr) * kRestartBase));
    if (limitHit_) {
      status = Result::Unknown;
      break;
    }
  }
  cancelUntil(0);
  assumptions_.clear();
  return status;
}

Result Solver::solve(std::initializer_list<Lit> assumptions) {
  return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()));
}

bool Solver::modelValue(Lit l) const {
  const Var v = litVar(l);
  if (v >= model_.size()) return litSign(l);
  return (model_[v] ^ (l & 1u)) != 0;
}

} // namespace lis::sat
