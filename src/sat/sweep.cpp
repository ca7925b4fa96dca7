#include "sat/sweep.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/bridge.hpp"
#include "obs/trace.hpp"
#include "sat/cnf.hpp"
#include "support/rng.hpp"

namespace lis::sat {

namespace {

constexpr aig::Lit kAigLitUndef = 0xffffffffu;
constexpr std::uint32_t kEndOfClass = 0xffffffffu;

/// AND levels below the two nodes a window query keeps; deeper nodes
/// become free variables of the window.
constexpr unsigned kWindowDepth = 8;
/// Conflict allowance of one window query (within the sweep budget).
constexpr std::uint64_t kWindowConflicts = 100;

enum class Verdict : std::uint8_t { Proved, Refuted, Undecided };

class Sweeper {
public:
  Sweeper(const aig::Aig& g, const SweepOptions& opts);

  AigSweepResult run();

private:
  bool phase(std::uint32_t n) const { return (sig_[n * words_] & 1u) != 0; }
  std::uint64_t classKey(std::uint32_t n) const;
  bool sameSignature(std::uint32_t n, std::uint32_t r) const;
  /// Append `n` to the class of its random signature.
  void joinClass(std::uint32_t n);
  void addSignature(std::uint32_t n);
  aig::Lit resolve(aig::Lit l) const;
  /// Literal (over f_) the new node `n` is kept as or merged into.
  aig::Lit sweepNode(std::uint32_t n);
  Verdict prove(std::uint32_t n, aig::Lit target);
  Result windowQuery(std::uint32_t n, aig::Lit target);
  Result sharedQuery(std::uint32_t n, aig::Lit target);
  /// Simulate one distinguishing pattern into every node's signature.
  void refine();

  std::uint64_t conflictsUsed() const {
    return solver_.stats().conflicts + windowStats_.conflicts;
  }
  std::uint64_t propagationsUsed() const {
    return solver_.stats().propagations + windowStats_.propagations;
  }
  bool budgetLeft() const {
    return (opts_.conflictBudget == 0 ||
            conflictsUsed() < opts_.conflictBudget) &&
           (opts_.propagationBudget == 0 ||
            propagationsUsed() < opts_.propagationBudget);
  }
  /// Absolute budget for one query of a solver whose stats are `now`:
  /// what is left of the sweep's budgets, at most `perQuery` conflicts
  /// (0 = no per-query cap). Called only while budgetLeft().
  SolverBudget queryBudget(const SolverStats& now,
                           std::uint64_t perQuery) const;

  const aig::Aig& g_;
  const SweepOptions& opts_;
  SweepStats stats_;
  support::SplitMix64 rng_;
  aig::Aig f_;                    // the rebuilt graph
  std::vector<aig::Lit> repOf_;   // per f_ node: merge target, or undef
  unsigned words_;                // random signature words per node
  std::vector<std::uint64_t> sig_; // node-major random signatures
  // Counterexample signatures, word-major: cexSig_[w][node], lane k of
  // word w is pattern 64 * w + k.
  std::vector<std::vector<std::uint64_t>> cexSig_;
  std::size_t cexCount_ = 0;
  std::vector<bool> cexPattern_; // per PI: the pattern refine() adds
  std::unordered_map<std::uint64_t, std::uint32_t> classHead_;
  std::vector<std::uint32_t> classNext_;
  Solver solver_;
  AigCnf cnf_;
  SolverStats windowStats_;
  std::uint64_t windowSeed_;
  // Window scratch, indexed by f_ node.
  std::vector<std::uint32_t> winStamp_;
  std::vector<Var> winVar_;
  std::vector<std::uint32_t> win_;
  std::uint32_t stamp_ = 0;
};

Sweeper::Sweeper(const aig::Aig& g, const SweepOptions& opts)
    : g_(g), opts_(opts), rng_(opts.seed),
      words_(std::max(1u, opts.simWords)), solver_(rng_.forkSeed(1)),
      cnf_(solver_, f_), windowSeed_(rng_.forkSeed(2)) {
  stats_.andsBefore = g.numAnds();
  cexPattern_.assign(g.numPis(), false);
  // The constant node heads the all-zero class; every PI gets random
  // words and joins the classes too (an AND may equal a PI).
  repOf_.push_back(kAigLitUndef);
  sig_.assign(words_, 0);
  classNext_.push_back(kEndOfClass);
  joinClass(0);
  for (std::size_t i = 0; i < g.numPis(); i++) {
    const std::uint32_t n = aig::litNode(f_.addPi());
    repOf_.push_back(kAigLitUndef);
    for (unsigned w = 0; w < words_; w++) sig_.push_back(rng_.next());
    classNext_.push_back(kEndOfClass);
    joinClass(n);
  }
  winStamp_.resize(f_.nodeCount(), 0);
  winVar_.resize(f_.nodeCount(), 0);
}

std::uint64_t Sweeper::classKey(std::uint32_t n) const {
  const std::uint64_t mask = phase(n) ? ~0ULL : 0ULL;
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (unsigned w = 0; w < words_; w++) {
    h ^= sig_[n * words_ + w] ^ mask;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h;
}

bool Sweeper::sameSignature(std::uint32_t n, std::uint32_t r) const {
  const std::uint64_t flip = phase(n) != phase(r) ? ~0ULL : 0ULL;
  for (unsigned w = 0; w < words_; w++) {
    if ((sig_[n * words_ + w] ^ sig_[r * words_ + w]) != flip) return false;
  }
  for (std::size_t w = 0; w < cexSig_.size(); w++) {
    const std::size_t lanes = std::min<std::size_t>(64, cexCount_ - 64 * w);
    const std::uint64_t valid = lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;
    if (((cexSig_[w][n] ^ cexSig_[w][r] ^ flip) & valid) != 0) return false;
  }
  return true;
}

void Sweeper::joinClass(std::uint32_t n) {
  const auto [it, fresh] = classHead_.try_emplace(classKey(n), n);
  if (fresh) return;
  std::uint32_t tail = it->second;
  while (classNext_[tail] != kEndOfClass) tail = classNext_[tail];
  classNext_[tail] = n;
}

SolverBudget Sweeper::queryBudget(const SolverStats& now,
                                  std::uint64_t perQuery) const {
  const auto left = [](std::uint64_t cap, std::uint64_t used) {
    return cap == 0 ? 0 : cap - std::min(cap, used);
  };
  std::uint64_t conflicts = left(opts_.conflictBudget, conflictsUsed());
  if (perQuery != 0) {
    conflicts = conflicts == 0 ? perQuery : std::min(conflicts, perQuery);
  }
  const std::uint64_t propagations =
      left(opts_.propagationBudget, propagationsUsed());
  return {conflicts == 0 ? 0 : now.conflicts + conflicts,
          propagations == 0 ? 0 : now.propagations + propagations};
}

void Sweeper::addSignature(std::uint32_t n) {
  const aig::Aig::Node& node = f_.node(n);
  const std::uint32_t a = aig::litNode(node.fanin0);
  const std::uint32_t b = aig::litNode(node.fanin1);
  const std::uint64_t ma = aig::litIsCompl(node.fanin0) ? ~0ULL : 0ULL;
  const std::uint64_t mb = aig::litIsCompl(node.fanin1) ? ~0ULL : 0ULL;
  for (unsigned w = 0; w < words_; w++) {
    sig_.push_back((sig_[a * words_ + w] ^ ma) & (sig_[b * words_ + w] ^ mb));
  }
  for (std::vector<std::uint64_t>& word : cexSig_) {
    word.push_back((word[a] ^ ma) & (word[b] ^ mb));
  }
  repOf_.push_back(kAigLitUndef);
  classNext_.push_back(kEndOfClass);
  winStamp_.resize(f_.nodeCount(), 0);
  winVar_.resize(f_.nodeCount(), 0);
}

aig::Lit Sweeper::resolve(aig::Lit l) const {
  while (repOf_[aig::litNode(l)] != kAigLitUndef) {
    l = repOf_[aig::litNode(l)] ^ static_cast<aig::Lit>(l & 1u);
  }
  return l;
}

aig::Lit Sweeper::sweepNode(std::uint32_t n) {
  const auto it = classHead_.find(classKey(n));
  for (std::uint32_t r = it == classHead_.end() ? kEndOfClass : it->second;
       r != kEndOfClass; r = classNext_[r]) {
    if (!sameSignature(n, r)) continue;
    // Canonical signatures agree: n == r, or n == !r across the phases.
    const aig::Lit target = aig::makeLit(r, phase(n) != phase(r));
    const Verdict v = prove(n, target);
    if (v == Verdict::Proved) {
      repOf_[n] = target;
      return target;
    }
    // A refuted pair now differs in the new cex lane: try the class's
    // next representative. An undecided one stays unmerged.
    if (v == Verdict::Undecided) break;
  }
  joinClass(n);
  return aig::makeLit(n, false);
}

Verdict Sweeper::prove(std::uint32_t n, aig::Lit target) {
  if (!budgetLeft()) {
    stats_.undecided++;
    return Verdict::Undecided;
  }
  stats_.candidates++;
  Result r = windowQuery(n, target);
  if (r == Result::Unsat) {
    stats_.proved++;
    stats_.windowProved++;
    return Verdict::Proved;
  }
  if (r != Result::Sat) {
    r = budgetLeft() ? sharedQuery(n, target) : Result::Unknown;
  }
  switch (r) {
    case Result::Unsat: stats_.proved++; return Verdict::Proved;
    case Result::Sat:
      stats_.refuted++;
      refine();
      return Verdict::Refuted;
    case Result::Unknown: break;
  }
  stats_.undecided++;
  return Verdict::Undecided;
}

// Returns Sat only when the window is the whole cone (all leaves PIs),
// so the model is a real counterexample; an incomplete window's model
// reports Unknown. A Sat answer leaves the pattern in cexPattern_.
Result Sweeper::windowQuery(std::uint32_t n, aig::Lit target) {
  stamp_++;
  win_.clear();
  const auto visit = [&](std::uint32_t x) {
    if (winStamp_[x] != stamp_) {
      winStamp_[x] = stamp_;
      win_.push_back(x);
    }
  };
  visit(n);
  if (!f_.isConst(aig::litNode(target))) visit(aig::litNode(target));
  // Breadth-first by AND level below the pair: nodes reached in the
  // last layer are the cut.
  std::size_t expanded = 0;
  for (unsigned depth = 0; depth < kWindowDepth && expanded < win_.size();
       depth++) {
    const std::size_t layerEnd = win_.size();
    for (; expanded < layerEnd; expanded++) {
      const std::uint32_t x = win_[expanded];
      if (!f_.isAnd(x)) continue;
      visit(aig::litNode(f_.node(x).fanin0));
      visit(aig::litNode(f_.node(x).fanin1));
    }
  }
  bool complete = true;
  for (std::size_t i = expanded; i < win_.size() && complete; i++) {
    complete = !f_.isAnd(win_[i]);
  }

  Solver s(windowSeed_);
  for (const std::uint32_t x : win_) winVar_[x] = s.newVar();
  const auto litOf = [&](aig::Lit l) {
    return mkLit(winVar_[aig::litNode(l)], aig::litIsCompl(l));
  };
  for (std::size_t i = 0; i < expanded; i++) {
    const std::uint32_t x = win_[i];
    if (!f_.isAnd(x)) continue;
    const Lit o = mkLit(winVar_[x], false);
    const Lit a = litOf(f_.node(x).fanin0);
    const Lit b = litOf(f_.node(x).fanin1);
    s.addClause({litNeg(o), a});
    s.addClause({litNeg(o), b});
    s.addClause({o, litNeg(a), litNeg(b)});
  }
  // Ask for n != target.
  const Lit x = mkLit(winVar_[n], false);
  if (f_.isConst(aig::litNode(target))) {
    s.addClause({target == aig::kLitTrue ? litNeg(x) : x});
  } else {
    const Lit y = litOf(target);
    s.addClause({x, y});
    s.addClause({litNeg(x), litNeg(y)});
  }
  s.setBudget(queryBudget(s.stats(), kWindowConflicts));
  Result r = s.solve();
  windowStats_.accumulate(s.stats());
  if (r == Result::Sat && complete) {
    for (std::size_t p = 0; p < g_.numPis(); p++) {
      const std::uint32_t pi = f_.piNode(p);
      cexPattern_[p] =
          winStamp_[pi] == stamp_ && s.modelValue(mkLit(winVar_[pi], false));
    }
  } else if (r == Result::Sat) {
    r = Result::Unknown;
  }
  return r;
}

Result Sweeper::sharedQuery(std::uint32_t n, aig::Lit target) {
  const Lit x = cnf_.lit(aig::makeLit(n, false));
  const Lit y = cnf_.lit(target);
  // t -> x != y; assume t to ask for a distinguishing input.
  const Lit t = mkLit(solver_.newVar(), false);
  solver_.addClause({litNeg(t), x, y});
  solver_.addClause({litNeg(t), litNeg(x), litNeg(y)});
  solver_.setBudget(queryBudget(solver_.stats(), opts_.perPairConflicts));
  const Result r = solver_.solve({t});
  if (r == Result::Sat) {
    for (std::size_t p = 0; p < g_.numPis(); p++) {
      cexPattern_[p] = solver_.modelValue(cnf_.piLit(p));
    }
  }
  return r;
}

void Sweeper::refine() {
  const std::size_t lane = cexCount_ % 64;
  if (lane == 0) cexSig_.emplace_back(f_.nodeCount(), 0);
  std::vector<std::uint64_t>& word = cexSig_.back();
  const std::uint64_t bit = std::uint64_t{1} << lane;
  for (std::size_t p = 0; p < g_.numPis(); p++) {
    if (cexPattern_[p]) word[f_.piNode(p)] |= bit;
  }
  for (std::uint32_t n = static_cast<std::uint32_t>(g_.numPis()) + 1;
       n < f_.nodeCount(); n++) {
    const auto lane = [&](aig::Lit f) {
      return word[aig::litNode(f)] ^ (aig::litIsCompl(f) ? bit : 0);
    };
    const aig::Aig::Node& node = f_.node(n);
    // Lanes past the last pattern hold junk from complemented fanins.
    word[n] = (word[n] & ~bit) | (lane(node.fanin0) & lane(node.fanin1) & bit);
  }
  cexCount_++;
}

AigSweepResult Sweeper::run() {
  // litOf[g node] = literal over f_ it is rebuilt as.
  std::vector<aig::Lit> litOf(g_.nodeCount(), kAigLitUndef);
  litOf[0] = aig::kLitFalse;
  for (std::size_t i = 0; i < g_.numPis(); i++) {
    litOf[g_.piNode(i)] = aig::makeLit(f_.piNode(i), false);
  }
  const auto mapped = [&](aig::Lit l) {
    return litOf[aig::litNode(l)] ^ static_cast<aig::Lit>(l & 1u);
  };
  for (std::uint32_t n = 0; n < g_.nodeCount(); n++) {
    if (!g_.isAnd(n)) continue;
    const std::size_t before = f_.nodeCount();
    const aig::Lit l =
        f_.addAnd(mapped(g_.node(n).fanin0), mapped(g_.node(n).fanin1));
    if (f_.nodeCount() == before) {
      litOf[n] = resolve(l); // strash hit or one-level rule: free merge
      continue;
    }
    addSignature(aig::litNode(l));
    litOf[n] = sweepNode(aig::litNode(l));
  }

  // Keep only what the POs reach: merged nodes are dead by construction
  // (nothing is rebuilt over them), and so are the cones they strand.
  std::vector<aig::Lit> pos;
  pos.reserve(g_.pos().size());
  for (const aig::Lit po : g_.pos()) pos.push_back(resolve(mapped(po)));
  std::vector<char> live(f_.nodeCount(), 0);
  for (const aig::Lit po : pos) live[aig::litNode(po)] = 1;
  for (std::uint32_t n = static_cast<std::uint32_t>(f_.nodeCount()); n-- > 0;) {
    if (!live[n] || !f_.isAnd(n)) continue;
    live[aig::litNode(f_.node(n).fanin0)] = 1;
    live[aig::litNode(f_.node(n).fanin1)] = 1;
  }
  aig::Aig swept;
  std::vector<aig::Lit> newLit(f_.nodeCount(), aig::kLitFalse);
  for (std::size_t i = 0; i < f_.numPis(); i++) {
    newLit[f_.piNode(i)] = swept.addPi();
  }
  const auto rebuilt = [&](aig::Lit l) {
    return newLit[aig::litNode(l)] ^ static_cast<aig::Lit>(l & 1u);
  };
  for (std::uint32_t n = 0; n < f_.nodeCount(); n++) {
    if (!live[n] || !f_.isAnd(n)) continue;
    newLit[n] = swept.addAnd(rebuilt(f_.node(n).fanin0),
                             rebuilt(f_.node(n).fanin1));
  }
  for (const aig::Lit po : pos) swept.addPo(rebuilt(po));

  AigSweepResult result;
  stats_.andsAfter = swept.numAnds();
  stats_.solver = solver_.stats();
  stats_.solver.accumulate(windowStats_);
  result.stats = stats_;
  result.aig = std::move(swept);
  return result;
}

} // namespace

AigSweepResult sweepAig(const aig::Aig& g, const SweepOptions& opts) {
  obs::Span span("sat.sweep");
  return Sweeper(g, opts).run();
}

NetlistSweepResult sweepNetlist(const netlist::Netlist& nl,
                                const SweepOptions& opts) {
  aig::SequentialAig sa = aig::fromNetlist(nl);
  AigSweepResult swept = sweepAig(sa.aig, opts);
  sa.aig = std::move(swept.aig);
  NetlistSweepResult result;
  result.netlist = aig::toNetlist(sa);
  result.stats = swept.stats;
  return result;
}

} // namespace lis::sat
