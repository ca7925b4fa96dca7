// sat_test — the CDCL core against known-hard/known-easy instances, the
// CNF encoder against exhaustive netlist evaluation, SAT-sweeping
// soundness on real wrapper/mesh configs, and bounded model checking of
// the protocol invariants including a deliberately broken relay with a
// violation at a known depth. PDR's invariants are also checked on random
// traffic in BitSim, apart from the SAT code.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "lis/oracle.hpp"
#include "lis/system.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/equiv.hpp"
#include "netlist/generate.hpp"
#include "netlist/seq_equiv.hpp"
#include "obs/trace.hpp"
#include "sat/bmc.hpp"
#include "sat/cnf.hpp"
#include "sat/pdr.hpp"
#include "sat/solver.hpp"
#include "sat/sweep.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace sat = lis::sat;
namespace nlx = lis::netlist;
namespace gen = lis::netlist::gen;
namespace lsync = lis::sync;

namespace {

// ---------------------------------------------------------------------------
// helpers

/// Scalar reference evaluation of a combinational netlist.
std::vector<bool> evalNetlist(const nlx::Netlist& nl,
                              const std::map<nlx::NodeId, bool>& inputs) {
  std::vector<bool> val(nl.nodes().size(), false);
  for (const nlx::NodeId id : nl.topoOrder()) {
    const nlx::Node& n = nl.node(id);
    switch (n.op) {
    case nlx::Op::Input: val[id] = inputs.at(id); break;
    case nlx::Op::Const0: val[id] = false; break;
    case nlx::Op::Const1: val[id] = true; break;
    case nlx::Op::Not: val[id] = !val[n.fanin[0]]; break;
    case nlx::Op::And: val[id] = val[n.fanin[0]] && val[n.fanin[1]]; break;
    case nlx::Op::Or: val[id] = val[n.fanin[0]] || val[n.fanin[1]]; break;
    case nlx::Op::Xor: val[id] = val[n.fanin[0]] != val[n.fanin[1]]; break;
    case nlx::Op::Mux:
      val[id] = val[n.fanin[0]] ? val[n.fanin[2]] : val[n.fanin[1]];
      break;
    case nlx::Op::Output: val[id] = val[n.fanin[0]]; break;
    case nlx::Op::Dff: CHECK(false); break;
    }
  }
  std::vector<bool> outs;
  for (const nlx::NodeId o : nl.outputs()) outs.push_back(val[o]);
  return outs;
}

/// Pigeonhole principle: `pigeons` into `holes`; UNSAT when pigeons > holes.
void addPigeonhole(sat::Solver& s, unsigned pigeons, unsigned holes) {
  std::vector<sat::Var> v(pigeons * holes);
  for (auto& x : v) x = s.newVar();
  const auto at = [&](unsigned i, unsigned j) { return v[i * holes + j]; };
  std::vector<sat::Lit> clause;
  for (unsigned i = 0; i < pigeons; i++) {
    clause.clear();
    for (unsigned j = 0; j < holes; j++) clause.push_back(sat::mkLit(at(i, j)));
    s.addClause(clause);
  }
  for (unsigned j = 0; j < holes; j++) {
    for (unsigned i1 = 0; i1 < pigeons; i1++) {
      for (unsigned i2 = i1 + 1; i2 < pigeons; i2++) {
        s.addClause({sat::mkLit(at(i1, j), true), sat::mkLit(at(i2, j), true)});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// solver core

void testLiteralHelpers() {
  const sat::Lit p = sat::mkLit(7);
  CHECK_EQ(sat::litVar(p), 7u);
  CHECK(!sat::litSign(p));
  CHECK(sat::litSign(sat::litNeg(p)));
  CHECK_EQ(sat::litVar(sat::litNeg(p)), 7u);
  CHECK_EQ(sat::litNeg(sat::litNeg(p)), p);
}

void testTrivialClauses() {
  sat::Solver s;
  const sat::Var a = s.newVar();
  const sat::Var b = s.newVar();
  // Tautology and satisfied clauses are absorbed.
  CHECK(s.addClause({sat::mkLit(a), sat::mkLit(a, true)}));
  CHECK(s.addClause({sat::mkLit(a)}));
  CHECK(s.addClause({sat::mkLit(a), sat::mkLit(b)}));
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Sat));
  CHECK(s.modelValue(sat::mkLit(a)));
  // Unit contradiction flips the solver to top-level UNSAT.
  CHECK(!s.addClause({sat::mkLit(a, true)}));
  CHECK(!s.okay());
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Unsat));
}

void testPigeonholeUnsat() {
  sat::Solver s;
  addPigeonhole(s, 5, 4);
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Unsat));
  CHECK(s.stats().conflicts > 0);
  CHECK(s.unsatAssumptions().empty());

  sat::Solver sat5;
  addPigeonhole(sat5, 5, 5);
  CHECK_EQ(static_cast<int>(sat5.solve()),
           static_cast<int>(sat::Result::Sat));
}

void testRandom3CnfVsBruteForce() {
  const unsigned n = 10, m = 44;
  for (std::uint64_t seed = 0; seed < 12; seed++) {
    lis::support::SplitMix64 rng(0xc3f5eed + seed);
    std::vector<std::vector<sat::Lit>> clauses;
    for (unsigned c = 0; c < m; c++) {
      std::vector<sat::Lit> cl;
      while (cl.size() < 3) {
        const sat::Var v = static_cast<sat::Var>(rng.below(n));
        bool dup = false;
        for (const sat::Lit l : cl) dup = dup || sat::litVar(l) == v;
        if (!dup) cl.push_back(sat::mkLit(v, rng.flip()));
      }
      clauses.push_back(cl);
    }
    bool bruteSat = false;
    for (std::uint32_t a = 0; a < (1u << n) && !bruteSat; a++) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const sat::Lit l : cl) {
          const bool v = ((a >> sat::litVar(l)) & 1u) != 0;
          any = any || (v != sat::litSign(l));
        }
        all = all && any;
      }
      bruteSat = all;
    }
    sat::Solver s(seed);
    for (unsigned v = 0; v < n; v++) s.newVar();
    bool ok = true;
    for (const auto& cl : clauses) ok = s.addClause(cl) && ok;
    const sat::Result r = ok ? s.solve() : sat::Result::Unsat;
    CHECK_EQ(static_cast<int>(r), static_cast<int>(bruteSat ? sat::Result::Sat
                                                            : sat::Result::Unsat));
    if (r == sat::Result::Sat) {
      for (const auto& cl : clauses) {
        bool any = false;
        for (const sat::Lit l : cl) any = any || s.modelValue(l);
        CHECK(any);
      }
    }
  }
}

void testAssumptionsAndUnsatCore() {
  sat::Solver s;
  const sat::Var a = s.newVar(), b = s.newVar(), c = s.newVar(),
                 d = s.newVar();
  // a -> b, b -> c.
  s.addClause({sat::mkLit(a, true), sat::mkLit(b)});
  s.addClause({sat::mkLit(b, true), sat::mkLit(c)});
  // SAT under {a}; the model respects the implication chain.
  CHECK_EQ(static_cast<int>(s.solve({sat::mkLit(a)})),
           static_cast<int>(sat::Result::Sat));
  CHECK(s.modelValue(sat::mkLit(c)));
  // UNSAT under {a, !c}; the core names both, never the irrelevant d.
  const sat::Result r = s.solve({sat::mkLit(a), sat::mkLit(c, true),
                                 sat::mkLit(d)});
  CHECK_EQ(static_cast<int>(r), static_cast<int>(sat::Result::Unsat));
  const std::vector<sat::Lit>& core = s.unsatAssumptions();
  CHECK(!core.empty());
  bool hasA = false, hasNotC = false, hasD = false;
  for (const sat::Lit l : core) {
    hasA = hasA || l == sat::mkLit(a);
    hasNotC = hasNotC || l == sat::mkLit(c, true);
    hasD = hasD || sat::litVar(l) == d;
  }
  CHECK(hasA);
  CHECK(hasNotC);
  CHECK(!hasD);
  // Still SAT without assumptions: nothing was permanently asserted.
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Sat));
  CHECK(s.okay());
}

void testBudgetTiering() {
  sat::Solver s;
  addPigeonhole(s, 8, 7);
  s.setBudget({10, 0});
  CHECK_EQ(static_cast<int>(s.solve()),
           static_cast<int>(sat::Result::Unknown));
  CHECK(s.okay()); // no verdict, state intact
  // Lifting the budget finishes the proof on the same solver.
  s.setBudget({0, 0});
  CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Unsat));
}

void testSolverDeterminism() {
  sat::SolverStats first;
  for (int run = 0; run < 2; run++) {
    sat::Solver s(0xabc);
    addPigeonhole(s, 6, 5);
    CHECK_EQ(static_cast<int>(s.solve()),
             static_cast<int>(sat::Result::Unsat));
    if (run == 0) {
      first = s.stats();
    } else {
      CHECK_EQ(s.stats().conflicts, first.conflicts);
      CHECK_EQ(s.stats().decisions, first.decisions);
      CHECK_EQ(s.stats().propagations, first.propagations);
      CHECK_EQ(s.stats().restarts, first.restarts);
    }
  }
  // A different seed may search differently but answers the same.
  sat::Solver s2(0xdef);
  addPigeonhole(s2, 6, 5);
  CHECK_EQ(static_cast<int>(s2.solve()), static_cast<int>(sat::Result::Unsat));
}

void testReleasedVarsRecycleSoundly() {
  // PDR's query pattern on one solver: each query adds temporary clauses
  // behind a fresh activation literal t, solves under t and a few more
  // assumptions, then releases !t. Over 1200 queries the level-0 cleanups
  // (one per 64 released literals) recycle the activation variables, so
  // later queries reuse old indices, and every answer — model and core
  // included — must still match brute force over the base variables.
  // Some queries also add (t | c): once !t is released, c holds for good,
  // so a cleanup that recycles t must keep c.
  const unsigned n = 10;
  lis::support::SplitMix64 rng(0x7ec7c1e);
  sat::Solver s(3);
  for (unsigned v = 0; v < n; v++) s.newVar();
  const auto randomClause = [&](unsigned width) {
    std::vector<sat::Lit> cl;
    while (cl.size() < width) {
      const sat::Var v = static_cast<sat::Var>(rng.below(n));
      bool dup = false;
      for (const sat::Lit l : cl) dup = dup || sat::litVar(l) == v;
      if (!dup) cl.push_back(sat::mkLit(v, rng.flip()));
    }
    return cl;
  };
  // Does some assignment of the n variables satisfy `cls` and `units`?
  const auto bruteSat = [&](const std::vector<std::vector<sat::Lit>>& cls,
                            const std::vector<sat::Lit>& units) {
    for (std::uint32_t a = 0; a < (1u << n); a++) {
      const auto holds = [a](sat::Lit l) {
        return (((a >> sat::litVar(l)) & 1u) != 0) != sat::litSign(l);
      };
      bool all = true;
      for (const sat::Lit u : units) all = all && holds(u);
      for (std::size_t c = 0; all && c < cls.size(); c++) {
        bool any = false;
        for (const sat::Lit l : cls[c]) any = any || holds(l);
        all = any;
      }
      if (all) return true;
    }
    return false;
  };
  // A permanent clause is kept only while the base stays satisfiable, so
  // no query is refuted at top level.
  std::vector<std::vector<sat::Lit>> base;
  const auto consistentWith = [&](const std::vector<sat::Lit>& cl) {
    std::vector<std::vector<sat::Lit>> more = base;
    more.push_back(cl);
    return bruteSat(more, {});
  };
  sat::Var highest = n - 1;
  unsigned reused = 0, sats = 0, unsats = 0;
  for (unsigned q = 0; q < 1200; q++) {
    if (q % 40 == 0) {
      const std::vector<sat::Lit> cl = randomClause(3);
      if (consistentWith(cl)) {
        base.push_back(cl);
        s.addClause(cl);
      }
    }
    const sat::Var t = s.newVar();
    if (t <= highest) {
      reused++;
    } else {
      highest = t;
    }
    std::vector<std::vector<sat::Lit>> clauses = base;
    const unsigned temps = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned k = 0; k < temps; k++) {
      std::vector<sat::Lit> cl =
          randomClause(2 + static_cast<unsigned>(rng.below(2)));
      clauses.push_back(cl);
      cl.push_back(sat::mkLit(t, true));
      s.addClause(cl);
    }
    std::vector<sat::Lit> later;
    if (rng.below(16) == 0) {
      later = randomClause(3);
      if (consistentWith(later)) {
        std::vector<sat::Lit> cl = later;
        cl.push_back(sat::mkLit(t));
        s.addClause(cl);
      } else {
        later.clear();
      }
    }
    std::vector<sat::Lit> assumps = {sat::mkLit(t)};
    const unsigned extra = static_cast<unsigned>(rng.below(5));
    for (unsigned k = 0; k < extra; k++) {
      assumps.push_back(sat::mkLit(static_cast<sat::Var>(rng.below(n)),
                                   rng.flip()));
    }
    const std::vector<sat::Lit> baseAssumps(assumps.begin() + 1,
                                            assumps.end());
    const sat::Result r = s.solve(assumps);
    const bool expectSat = bruteSat(clauses, baseAssumps);
    CHECK_EQ(static_cast<int>(r), static_cast<int>(expectSat
                                                       ? sat::Result::Sat
                                                       : sat::Result::Unsat));
    if (r == sat::Result::Sat) {
      sats++;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const sat::Lit l : cl) any = any || s.modelValue(l);
        CHECK(any);
      }
      for (const sat::Lit a : assumps) CHECK(s.modelValue(a));
    } else if (r == sat::Result::Unsat) {
      unsats++;
      // The core is a subset of the assumptions that alone refutes.
      std::vector<sat::Lit> core;
      bool withT = false;
      for (const sat::Lit l : s.unsatAssumptions()) {
        CHECK(std::find(assumps.begin(), assumps.end(), l) != assumps.end());
        if (l == sat::mkLit(t)) {
          withT = true;
        } else {
          core.push_back(l);
        }
      }
      CHECK(!bruteSat(withT ? clauses : base, core));
    }
    s.releaseVar(sat::mkLit(t, true));
    if (!later.empty()) base.push_back(later);
  }
  CHECK(s.okay());
  CHECK(sats > 0);
  CHECK(unsats > 0);
  // Many cleanups ran, and the pool stays bounded: without recycling
  // every query would add a variable.
  CHECK(reused >= 1000u);
  CHECK(s.numVars() <= n + 2 * 64);
}

// ---------------------------------------------------------------------------
// CNF encoding

void checkCnfMatchesNetlist(const nlx::Netlist& nl) {
  const std::size_t n = nl.inputs().size();
  CHECK(n <= 10);
  lis::aig::Aig g;
  std::map<nlx::NodeId, lis::aig::Lit> piOf;
  for (const nlx::NodeId id : nl.inputs()) piOf[id] = g.addPi();
  const std::vector<lis::aig::Lit> outs = sat::appendCombinational(
      g, nl, [&](nlx::NodeId id) { return piOf.at(id); });

  sat::Solver s;
  sat::AigCnf cnf(s, g);
  std::vector<sat::Lit> outLits;
  for (const lis::aig::Lit l : outs) outLits.push_back(cnf.lit(l));
  std::vector<sat::Lit> inLits;
  for (std::size_t i = 0; i < n; i++) inLits.push_back(cnf.piLit(i));

  for (std::uint32_t pat = 0; pat < (1u << n); pat++) {
    std::vector<sat::Lit> assume;
    std::map<nlx::NodeId, bool> inputs;
    for (std::size_t i = 0; i < n; i++) {
      const bool v = ((pat >> i) & 1u) != 0;
      assume.push_back(v ? inLits[i] : sat::litNeg(inLits[i]));
      inputs[nl.inputs()[i]] = v;
    }
    CHECK_EQ(static_cast<int>(s.solve(assume)),
             static_cast<int>(sat::Result::Sat));
    const std::vector<bool> want = evalNetlist(nl, inputs);
    for (std::size_t o = 0; o < outs.size(); o++) {
      CHECK_EQ(s.modelValue(outLits[o]), want[o]);
    }
  }
}

void testCnfVsExhaustiveEvaluation() {
  checkCnfMatchesNetlist(gen::adder(4)); // 8 inputs
  checkCnfMatchesNetlist(gen::muxTree(2, gen::MuxStyle::Tree));
  checkCnfMatchesNetlist(gen::muxTree(2, gen::MuxStyle::SumOfProducts));
  for (std::uint64_t seed = 1; seed <= 3; seed++) {
    checkCnfMatchesNetlist(gen::randomDag(8, 60, 4, seed));
  }
}

void testUnrollerCountsFrames() {
  // 2-bit counter with enable: verifies reset-constant folding, the
  // enable ITE linking and per-frame input variables in one design.
  nlx::Netlist nl("counter");
  const nlx::NodeId en = nl.addInput("en");
  const nlx::NodeId q0 = nl.mkDff(nl.constant(false), en);
  const nlx::NodeId q1 = nl.mkDff(nl.constant(false), en);
  nl.setDffInputs(q0, nl.mkNot(q0), en);
  nl.setDffInputs(q1, nl.mkXor(q1, q0), en);
  nl.addOutput("b0", q0);
  nl.addOutput("b1", q1);
  const nlx::NodeId b0 = nl.outputs()[0];
  const nlx::NodeId b1 = nl.outputs()[1];

  const lis::aig::SequentialAig sa = lis::aig::fromNetlist(nl);
  {
    // Enable forced high: the counter counts the frame index.
    sat::Solver s;
    sat::Unroller u(s, sa, {{en, true}});
    for (unsigned k = 0; k < 6; k++) u.pushFrame();
    CHECK_EQ(static_cast<int>(s.solve()), static_cast<int>(sat::Result::Sat));
    for (unsigned k = 0; k < 6; k++) {
      CHECK_EQ(s.modelValue(u.outputLit(k, b0)), (k & 1u) != 0);
      CHECK_EQ(s.modelValue(u.outputLit(k, b1)), (k & 2u) != 0);
      CHECK_THROWS(u.inputLit(k, en), std::invalid_argument);
    }
  }
  {
    // Enable free: asking for count==2 at frame 2 forces it high twice.
    sat::Solver s;
    sat::Unroller u(s, sa);
    for (unsigned k = 0; k < 3; k++) u.pushFrame();
    const sat::Result r = s.solve(
        {sat::litNeg(u.outputLit(2, b0)), u.outputLit(2, b1)});
    CHECK_EQ(static_cast<int>(r), static_cast<int>(sat::Result::Sat));
    CHECK(s.modelValue(u.inputLit(0, en)));
    CHECK(s.modelValue(u.inputLit(1, en)));
  }
}

// ---------------------------------------------------------------------------
// SAT sweeping

void testSweepMergesRedundantXor() {
  // Redundancy that structural hashing can NOT catch (commutative swaps
  // strash away on their own): different association orders of the same
  // parity and conjunction functions.
  nlx::Netlist nl("redundant");
  const nlx::NodeId a = nl.addInput("a");
  const nlx::NodeId b = nl.addInput("b");
  const nlx::NodeId c = nl.addInput("c");
  nl.addOutput("p1", nl.mkXor(nl.mkXor(a, b), c));
  nl.addOutput("p2", nl.mkXor(a, nl.mkXor(b, c)));
  nl.addOutput("g1", nl.mkAnd(nl.mkAnd(a, b), c));
  nl.addOutput("g2", nl.mkAnd(a, nl.mkAnd(b, c)));

  const sat::NetlistSweepResult swept = sat::sweepNetlist(nl);
  CHECK(swept.stats.proved > 0);
  CHECK(swept.stats.andsAfter < swept.stats.andsBefore);
  CHECK_EQ(swept.stats.undecided, 0u);
  const nlx::EquivResult eq = nlx::checkCombEquivalence(nl, swept.netlist);
  CHECK(eq.equivalent);
}

void testSweepSoundnessOnRealConfigs() {
  // Post-sweep netlists must stay sequentially equivalent on the real
  // wrapper/mesh constructions (the pipeline pass asserts the same).
  for (const lsync::Encoding enc :
       {lsync::Encoding::OneHot, lsync::Encoding::Binary}) {
    lsync::WrapperConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 1;
    cfg.encoding = enc;
    const lsync::System w = lsync::buildSystem(lsync::wrapperSpec(cfg));
    const sat::NetlistSweepResult swept = sat::sweepNetlist(w.netlist);
    const nlx::SeqEquivResult r =
        nlx::checkSeqEquivalence(w.netlist, swept.netlist);
    CHECK(r.equivalent);
    CHECK(!r.degraded);
  }
  lsync::SystemSpec mesh = lsync::meshSpec(2, 2, 1, lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(mesh);
  const sat::NetlistSweepResult swept = sat::sweepNetlist(sys.netlist);
  const nlx::SeqEquivResult r =
      nlx::checkSeqEquivalence(sys.netlist, swept.netlist);
  CHECK(r.equivalent);
  CHECK(!r.degraded);
}

// ---------------------------------------------------------------------------
// bounded model checking

void testBmcHoldsOnCleanDesigns() {
  lsync::SystemSpec spec = lsync::chainSpec(2, 1, lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  sat::BmcOptions opts;
  opts.depth = 12;
  opts.capacityBound = sat::capacityBound(spec);
  const sat::BmcResult r =
      sat::checkInvariants(sys.netlist, lsync::portView(sys.ports), opts);
  CHECK(r.allHold());
  CHECK(!r.anyDegraded());
  CHECK_EQ(r.minDepthReached(), opts.depth);
  CHECK_EQ(r.properties.size(), 3u);

  lsync::WrapperConfig cfg;
  cfg.numInputs = 1;
  cfg.numOutputs = 1;
  const lsync::SystemSpec wspec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(wspec);
  sat::BmcOptions wopts;
  wopts.depth = 10;
  wopts.capacityBound = sat::capacityBound(wspec);
  const sat::BmcResult wr =
      sat::checkInvariants(w.netlist, lsync::portView(w.ports), wopts);
  CHECK(wr.allHold());
  CHECK(!wr.anyDegraded());
  CHECK_EQ(wr.minDepthReached(), wopts.depth);
}

void testBmcBrokenRelayKnownDepth() {
  // A "relay" that asserts out_valid from reset and never stalls its
  // producer: it invents a token every cycle. With capacity bound B the
  // delivered counter reads k at frame k, so token conservation first
  // fails at frame B+1 — exactly, and on every run.
  nlx::Netlist nl("broken_relay");
  const nlx::NodeId inValid = nl.addInput("in_valid");
  const nlx::NodeId inData = nl.addInput("in_data");
  const nlx::NodeId outStop = nl.addInput("out_stop");
  nl.addOutput("in_stop", nl.constant(false));
  nl.addOutput("out_valid", nl.constant(true));
  nl.addOutput("out_data", nl.mkDff(inData));
  lsync::PortView view;
  view.inValid = {inValid};
  view.inData = {{inData}};
  view.inStop = {nl.outputs()[0]};
  view.outValid = {nl.outputs()[1]};
  view.outData = {{nl.outputs()[2]}};
  view.outStop = {outStop};

  sat::BmcOptions opts;
  opts.depth = 10;
  opts.capacityBound = 2;
  for (int run = 0; run < 2; run++) {
    const sat::BmcResult r = sat::checkInvariants(nl, view, opts);
    CHECK_EQ(r.properties.size(), 3u);
    const sat::BmcPropertyResult& token = r.properties[0];
    CHECK(token.name == "token_conservation");
    CHECK(token.violated);
    CHECK_EQ(token.failDepth, opts.capacityBound + 1);
    // The environment may also stuff tokens in while stalling the
    // output for ever: occupancy breaks at the same depth.
    const sat::BmcPropertyResult& occ = r.properties[1];
    CHECK(occ.violated);
    CHECK_EQ(occ.failDepth, opts.capacityBound + 1);
    // Under the maximal-progress environment this design always makes
    // progress, so the watchdog holds.
    const sat::BmcPropertyResult& wd = r.properties[2];
    CHECK(wd.name == "deadlock_watchdog");
    CHECK(!wd.violated);
    CHECK_EQ(wd.depthReached, opts.depth);
  }
}

// ---------------------------------------------------------------------------
// unbounded proofs (PDR)

/// The deliberately broken relay from testBmcBrokenRelayKnownDepth,
/// shared by the unbounded-proof counterexample tests.
nlx::Netlist brokenRelay(lsync::PortView& view) {
  nlx::Netlist nl("broken_relay");
  const nlx::NodeId inValid = nl.addInput("in_valid");
  const nlx::NodeId inData = nl.addInput("in_data");
  const nlx::NodeId outStop = nl.addInput("out_stop");
  nl.addOutput("in_stop", nl.constant(false));
  nl.addOutput("out_valid", nl.constant(true));
  nl.addOutput("out_data", nl.mkDff(inData));
  view.inValid = {inValid};
  view.inData = {{inData}};
  view.inStop = {nl.outputs()[0]};
  view.outValid = {nl.outputs()[1]};
  view.outData = {{nl.outputs()[2]}};
  view.outStop = {outStop};
  return nl;
}

void testResultEmptyEdges() {
  // The all-disabled edge: zero enabled properties must read as "nothing
  // proven" on both result types — BmcResult pairs vacuous allHold()
  // with minDepthReached() == 0, PdrResult's allProved() is explicitly
  // false — so neither can masquerade as a proof.
  const sat::BmcResult emptyBmc;
  CHECK(emptyBmc.allHold());
  CHECK_EQ(emptyBmc.minDepthReached(), 0u);
  const sat::PdrResult emptyPdr;
  CHECK(!emptyPdr.allProved());
  CHECK_EQ(emptyPdr.minDepthReached(), 0u);

  lsync::SystemSpec spec = lsync::chainSpec(2, 1, lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  sat::BmcOptions bopts;
  bopts.tokenConservation = false;
  bopts.occupancyBound = false;
  bopts.deadlockWatchdog = false;
  const sat::BmcResult br =
      sat::checkInvariants(sys.netlist, lsync::portView(sys.ports), bopts);
  CHECK(br.properties.empty());
  CHECK(br.allHold());
  CHECK_EQ(br.minDepthReached(), 0u);
  sat::PdrOptions popts;
  popts.tokenConservation = false;
  popts.occupancyBound = false;
  popts.deadlockWatchdog = false;
  const sat::PdrResult pr =
      sat::proveUnbounded(sys.netlist, lsync::portView(sys.ports), popts);
  CHECK(pr.properties.empty());
  CHECK(!pr.allProved());
  CHECK_EQ(pr.minDepthReached(), 0u);
}

void testPdrProvesHandBuiltMachines() {
  // A register that holds its reset value for ever: PDR must find the
  // one-clause inductive invariant (q) and hit the fixpoint.
  {
    nlx::Netlist nl("hold");
    const nlx::NodeId q = nl.mkDff(nl.constant(false), nlx::kNoNode, true);
    nl.setDffInputs(q, q);
    const nlx::NodeId bad = nl.addOutput("bad", nl.mkNot(q));
    sat::SolverStats stats;
    sat::PdrOptions opts;
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, {}, opts, stats);
    CHECK(r.provedUnbounded);
    CHECK(!r.violated);
    CHECK(!r.degraded);
    CHECK(r.frames >= 2u);
    CHECK(r.clauses >= 1u);
    CHECK(r.engine.cubesBlocked >= 1u);
    CHECK(stats.solves > 0);
    // The certificate is the one cube q == 0, named by the DFF node.
    CHECK(r.certificateError.empty());
    CHECK_EQ(r.invariant.size(), 1u);
    if (r.invariant.size() == 1) {
      CHECK_EQ(r.invariant[0].size(), 1u);
      CHECK(r.invariant[0][0].dff == q);
      CHECK(!r.invariant[0][0].value);
    }
  }
  // A register that resets to 1 and loads 0, with bad = q: the reset
  // state itself is bad. PDR's first bad state meets init, so the
  // violation comes back at depth 0 with a one-frame trace.
  {
    nlx::Netlist nl("bad_reset");
    const nlx::NodeId q = nl.mkDff(nl.constant(false), nlx::kNoNode, true);
    const nlx::NodeId bad = nl.addOutput("bad", q);
    sat::SolverStats stats;
    sat::PdrOptions opts;
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, {}, opts, stats);
    CHECK(r.violated);
    CHECK(!r.provedUnbounded);
    CHECK(!r.degraded);
    CHECK_EQ(r.failDepth, 0u);
    CHECK_EQ(r.trace.frames.size(), 1u);
  }
  // A 3-bit counter that saturates at 7 with bad = (value == 2) — but 2
  // is unreachable because the counter steps 0,1,3,7 (shift-in style).
  // Not 0/1-inductive from the property alone: the engine has to learn
  // clauses about the reachable state shape.
  {
    nlx::Netlist nl("shift3");
    std::vector<nlx::NodeId> q;
    for (int i = 0; i < 3; i++) {
      q.push_back(nl.mkDff(nl.constant(false)));
    }
    // q2 <- q1 <- q0 <- 1: states 000, 001, 011, 111.
    nl.setDffInputs(q[0], nl.constant(true));
    nl.setDffInputs(q[1], q[0]);
    nl.setDffInputs(q[2], q[1]);
    // bad = 010: q1 & !q0 & !q2 (any state with q1 set but q0 clear).
    const nlx::NodeId bad = nl.addOutput(
        "bad", nl.mkAnd(q[1], nl.mkAnd(nl.mkNot(q[0]), nl.mkNot(q[2]))));
    sat::SolverStats stats;
    sat::PdrOptions opts;
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, {}, opts, stats);
    CHECK(r.provedUnbounded);
  }
  // A forced input outside the property's cone is dropped before the
  // unrolling, and the trace still carries the caller's forced list:
  // bad is a delayed copy of input x, fires at cycle 1, and never reads
  // the forced input `idle`.
  {
    nlx::Netlist nl("delay");
    const nlx::NodeId x = nl.addInput("x");
    const nlx::NodeId idle = nl.addInput("idle");
    nl.addOutput("idle_q", nl.mkDff(idle));
    const nlx::NodeId bad = nl.addOutput("bad", nl.mkDff(x));
    sat::SolverStats stats;
    const sat::PdrPropertyResult r =
        sat::provePropertyUnbounded(nl, bad, {{idle, true}}, {}, stats);
    CHECK(r.violated);
    CHECK_EQ(r.failDepth, 1u);
    CHECK_EQ(r.coneDffs, 1u);
    CHECK(r.trace.inputs == std::vector<nlx::NodeId>{x});
    CHECK_EQ(r.trace.forced.size(), 1u);
    CHECK(r.trace.forced[0].input == idle);
    CHECK(!r.trace.frames.empty() && r.trace.frames[0][0]);
  }
}

/// Where random traffic met a cube of a PDR invariant: the cycle, and the
/// cube some lane's state then lay in.
struct InvariantEscape {
  unsigned cycle = 0;
  std::size_t cube = 0;
};

/// Simulate `nl` from reset in 256 BitSim lanes for `cycles` cycles, every
/// input random in every lane each cycle but the `forced` ones, and after
/// every settle look for a lane whose state lies in a cube of `inv` (the
/// states the invariant excludes). A check of PDR's proofs that shares no
/// code with the SAT engines. `probe` sees the simulator after every
/// settle.
std::optional<InvariantEscape> simulateInvariant(
    const nlx::Netlist& nl, const std::vector<sat::ForcedInput>& forced,
    const std::vector<sat::StateCube>& inv, unsigned cycles,
    const std::function<void(unsigned, const nlx::BitSim&)>& probe = {}) {
  nlx::BitSim sim(nl, 4);
  for (const sat::ForcedInput& f : forced) sim.setForce(f.input, f.value);
  sim.reset();
  lis::support::SplitMix64 rng(0x5EED1A5);
  for (unsigned cycle = 0; cycle < cycles; ++cycle) {
    // Forces overwrite the random words of the forced inputs.
    for (const nlx::NodeId in : nl.inputs()) {
      for (unsigned w = 0; w < sim.numWords(); ++w) {
        sim.setInputWord(in, w, rng.next());
      }
    }
    sim.settle();
    if (probe) probe(cycle, sim);
    for (std::size_t c = 0; c < inv.size(); ++c) {
      for (unsigned w = 0; w < sim.numWords(); ++w) {
        std::uint64_t inCube = nlx::BitSim::kAllLanes;
        for (const sat::StateLit& l : inv[c]) {
          const std::uint64_t q = sim.word(l.dff, w);
          inCube &= l.value ? q : ~q;
        }
        if (inCube != 0) return InvariantEscape{cycle, c};
      }
    }
    sim.clock();
  }
  return std::nullopt;
}

void testPdrCleanTopologiesProvedUnbounded() {
  // The acceptance matrix: every canned topology in both encodings,
  // all three protocol invariants proved for all time within the
  // default budgets, and every exported invariant holding on 1000 cycles
  // of random traffic from reset.
  for (lsync::Encoding enc :
       {lsync::Encoding::OneHot, lsync::Encoding::Binary}) {
    std::vector<lsync::SystemSpec> specs = {
        lsync::chainSpec(3, 1, enc), lsync::forkSpec(enc),
        lsync::joinSpec(enc), lsync::ringSpec(enc)};
    for (lsync::SystemSpec& spec : specs) {
      const lsync::System sys = lsync::buildSystem(spec);
      sat::PdrOptions opts;
      opts.capacityBound = sat::capacityBound(spec);
      const sat::PdrResult r =
          sat::proveUnbounded(sys.netlist, lsync::portView(sys.ports), opts);
      CHECK_EQ(r.properties.size(), 3u);
      CHECK(r.allProved());
      CHECK(!r.anyViolated());
      CHECK(!r.anyDegraded());
      CHECK_EQ(r.minDepthReached(), ~0u);
      // A proof is reported only with a checked invariant.
      for (const sat::PdrPropertyResult& p : r.properties) {
        CHECK(p.certificateError.empty());
      }
      // The counter properties are proved on their cone, which leaves
      // out the pearls' datapath registers.
      for (std::size_t p = 0; p < 2 && p < r.properties.size(); ++p) {
        CHECK(r.properties[p].coneDffs > 0u);
        CHECK(r.properties[p].coneDffs < sys.netlist.dffs().size());
      }
      // The invariants name DFFs of the monitor proveUnbounded built; the
      // same options rebuild it node for node.
      const sat::Monitor mon = sat::buildPdrMonitor(
          sys.netlist, lsync::portView(sys.ports), opts);
      for (const sat::PdrPropertyResult& p : r.properties) {
        const std::vector<sat::ForcedInput> forced =
            p.name == "deadlock_watchdog" ? mon.maximalEnv
                                          : std::vector<sat::ForcedInput>{};
        const auto escape =
            simulateInvariant(mon.nl, forced, p.invariant, 1000);
        if (escape) {
          std::printf("%s %s: cycle %u reaches invariant cube %zu\n",
                      sys.netlist.name().c_str(), p.name.c_str(),
                      escape->cycle, escape->cube);
        }
        CHECK(!escape.has_value());
        // The check bites: lane 0's values at cycle 10 of the DFFs the
        // invariant names, as one more cube, are reported by cycle 10.
        constexpr unsigned kSeen = 10;
        std::vector<nlx::NodeId> named;
        for (const sat::StateCube& cube : p.invariant) {
          for (const sat::StateLit& l : cube) named.push_back(l.dff);
        }
        std::sort(named.begin(), named.end());
        named.erase(std::unique(named.begin(), named.end()), named.end());
        sat::StateCube seen;
        simulateInvariant(mon.nl, forced, {}, kSeen + 1,
                          [&](unsigned cycle, const nlx::BitSim& sim) {
                            if (cycle != kSeen) return;
                            for (const nlx::NodeId dff : named) {
                              seen.push_back({dff, sim.lane(dff, 0)});
                            }
                          });
        std::vector<sat::StateCube> spoiled = p.invariant;
        spoiled.push_back(seen);
        const auto caught = simulateInvariant(mon.nl, forced, spoiled, 1000);
        CHECK(caught.has_value());
        if (caught) {
          CHECK_EQ(caught->cube, p.invariant.size());
          CHECK(caught->cycle <= kSeen);
        }
      }
    }
  }
}

void testPdrCertificateChecker() {
  // ringSpec(Binary)'s watchdog proof through the public pieces: the PDR
  // monitor, the single-property entry and the checker. The checker
  // accepts the exported invariant and rejects every way of spoiling it.
  const lsync::SystemSpec spec = lsync::ringSpec(lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  sat::PdrOptions opts;
  opts.capacityBound = sat::capacityBound(spec);
  const sat::Monitor mon =
      sat::buildPdrMonitor(sys.netlist, lsync::portView(sys.ports), opts);
  sat::SolverStats stats;
  const sat::PdrPropertyResult r = sat::provePropertyUnbounded(
      mon.nl, mon.wdOut, mon.maximalEnv, opts, stats);
  CHECK(r.provedUnbounded);
  CHECK(r.certificateError.empty());
  CHECK(!r.invariant.empty());
  if (r.invariant.empty()) return;
  const auto check = [&](const std::vector<sat::StateCube>& inv) {
    return sat::checkInvariant(mon.nl, mon.wdOut, mon.maximalEnv, inv);
  };
  CHECK(check(r.invariant).ok);
  CHECK(check(r.invariant).detail.empty());
  // No invariant at all admits a bad state.
  const sat::InvariantCheck none = check({});
  CHECK(!none.ok);
  CHECK(none.detail.find("bad") != std::string::npos);
  // A cube that meets reset excludes the initial state.
  std::vector<sat::StateCube> withReset = r.invariant;
  sat::StateCube resetCube = r.invariant[0];
  for (sat::StateLit& l : resetCube) l.value = mon.nl.node(l.dff).resetValue;
  withReset.push_back(resetCube);
  const sat::InvariantCheck meets = check(withReset);
  CHECK(!meets.ok);
  CHECK(meets.detail.find("reset") != std::string::npos);
  // A literal on a node that is no DFF of the watchdog's cone.
  std::vector<sat::StateCube> stray = r.invariant;
  stray[0].push_back({mon.wdOut, true});
  CHECK(!check(stray).ok);
  // The invariant is not padding: dropping some one cube breaks it.
  std::size_t needed = 0;
  for (std::size_t i = 0; i < r.invariant.size(); i++) {
    std::vector<sat::StateCube> weaker = r.invariant;
    weaker.erase(weaker.begin() + static_cast<std::ptrdiff_t>(i));
    if (!check(weaker).ok) needed++;
  }
  CHECK(needed >= 1u);
}

void testPdrSearchPinned() {
  // PDR's search is pinned on ringSpec(Binary), one property at a time,
  // default options: the trapezoid, the invariant, the solver totals over
  // the property's per-frame and lift solvers, and the solver work of
  // every query kind. Each query's activation variable is released and
  // recycled at the next level-0 cleanup of its frame's solver; a change
  // to the recycling, to the solver layout or to the netlist the protocol
  // monitor builds would move them.
  struct Pin {
    const char* name;
    unsigned frames, clauses;
    std::size_t invariant;
    std::uint64_t conflicts, propagations, solves, decisions;
    // Solves / propagations per PDR query kind, in kinds order.
    sat::PdrQueryWork work[6];
  };
  const sat::PdrQuery kinds[] = {
      sat::PdrQuery::Frame,       sat::PdrQuery::Lift,
      sat::PdrQuery::Consecution, sat::PdrQuery::Mic,
      sat::PdrQuery::Forward,     sat::PdrQuery::Push};
  const Pin pins[] = {
      {"token_conservation", 21, 515, 221, 7580, 2237783, 13112, 73781,
       {{36, 4209}, {329, 60207}, {943, 165188}, {5790, 1036606},
        {457, 94253}, {5557, 877320}}},
      {"occupancy_bound", 10, 85, 66, 836, 242991, 1435, 9685,
       {{17, 1859}, {60, 10980}, {154, 24190}, {868, 151620}, {83, 16261},
        {253, 38081}}},
      {"deadlock_watchdog", 13, 55, 29, 375, 59229, 682, 2637,
       {{18, 1307}, {40, 4917}, {92, 8382}, {126, 12522}, {70, 7282},
        {336, 24819}}},
  };
  const lsync::SystemSpec spec = lsync::ringSpec(lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  for (const Pin& pin : pins) {
    sat::PdrOptions opts;
    opts.capacityBound = sat::capacityBound(spec);
    opts.tokenConservation = std::string(pin.name) == "token_conservation";
    opts.occupancyBound = std::string(pin.name) == "occupancy_bound";
    opts.deadlockWatchdog = std::string(pin.name) == "deadlock_watchdog";
    const sat::PdrResult r =
        sat::proveUnbounded(sys.netlist, lsync::portView(sys.ports), opts);
    CHECK_EQ(r.properties.size(), 1u);
    if (r.properties.size() != 1) continue;
    const sat::PdrPropertyResult& p = r.properties[0];
    CHECK(p.name == pin.name);
    CHECK(p.provedUnbounded);
    CHECK_EQ(p.frames, pin.frames);
    CHECK_EQ(p.clauses, pin.clauses);
    CHECK_EQ(p.invariant.size(), pin.invariant);
    CHECK_EQ(r.stats.conflicts, pin.conflicts);
    CHECK_EQ(r.stats.propagations, pin.propagations);
    CHECK_EQ(r.stats.solves, pin.solves);
    CHECK_EQ(r.stats.decisions, pin.decisions);
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      CHECK_EQ(p.engine.at(kinds[k]).solves, pin.work[k].solves);
      CHECK_EQ(p.engine.at(kinds[k]).propagations, pin.work[k].propagations);
    }
    // Every solve and propagation is charged to exactly one query kind.
    std::uint64_t solves = 0;
    std::uint64_t propagations = 0;
    for (const sat::PdrQueryWork& w : p.engine.work) {
      solves += w.solves;
      propagations += w.propagations;
    }
    CHECK_EQ(solves, r.stats.solves);
    CHECK_EQ(propagations, r.stats.propagations);
  }

  // BMC releases no variable, so its cleanups must keep every learnt
  // clause, the ones satisfied at level 0 included, and relocate (not
  // clear) level-0 reasons, which lock learnts in reduceDB: either
  // shortcut moves BMC's search on chain2_d1 (5425 and 5122 conflicts).
  // So would any change to the netlist the shared monitor builds for BMC.
  const lsync::SystemSpec chain =
      lsync::chainSpec(2, 1, lsync::Encoding::OneHot);
  const lsync::System chainSys = lsync::buildSystem(chain);
  sat::BmcOptions bopts;
  bopts.depth = 20;
  bopts.capacityBound = sat::capacityBound(chain);
  const sat::BmcResult b = sat::checkInvariants(
      chainSys.netlist, lsync::portView(chainSys.ports), bopts);
  CHECK(b.allHold());
  CHECK_EQ(b.stats.conflicts, 5317u);
  CHECK_EQ(b.stats.propagations, 1660199u);
}

void testPdrBrokenRelayCexAndReplay() {
  // The counterexample comes out of PDR's obligation chain at the
  // (provably minimal) depth 1: the monitor's reset sits one step above
  // the token rail, so the first unbacked delivery (cycle 0, observable
  // through the registers at cycle 1) is caught immediately, independent
  // of the capacity bound.
  lsync::PortView view;
  const nlx::Netlist nl = brokenRelay(view);
  sat::PdrOptions opts;
  opts.capacityBound = 2;
  sat::ReplayOptions ropts;
  ropts.capacityBound = 2;
  // The token property's cone holds the handshake inputs only: its trace
  // lists broken-relay inputs and never the data bit, which no handshake
  // reads.
  const auto checkConeTrace = [&](const sat::PdrTrace& trace) {
    CHECK(!trace.inputs.empty());
    for (const nlx::NodeId id : trace.inputs) {
      CHECK(std::find(nl.inputs().begin(), nl.inputs().end(), id) !=
            nl.inputs().end());
      CHECK(id != view.inData[0][0]);
    }
    for (const std::vector<bool>& frame : trace.frames) {
      CHECK_EQ(frame.size(), trace.inputs.size());
    }
  };
  {
    const sat::PdrResult r = sat::proveUnbounded(nl, view, opts);
    CHECK_EQ(r.properties.size(), 3u);
    const sat::PdrPropertyResult& token = r.properties[0];
    CHECK(token.name == "token_conservation");
    CHECK(token.violated);
    CHECK(!token.provedUnbounded);
    CHECK_EQ(token.failDepth, 1u);
    CHECK_EQ(token.trace.frames.size(), 2u);
    checkConeTrace(token.trace);
    const sat::ReplayResult rep =
        sat::replayTrace(nl, view, token.name, token.trace, ropts);
    CHECK(rep.reproduced);
    CHECK_EQ(rep.violationCycle, 1u);
    // The watchdog holds under maximal progress — and is in fact
    // provable for all time on this design.
    const sat::PdrPropertyResult& wd = r.properties[2];
    CHECK(wd.name == "deadlock_watchdog");
    CHECK(!wd.violated);
  }
}

void testReplayRejectsUnknownProperty() {
  // A misspelt property name is rejected, never replayed as some other
  // property.
  lsync::PortView view;
  const nlx::Netlist nl = brokenRelay(view);
  sat::PdrOptions opts;
  opts.capacityBound = 2;
  opts.occupancyBound = false;
  opts.deadlockWatchdog = false;
  const sat::PdrResult r = sat::proveUnbounded(nl, view, opts);
  CHECK_EQ(r.properties.size(), 1u);
  if (r.properties.size() != 1) return;
  const sat::PdrTrace& trace = r.properties[0].trace;
  sat::ReplayOptions ropts;
  ropts.capacityBound = 2;
  std::string message;
  try {
    sat::replayTrace(nl, view, "token_conservaton", trace, ropts);
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  CHECK(message.find("token_conservaton") != std::string::npos);
  // The three property names still replay.
  for (const char* name :
       {"token_conservation", "occupancy_bound", "deadlock_watchdog"}) {
    const sat::ReplayResult rep =
        sat::replayTrace(nl, view, name, trace, ropts);
    CHECK_EQ(rep.reproduced, std::string(name) == "token_conservation");
  }
}

void testProofSpansNameTheCone() {
  // Each property's span names its design and the cone its engine saw;
  // the BMC span counts the DFFs its unrollings encode per frame.
  lsync::PortView view;
  const nlx::Netlist nl = brokenRelay(view);
  lis::obs::Tracer& tracer = lis::obs::Tracer::instance();
  tracer.enable();
  sat::PdrOptions opts;
  opts.capacityBound = 2;
  const sat::PdrResult r = sat::proveUnbounded(nl, view, opts);
  sat::BmcOptions bopts;
  bopts.depth = 3;
  bopts.capacityBound = 2;
  sat::checkInvariants(nl, view, bopts);
  tracer.disable();
  const auto arg = [](const lis::obs::TraceEvent& e, const std::string& key) {
    for (const lis::obs::TraceArg& a : e.args) {
      if (a.key == key) return &a;
    }
    return static_cast<const lis::obs::TraceArg*>(nullptr);
  };
  std::size_t properties = 0;
  std::size_t bmcSpans = 0;
  for (const lis::obs::TraceEvent& e : tracer.snapshot()) {
    if (e.name == "sat.pdr.property") {
      const lis::obs::TraceArg* design = arg(e, "netlist");
      const lis::obs::TraceArg* cone = arg(e, "cone_dffs");
      CHECK(design != nullptr && design->text == "broken_relay");
      CHECK(cone != nullptr && properties < r.properties.size() &&
            cone->number == r.properties[properties].coneDffs);
      properties++;
    } else if (e.name == "sat.bmc") {
      const lis::obs::TraceArg* cone = arg(e, "cone_dffs");
      CHECK(cone != nullptr && cone->number > 0);
      bmcSpans++;
    }
  }
  CHECK_EQ(properties, r.properties.size());
  CHECK_EQ(bmcSpans, 1u);
}

void testPdrReplayOnCosimOracle() {
  // Lockstep replay against the behavioural oracle. On a clean wrapper
  // driving a hand-built maximal-progress trace: netlist and oracle
  // agree cycle for cycle and no invariant fires. On the broken relay
  // against the 1x1 wrapper's oracle: the monitor-mirror accounting
  // still reproduces the violation, and the oracle comparison pins the
  // blame on the netlist by disagreeing with it.
  lsync::WrapperConfig cfg;
  cfg.numInputs = 1;
  cfg.numOutputs = 1;
  const lsync::SystemSpec wspec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(wspec);
  const lsync::PortView wview = lsync::portView(w.ports);
  sat::PdrTrace trace;
  trace.inputs = {wview.inValid[0], wview.inData[0][0], wview.outStop[0]};
  for (int f = 0; f < 6; f++) {
    trace.frames.push_back({true, (f & 1) != 0, false});
  }
  sat::ReplayOptions ropts;
  ropts.capacityBound = sat::capacityBound(wspec);
  {
    lsync::Oracle beh(wspec);
    const sat::ReplayResult rep = sat::replayTrace(
        w.netlist, wview, "token_conservation", trace, ropts, &beh);
    CHECK(rep.oracleChecked);
    CHECK(rep.oracleAgrees);
    CHECK(!rep.reproduced);
  }
  {
    lsync::PortView bview;
    const nlx::Netlist broken = brokenRelay(bview);
    sat::PdrOptions opts;
    opts.capacityBound = 2;
    // Re-derive the PDR counterexample for the token property alone.
    sat::PdrResult r = sat::proveUnbounded(broken, bview, opts);
    const sat::PdrPropertyResult& token = r.properties[0];
    CHECK(token.violated);
    sat::ReplayOptions bropts;
    bropts.capacityBound = 2;
    lsync::Oracle beh(wspec);
    const sat::ReplayResult rep = sat::replayTrace(
        broken, bview, token.name, token.trace, bropts, &beh);
    CHECK(rep.reproduced);
    CHECK_EQ(rep.violationCycle, 1u);
    CHECK(rep.oracleChecked);
    CHECK(!rep.oracleAgrees); // the spec-true oracle never invents tokens
  }
}

void testPdrBudgetDegradesToBound() {
  // A starved solver can only weaken the verdict to a bounded one —
  // never to "proved for all time", and on a clean design never to a
  // fabricated counterexample.
  lsync::SystemSpec spec = lsync::ringSpec(lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  sat::PdrOptions opts;
  opts.capacityBound = sat::capacityBound(spec);
  opts.conflictBudget = 1;
  const sat::PdrResult r =
      sat::proveUnbounded(sys.netlist, lsync::portView(sys.ports), opts);
  CHECK_EQ(r.properties.size(), 3u);
  CHECK(r.anyDegraded());
  CHECK(!r.allProved());
  for (const sat::PdrPropertyResult& p : r.properties) {
    CHECK(!p.violated);
    if (p.degraded) CHECK(!p.provedUnbounded);
  }
}

// ---------------------------------------------------------------------------
// the SAT tier of the tiered equivalence checker

void testEquivSatTierProves() {
  // Swapped-operand adders strash to one cone inside the joint miter
  // AIG: the SAT tier discharges them structurally, zero solver calls.
  const nlx::EquivResult eq =
      nlx::checkCombEquivalence(gen::adder(16), gen::adder(16, true));
  CHECK(eq.equivalent);
  CHECK(eq.method == nlx::EquivMethod::Sat);
  CHECK(eq.confidence == 1.0);
  CHECK(!eq.degraded);

  // Mux-tree vs sum-of-products is structurally distinct: this proof
  // has to run the CDCL search and its footprint must be reported.
  const nlx::EquivResult mt = nlx::checkCombEquivalence(
      gen::muxTree(3, gen::MuxStyle::Tree),
      gen::muxTree(3, gen::MuxStyle::SumOfProducts));
  CHECK(mt.equivalent);
  CHECK(mt.method == nlx::EquivMethod::Sat);
  CHECK(mt.confidence == 1.0);
  CHECK(mt.proof.satPropagations > 0);
}

void testEquivSatTierRefutesWithReplayableCex() {
  nlx::EquivOptions opts;
  opts.simRounds = 0; // skip the sim screen so SAT produces the cex
  const nlx::Netlist a = gen::adder(8);
  const nlx::Netlist b = gen::adder(8, false, /*corruptMsb=*/true);
  const nlx::EquivResult r = nlx::checkCombEquivalence(a, b, opts);
  CHECK(!r.equivalent);
  CHECK(r.method == nlx::EquivMethod::Sat);
  CHECK(r.confidence == 1.0);
  CHECK(!r.failingOutput.empty());
  CHECK(r.cex.has_value());
  if (!r.cex.has_value()) return;
  // Replay: the reported input assignment must distinguish the pair at
  // the named output.
  std::map<nlx::NodeId, bool> inA, inB;
  std::map<std::string, bool> byName;
  for (const auto& [name, value] : r.cex->inputs) byName[name] = value;
  for (const nlx::NodeId id : a.inputs()) inA[id] = byName.at(a.node(id).name);
  for (const nlx::NodeId id : b.inputs()) inB[id] = byName.at(b.node(id).name);
  const std::vector<bool> outsA = evalNetlist(a, inA);
  const std::vector<bool> outsB = evalNetlist(b, inB);
  bool differs = false;
  for (std::size_t i = 0; i < a.outputs().size(); i++) {
    const std::string& name = a.node(a.outputs()[i]).name;
    for (std::size_t j = 0; j < b.outputs().size(); j++) {
      if (b.node(b.outputs()[j]).name == name && outsA[i] != outsB[j] &&
          name == r.failingOutput) {
        differs = true;
      }
    }
  }
  CHECK(differs);
}

void testWideModeCexReport() {
  // >64 inputs: the report must still name the failing output and an
  // assignment.
  const auto wideOr = [](unsigned n, bool dropLast) {
    nlx::Netlist nl("wide");
    std::vector<nlx::NodeId> ins;
    for (unsigned i = 0; i < n; i++) {
      ins.push_back(nl.addInput("x" + std::to_string(i)));
    }
    if (dropLast) ins.pop_back();
    nl.addOutput("y", nl.orTree(ins));
    return nl;
  };
  nlx::EquivOptions opts;
  opts.simRounds = 0;
  const nlx::EquivResult r =
      nlx::checkCombEquivalence(wideOr(70, false), wideOr(70, true), opts);
  CHECK(!r.equivalent);
  CHECK(r.failingOutput == "y");
  CHECK(r.cex.has_value());
  if (r.cex.has_value()) {
    CHECK(r.cex->output == "y");
    bool x69 = false;
    for (const auto& [name, value] : r.cex->inputs) {
      if (name == "x69") x69 = value;
    }
    CHECK(x69); // only x69 distinguishes the pair
  }
}

void testSatBudgetDegradesToScreen() {
  // A starved SAT miter degrades the proof to the deepened random screen.
  // The pair must be structurally distinct (a strash-discharged miter
  // never touches the budget), so: mux tree vs sum-of-products.
  nlx::EquivOptions opts;
  opts.satConflictBudget = 1;
  const nlx::EquivResult r = nlx::checkCombEquivalence(
      gen::muxTree(3, gen::MuxStyle::Tree),
      gen::muxTree(3, gen::MuxStyle::SumOfProducts), opts);
  CHECK(r.equivalent);
  CHECK(r.method == nlx::EquivMethod::Sim);
  CHECK(r.degraded);
  CHECK(r.confidence < 1.0);
  // The screened verdict still reports the partial SAT search.
  CHECK(r.proof.satPropagations > 0);
}

} // namespace

int main() {
  testLiteralHelpers();
  testTrivialClauses();
  testPigeonholeUnsat();
  testRandom3CnfVsBruteForce();
  testAssumptionsAndUnsatCore();
  testBudgetTiering();
  testSolverDeterminism();
  testReleasedVarsRecycleSoundly();
  testCnfVsExhaustiveEvaluation();
  testUnrollerCountsFrames();
  testSweepMergesRedundantXor();
  testSweepSoundnessOnRealConfigs();
  testBmcHoldsOnCleanDesigns();
  testBmcBrokenRelayKnownDepth();
  testResultEmptyEdges();
  testPdrProvesHandBuiltMachines();
  testPdrCleanTopologiesProvedUnbounded();
  testPdrCertificateChecker();
  testPdrSearchPinned();
  testPdrBrokenRelayCexAndReplay();
  testReplayRejectsUnknownProperty();
  testProofSpansNameTheCone();
  testPdrReplayOnCosimOracle();
  testPdrBudgetDegradesToBound();
  testEquivSatTierProves();
  testEquivSatTierRefutesWithReplayableCex();
  testSatBudgetDegradesToScreen();
  testWideModeCexReport();
  return testExit();
}
