// sat_test — the CDCL core against known-hard/known-easy instances, the
// CNF encoder against exhaustive netlist evaluation, SAT-sweeping
// soundness on real wrapper/mesh configs, and bounded model checking of
// the protocol invariants including a deliberately broken relay with a
// violation at a known depth.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "lis/oracle.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
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
    case nlx::Op::RomBit: {
      const nlx::Rom& rom = nl.rom(n.romId);
      std::uint64_t addr = 0;
      for (std::size_t i = 0; i < n.fanin.size(); i++) {
        addr |= std::uint64_t{val[n.fanin[i]] ? 1u : 0u} << i;
      }
      val[id] = addr < rom.words.size() &&
                ((rom.words[addr] >> n.romBit) & 1u) != 0;
      break;
    }
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
  checkCnfMatchesNetlist(gen::romReader(3, 4, 0x5eed));
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
    const lsync::Wrapper w = lsync::buildWrapper(cfg);
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
  const lsync::Wrapper w = lsync::buildWrapper(cfg);
  sat::BmcOptions wopts;
  wopts.depth = 10;
  wopts.capacityBound = sat::capacityBound(cfg);
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

void testPdrCleanTopologiesProvedUnbounded() {
  // The acceptance matrix: every canned topology in both encodings,
  // all three protocol invariants proved for all time within the
  // default budgets.
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
      // The counter properties are proved on their cone, which leaves
      // out the pearls' datapath registers.
      for (std::size_t p = 0; p < 2 && p < r.properties.size(); ++p) {
        CHECK(r.properties[p].coneDffs > 0u);
        CHECK(r.properties[p].coneDffs < sys.netlist.dffs().size());
      }
    }
  }
}

void testPdrSearchPinned() {
  // PDR's search is pinned on ringSpec(Binary), one property at a time,
  // default options: the trapezoid, the solver totals and the solver
  // work of every query kind. The solver's level-0 cleanup runs 33 times
  // on token_conservation, twice on occupancy_bound and once on the
  // watchdog without moving any of them; a change to the netlist the
  // protocol monitor builds would move them.
  struct Pin {
    const char* name;
    unsigned frames, clauses;
    std::uint64_t conflicts, propagations, solves, decisions;
    // Solves / propagations per PDR query kind, in kinds order.
    sat::PdrQueryWork work[6];
  };
  const sat::PdrQuery kinds[] = {
      sat::PdrQuery::Frame,       sat::PdrQuery::Lift,
      sat::PdrQuery::Consecution, sat::PdrQuery::Mic,
      sat::PdrQuery::Forward,     sat::PdrQuery::Push};
  const Pin pins[] = {
      {"token_conservation", 17, 486, 5413, 2274760, 12340, 65634,
       {{29, 3241}, {315, 60759}, {965, 175990}, {6631, 1273296},
        {539, 103799}, {3861, 657675}}},
      {"occupancy_bound", 9, 65, 390, 153576, 923, 7131,
       {{16, 1765}, {45, 8516}, {111, 17955}, {529, 92595}, {52, 8549},
        {170, 24196}}},
      {"deadlock_watchdog", 11, 43, 87, 50273, 463, 1761,
       {{16, 938}, {35, 4558}, {75, 8367}, {106, 12945}, {46, 5305},
        {185, 18160}}},
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

  // The cleanup must keep learnt clauses satisfied at level 0 and relocate
  // (not clear) level-0 reasons, which lock learnts in reduceDB: either
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
  const lsync::Wrapper w = lsync::buildWrapper(cfg);
  const lsync::PortView wview = lsync::portView(w.ports);
  sat::PdrTrace trace;
  trace.inputs = {wview.inValid[0], wview.inData[0][0], wview.outStop[0]};
  for (int f = 0; f < 6; f++) {
    trace.frames.push_back({true, (f & 1) != 0, false});
  }
  sat::ReplayOptions ropts;
  ropts.capacityBound = sat::capacityBound(cfg);
  {
    lsync::Oracle beh(cfg);
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
    lsync::Oracle beh(cfg);
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
  CHECK(r.counterexample.has_value());
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
  // >64 inputs: the compact uint64 counterexample cannot exist, but the
  // shared report must still name the failing output and an assignment.
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
  CHECK(!r.counterexample.has_value()); // wide: no compact form
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
  testCnfVsExhaustiveEvaluation();
  testUnrollerCountsFrames();
  testSweepMergesRedundantXor();
  testSweepSoundnessOnRealConfigs();
  testBmcHoldsOnCleanDesigns();
  testBmcBrokenRelayKnownDepth();
  testResultEmptyEdges();
  testPdrProvesHandBuiltMachines();
  testPdrCleanTopologiesProvedUnbounded();
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
