#include "netlist/equiv.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/design.hpp"
#include "lis/system.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/generate.hpp"
#include "netlist/netlist_sim.hpp"
#include "netlist/seq_equiv.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

using namespace lis::netlist;

namespace {

/// Replay a named-input counterexample report on both netlists and
/// confirm the named output really disagrees (any interface width).
bool cexReplays(const Netlist& a, const Netlist& b, const EquivResult& res) {
  if (!res.cex.has_value() || res.cex->output != res.failingOutput) {
    return false;
  }
  std::map<std::string, bool> byName(res.cex->inputs.begin(),
                                     res.cex->inputs.end());
  NetlistSim simA(a), simB(b);
  for (NodeId id : a.inputs()) simA.setInput(id, byName.at(a.node(id).name));
  for (NodeId id : b.inputs()) simB.setInput(id, byName.at(b.node(id).name));
  simA.settle();
  simB.settle();
  return simA.outputValue(res.failingOutput) !=
         simB.outputValue(res.failingOutput);
}

void testEquivalentPairs() {
  const EquivResult adderEq =
      checkCombEquivalence(gen::adder(12), gen::adder(12, true));
  CHECK(adderEq.equivalent);
  CHECK(!adderEq.cex.has_value());

  const EquivResult muxEq =
      checkCombEquivalence(gen::muxTree(4, gen::MuxStyle::Tree),
                           gen::muxTree(4, gen::MuxStyle::SumOfProducts));
  CHECK(muxEq.equivalent);
}

void testInequivalentBysim() {
  const Netlist a = gen::adder(12);
  const Netlist b = gen::adder(12, false, /*corruptMsb=*/true);
  const EquivResult res = checkCombEquivalence(a, b);
  CHECK(!res.equivalent);
  // A corrupted sum bit disagrees on ~half of all patterns: the random
  // sweep must catch it before the SAT miter is ever built.
  CHECK(res.method == EquivMethod::Sim);
  CHECK(cexReplays(a, b, res));
}

void testSatCatchesNeedle() {
  // f = AND of 24 inputs vs. constant 0: the two differ on exactly one of
  // 2^24 assignments, which the 4096-pattern random sweep (deterministic
  // seed) does not hit — the SAT miter must find the needle.
  Netlist a("needle_and");
  std::vector<NodeId> ins;
  for (unsigned i = 0; i < 24; ++i) {
    ins.push_back(a.addInput("x_" + std::to_string(i)));
  }
  a.addOutput("o", a.andTree(ins));

  Netlist b("needle_zero");
  for (unsigned i = 0; i < 24; ++i) {
    (void)b.addInput("x_" + std::to_string(i));
  }
  b.addOutput("o", b.constant(false));

  const EquivResult res = checkCombEquivalence(a, b);
  CHECK(!res.equivalent);
  CHECK(res.method == EquivMethod::Sat);
  // The one distinguishing assignment: every input 1.
  CHECK(res.cex.has_value());
  if (res.cex) {
    CHECK_EQ(res.cex->inputs.size(), 24u);
    for (const auto& [name, value] : res.cex->inputs) CHECK(value);
  }
  CHECK(cexReplays(a, b, res));
}

void testWideInterfaces() {
  // Beyond 64 inputs the checker still proves/refutes exactly, with a
  // replayable counterexample (the AIG optimization flow's envelope proofs
  // routinely have hundreds of inputs).
  auto wideTree = [](bool corrupt) {
    Netlist nl(corrupt ? "wide_bad" : "wide");
    std::vector<NodeId> ins;
    for (unsigned i = 0; i < 70; ++i) {
      ins.push_back(nl.addInput("x_" + std::to_string(i)));
    }
    NodeId o = nl.orTree(ins);
    if (corrupt) o = nl.mkNot(o);
    nl.addOutput("o", o);
    return nl;
  };
  const EquivResult same = checkCombEquivalence(wideTree(false),
                                                wideTree(false));
  CHECK(same.equivalent);
  const EquivResult diff = checkCombEquivalence(wideTree(false),
                                                wideTree(true));
  CHECK(!diff.equivalent);
  CHECK(cexReplays(wideTree(false), wideTree(true), diff));
}

void testInterfaceAndSequentialThrows() {
  CHECK_THROWS(checkCombEquivalence(gen::adder(8), gen::adder(9)),
               std::invalid_argument);
  CHECK_THROWS(
      checkCombEquivalence(gen::adder(8), gen::muxTree(2, gen::MuxStyle::Tree)),
      std::invalid_argument);

  const Netlist seq = gen::randomSeq(4, 20, 4, 2, 1);
  CHECK_THROWS(checkCombEquivalence(seq, seq), std::invalid_argument);
}

/// `nl` rebuilt with one change: gate `gate` computes a different
/// function (And <-> Or, Xor -> Xnor, Not -> buffer, Mux with its data
/// inputs swapped), or output `needleOutput` is XORed with the
/// conjunction of the first `needleWidth` inputs.
Netlist mutant(const Netlist& nl, NodeId gate, std::size_t needleOutput = 0,
               std::size_t needleWidth = 0) {
  Netlist out(nl.name() + "_mutant");
  std::vector<NodeId> map(nl.nodeCount(), kNoNode);
  for (NodeId id : nl.inputs()) map[id] = out.addInput(nl.node(id).name);
  for (NodeId id : nl.topoOrder()) {
    const Node& n = nl.node(id);
    const auto in = [&](std::size_t k) { return map[n.fanin[k]]; };
    const bool flip = id == gate;
    switch (n.op) {
      case Op::Input:
      case Op::Output: break;
      case Op::Const0: map[id] = out.constant(false); break;
      case Op::Const1: map[id] = out.constant(true); break;
      case Op::Not: map[id] = flip ? in(0) : out.mkNot(in(0)); break;
      case Op::And:
        map[id] = flip ? out.mkOr(in(0), in(1)) : out.mkAnd(in(0), in(1));
        break;
      case Op::Or:
        map[id] = flip ? out.mkAnd(in(0), in(1)) : out.mkOr(in(0), in(1));
        break;
      case Op::Xor:
        map[id] = flip ? out.mkXnor(in(0), in(1)) : out.mkXor(in(0), in(1));
        break;
      case Op::Mux:
        map[id] = flip ? out.mkMux(in(0), in(2), in(1))
                       : out.mkMux(in(0), in(1), in(2));
        break;
      default: throw std::logic_error("mutant: not a combinational gate");
    }
  }
  // The conjunction is a chain: its deep prefixes are all-zero under
  // random patterns yet reach past the sweep's window.
  NodeId needle = needleWidth > 0 ? map[nl.inputs()[0]] : kNoNode;
  for (std::size_t i = 1; i < needleWidth; ++i) {
    needle = out.mkAnd(needle, map[nl.inputs()[i]]);
  }
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    const Node& po = nl.node(nl.outputs()[o]);
    NodeId src = map[po.fanin[0]];
    if (needleWidth > 0 && o == needleOutput) src = out.mkXor(src, needle);
    out.addOutput(po.name, src);
  }
  return out;
}

/// Independent of the checker: do 256 random patterns distinguish the
/// pair at some output?
bool randomPatternsDiffer(const Netlist& a, const Netlist& b) {
  BitSim simA(a, 4), simB(b, 4);
  std::map<std::string, NodeId> bInputs;
  for (NodeId id : b.inputs()) bInputs[b.node(id).name] = id;
  lis::support::SplitMix64 rng(0xd1ffULL);
  for (NodeId id : a.inputs()) {
    for (unsigned w = 0; w < 4; ++w) {
      const std::uint64_t lanes = rng.next();
      simA.setInputWord(id, w, lanes);
      simB.setInputWord(bInputs.at(a.node(id).name), w, lanes);
    }
  }
  simA.settle();
  simB.settle();
  std::map<std::string, NodeId> bOutputs;
  for (NodeId id : b.outputs()) bOutputs[b.node(id).name] = id;
  for (NodeId oa : a.outputs()) {
    const NodeId ob = bOutputs.at(a.node(oa).name);
    for (unsigned w = 0; w < 4; ++w) {
      if (simA.word(oa, w) != simB.word(ob, w)) return true;
    }
  }
  return false;
}

void testSweepRefutesMutants() {
  // Single-gate mutants of optimized envelopes, against the unoptimized
  // envelope — the flow's own proof, with the sim screen off so the
  // sweep's merges decide. A merge of two nodes that only agree on the
  // sampled patterns would prove a mutant equivalent.
  EquivOptions satOnly;
  satOnly.simRounds = 0;
  for (const lis::sync::SystemSpec& spec :
       {lis::sync::meshSpec(4, 4, 1, lis::sync::Encoding::Binary),
        lis::sync::pipelineSpec(16, 1, lis::sync::Encoding::Binary)}) {
    lis::flow::Design d(spec);
    const Netlist before = combEnvelope(d.netlist());
    const Netlist after = combEnvelope(d.optimize({.effort = 2}));
    const EquivResult same = checkCombEquivalence(before, after, satOnly);
    CHECK(same.equivalent);
    CHECK(same.method == EquivMethod::Sat);

    std::vector<NodeId> gates;
    for (NodeId id = 0; id < after.nodeCount(); ++id) {
      const Op op = after.node(id).op;
      if (op == Op::And || op == Op::Or || op == Op::Xor || op == Op::Not ||
          op == Op::Mux) {
        gates.push_back(id);
      }
    }
    // Mutants the random screen sees are certainly inequivalent; the
    // draw skips the (rare) ones hidden behind redundant logic.
    lis::support::SplitMix64 rng(0x3a7a47ULL);
    unsigned refuted = 0;
    for (unsigned draw = 0; draw < 64 && refuted < 6; ++draw) {
      const Netlist m = mutant(after, gates[rng.next() % gates.size()]);
      if (!randomPatternsDiffer(before, m)) continue;
      const EquivResult res = checkCombEquivalence(before, m, satOnly);
      CHECK(!res.equivalent);
      CHECK(res.method == EquivMethod::Sat);
      CHECK(cexReplays(before, m, res));
      ++refuted;
    }
    CHECK_EQ(refuted, 6u);

    // A needle: the deepest output XOR a 24-input conjunction differs on
    // one pattern in 2^24, which the random screen does not draw. Its
    // cone reaches past the sweep's window, so only an exact query may
    // tell the needle from the original output.
    std::vector<unsigned> level(after.nodeCount(), 0);
    std::size_t deepest = 0;
    for (NodeId id : after.topoOrder()) {
      for (NodeId f : after.node(id).fanin) {
        level[id] = std::max(level[id], level[f] + 1);
      }
    }
    for (std::size_t o = 0; o < after.outputs().size(); ++o) {
      if (level[after.outputs()[o]] >
          level[after.outputs()[deepest]]) {
        deepest = o;
      }
    }
    CHECK(level[after.outputs()[deepest]] > 16);
    const Netlist needle = mutant(after, kNoNode, deepest, 24);
    CHECK(!randomPatternsDiffer(before, needle));
    const EquivResult res = checkCombEquivalence(before, needle);
    CHECK(!res.equivalent);
    CHECK(res.method == EquivMethod::Sat);
    CHECK(res.failingOutput == after.node(after.outputs()[deepest]).name);
    CHECK(cexReplays(before, needle, res));
  }
}

void testSweepProvesBeyondTheWindow() {
  // 24-input parity as a chain against a balanced tree: the chain's
  // prefixes meet the tree's blocks only every few XOR levels, deeper
  // than the sweep's window reaches, so the shared solver must prove
  // them — and the proof must still end exact.
  auto parity = [](bool tree) {
    Netlist nl(tree ? "parity_tree" : "parity_chain");
    std::vector<NodeId> ins;
    for (unsigned i = 0; i < 24; ++i) {
      ins.push_back(nl.addInput("x_" + std::to_string(i)));
    }
    const auto build = [&](auto& self, std::size_t lo, std::size_t hi) {
      if (hi - lo == 1) return ins[lo];
      const std::size_t mid = (lo + hi) / 2;
      return nl.mkXor(self(self, lo, mid), self(self, mid, hi));
    };
    NodeId o = ins[0];
    if (tree) {
      o = build(build, 0, ins.size());
    } else {
      for (std::size_t i = 1; i < ins.size(); ++i) o = nl.mkXor(o, ins[i]);
    }
    nl.addOutput("p", o);
    return nl;
  };
  lis::obs::Tracer& tracer = lis::obs::Tracer::instance();
  tracer.enable();
  const EquivResult res = checkCombEquivalence(parity(false), parity(true));
  tracer.disable();
  CHECK(res.equivalent);
  CHECK(res.method == EquivMethod::Sat);
  CHECK(!res.degraded);
  CHECK(res.confidence == 1.0);
  double solverProved = -1;
  for (const lis::obs::TraceEvent& e : tracer.snapshot()) {
    if (e.name != "sat.equiv") continue;
    for (const lis::obs::TraceArg& arg : e.args) {
      if (arg.key == "solver_proved") solverProved = arg.number;
    }
  }
  CHECK(solverProved > 0);
}

void testDuplicatePortNamesThrow() {
  // Equal names share one miter input (or form one output pair), so a
  // netlist naming two ports alike would be compared as if they were
  // one: x#1 & !x#2 & z0..z17 would "equal" constant 0.
  const auto build = [](bool zero) {
    Netlist nl(zero ? "zero" : "x_and_not_x");
    const NodeId x1 = nl.addInput("x");
    const NodeId x2 = nl.addInput("x");
    std::vector<NodeId> terms{x1, nl.mkNot(x2)};
    for (unsigned i = 0; i < 18; ++i) {
      terms.push_back(nl.addInput("z" + std::to_string(i)));
    }
    nl.addOutput("o", zero ? nl.constant(false) : nl.andTree(terms));
    return nl;
  };
  const auto throwsNaming = [](const Netlist& a, const Netlist& b,
                               const std::string& needle) {
    try {
      (void)checkCombEquivalence(a, b);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find(needle) != std::string::npos;
    }
    return false;
  };
  CHECK(throwsNaming(build(false), build(true), "'x'"));

  Netlist twice("twice");
  const NodeId a = twice.addInput("a");
  twice.addOutput("y", a);
  twice.addOutput("y", twice.mkNot(a));
  Netlist once("once");
  const NodeId b = once.addInput("a");
  once.addOutput("y", b);
  once.addOutput("y", b);
  CHECK(throwsNaming(twice, once, "'y'"));
}

} // namespace

int main() {
  testEquivalentPairs();
  testInequivalentBysim();
  testWideInterfaces();
  testSatCatchesNeedle();
  testInterfaceAndSequentialThrows();
  testDuplicatePortNamesThrow();
  testSweepRefutesMutants();
  testSweepProvesBeyondTheWindow();
  return testExit();
}
