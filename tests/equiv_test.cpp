#include "netlist/equiv.hpp"

#include <stdexcept>

#include "netlist/generate.hpp"
#include "netlist/netlist_sim.hpp"
#include "test_util.hpp"

using namespace lis::netlist;

namespace {

/// Replay a counterexample (bit i = input i of `a`; matched into `b` by
/// name) and confirm the named output really disagrees.
void verifyCounterexample(const Netlist& a, const Netlist& b,
                          const EquivResult& res) {
  CHECK(res.counterexample.has_value());
  if (!res.counterexample) return;
  const std::uint64_t cex = *res.counterexample;

  NetlistSim simA(a), simB(b);
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    const bool v = ((cex >> i) & 1u) != 0;
    simA.setInput(a.inputs()[i], v);
    const std::string& name = a.node(a.inputs()[i]).name;
    for (NodeId ib : b.inputs()) {
      if (b.node(ib).name == name) simB.setInput(ib, v);
    }
  }
  simA.settle();
  simB.settle();
  CHECK(simA.outputValue(res.failingOutput) !=
        simB.outputValue(res.failingOutput));
}

void testEquivalentPairs() {
  const EquivResult adderEq =
      checkCombEquivalence(gen::adder(12), gen::adder(12, true));
  CHECK(adderEq.equivalent);
  CHECK(!adderEq.counterexample.has_value());

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
  CHECK(res.foundBySimulation);
  verifyCounterexample(a, b, res);
}

void testRomEquivalence() {
  const Netlist rom = gen::romReader(5, 8, /*seed=*/7);
  const Netlist logic = gen::romReader(5, 8, 7, /*asLogic=*/true);
  const EquivResult eq = checkCombEquivalence(rom, logic);
  CHECK(eq.equivalent);

  const Netlist bad = gen::romReader(5, 8, 7, false, /*corrupt=*/true);
  const EquivResult neq = checkCombEquivalence(rom, bad);
  CHECK(!neq.equivalent);
  verifyCounterexample(rom, bad, neq);
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
  CHECK(!res.foundBySimulation);
  CHECK(res.method == EquivMethod::Sat);
  CHECK(res.counterexample.has_value());
  CHECK_EQ(res.counterexample.value_or(0), 0xffffffull);
  verifyCounterexample(a, b, res);
}

void testRomUnreachableWords() {
  // A ROM deeper than its wired address bits can select: the unreachable
  // words must not leak into the SAT encoding (the simulators read them
  // as 0).
  Netlist a("rom_overdeep");
  const NodeId a0 = a.addInput("addr_0");
  const NodeId a1 = a.addInput("addr_1");
  const std::vector<NodeId> addr{a0, a1};
  const std::uint32_t rom =
      a.addRom(1, {0, 0, 0, 0, /*unreachable:*/ 1, 0, 0, 0}, "r");
  a.addOutput("data_0", a.mkRomBit(rom, 0, addr));

  Netlist b("zero");
  (void)b.addInput("addr_0");
  (void)b.addInput("addr_1");
  b.addOutput("data_0", b.constant(false));

  const EquivResult res = checkCombEquivalence(a, b);
  CHECK(res.equivalent);
}

void testWideInterfaces() {
  // Beyond 64 inputs the checker still proves/refutes exactly (the AIG
  // optimization flow's envelope proofs routinely have hundreds of
  // inputs); only the compact uint64 counterexample is unavailable.
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
  CHECK(!diff.counterexample.has_value()); // wide mode: verdict only
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

} // namespace

int main() {
  testEquivalentPairs();
  testInequivalentBysim();
  testRomEquivalence();
  testRomUnreachableWords();
  testWideInterfaces();
  testSatCatchesNeedle();
  testInterfaceAndSequentialThrows();
  return testExit();
}
