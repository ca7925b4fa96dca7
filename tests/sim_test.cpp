#include "netlist/netlist_sim.hpp"

#include <stdexcept>
#include <vector>

#include "netlist/buses.hpp"
#include "netlist/generate.hpp"
#include "test_util.hpp"

using namespace lis::netlist;

namespace {

void testCounter() {
  Netlist nl("counter");
  BusBuilder bb(nl);
  const NodeId en = nl.addInput("en");
  Bus regs = bb.registerBus(8, 0x2A, "cnt");
  bb.connectRegister(regs, bb.incrementer(regs), en);
  bb.outputBus("q", regs);

  NetlistSim sim(nl);
  CHECK_EQ(sim.busValue(regs), 0x2Au);

  sim.setInput(en, true);
  sim.settle();
  for (int i = 0; i < 5; ++i) sim.clock();
  CHECK_EQ(sim.busValue(regs), 0x2Fu);

  sim.setInput(en, false);
  sim.settle();
  for (int i = 0; i < 3; ++i) sim.clock();
  CHECK_EQ(sim.busValue(regs), 0x2Fu); // held

  sim.reset();
  CHECK_EQ(sim.busValue(regs), 0x2Au);
}

void testWideBusGuard() {
  Netlist nl("wide");
  BusBuilder bb(nl);
  Bus wide = bb.inputBus("w", 65);
  NetlistSim sim(nl);
  CHECK_THROWS(sim.setInputBus(wide, 0), std::invalid_argument);
  CHECK_THROWS(sim.busValue(wide), std::invalid_argument);

  // A full 64-bit bus is still fine end to end.
  Netlist nl64("w64");
  BusBuilder bb64(nl64);
  Bus bus = bb64.inputBus("v", 64);
  bb64.outputBus("o", bus);
  NetlistSim sim64(nl64);
  sim64.setInputBus(bus, 0x8000000000000001ull);
  sim64.settle();
  CHECK_EQ(sim64.busValue(bus), 0x8000000000000001ull);
}

/// True when `a` and `b` read the same ids in the same order.
bool sameFanins(const Node& a, const Node& b) {
  if (a.fanin.size() != b.fanin.size()) return false;
  for (std::size_t i = 0; i < a.fanin.size(); ++i) {
    if (a.fanin[i] != b.fanin[i]) return false;
  }
  return true;
}

void checkSameNodes(const Netlist& a, const Netlist& b) {
  CHECK_EQ(a.nodeCount(), b.nodeCount());
  if (a.nodeCount() != b.nodeCount()) return;
  for (NodeId id = 0; id < a.nodeCount(); ++id) {
    const Node& na = a.node(id);
    const Node& nb = b.node(id);
    CHECK(na.op == nb.op);
    CHECK(sameFanins(na, nb));
    CHECK(na.name == nb.name);
    CHECK_EQ(na.resetValue, nb.resetValue);
    CHECK_EQ(na.hasEnable, nb.hasEnable);
  }
  CHECK(a.inputs() == b.inputs());
  CHECK(a.outputs() == b.outputs());
  CHECK(a.dffs() == b.dffs());
}

/// Fanin arity per node kind, a DFF losing and regaining its enable, and
/// fanins surviving a copy.
void testFaninArity() {
  Netlist nl("arity");
  const NodeId a = nl.addInput("a");
  const NodeId b = nl.addInput("b");
  const NodeId s = nl.addInput("s");
  const NodeId c0 = nl.constant(false);
  const NodeId c1 = nl.constant(true);
  const NodeId inv = nl.mkNot(a);
  const NodeId conj = nl.mkAnd(a, b);
  const NodeId disj = nl.mkOr(a, b);
  const NodeId parity = nl.mkXor(a, b);
  const NodeId sel = nl.mkMux(s, a, b);
  const NodeId plain = nl.mkDff(conj, kNoNode, true, "plain");
  const NodeId gated = nl.mkDff(disj, s, false, "gated");
  const NodeId out = nl.addOutput("o", sel);

  const auto arity = [&](NodeId id) { return nl.node(id).fanin.size(); };
  for (NodeId id : {a, b, s, c0, c1}) CHECK_EQ(arity(id), 0u);
  CHECK_EQ(arity(inv), 1u);
  CHECK_EQ(arity(out), 1u);
  for (NodeId id : {conj, disj, parity}) CHECK_EQ(arity(id), 2u);
  CHECK_EQ(arity(sel), 3u);
  CHECK_EQ(arity(plain), 1u);
  CHECK_EQ(arity(gated), 2u);
  const Node& mux = nl.node(sel);
  CHECK(std::vector<NodeId>(mux.fanin.begin(), mux.fanin.end()) ==
        (std::vector<NodeId>{s, a, b}));

  // {d, en} -> {d}: the register loads every cycle; and back again.
  nl.setDffInputs(gated, parity);
  CHECK_EQ(arity(gated), 1u);
  CHECK(!nl.node(gated).hasEnable);
  CHECK_EQ(nl.node(gated).fanin[0], parity);
  {
    NetlistSim sim(nl);
    sim.setInput(a, true);
    sim.setInput(s, false);
    sim.settle();
    sim.clock();
    CHECK(sim.value(gated)); // a ^ b = 1 latched with no enable
  }
  nl.setDffInputs(gated, disj, s);
  CHECK_EQ(arity(gated), 2u);
  CHECK(nl.node(gated).hasEnable);
  CHECK_EQ(nl.node(gated).fanin[0], disj);
  CHECK_EQ(nl.node(gated).fanin[1], s);
  {
    NetlistSim sim(nl);
    sim.setInput(a, true);
    sim.setInput(s, false);
    sim.settle();
    sim.clock();
    CHECK(!sim.value(gated)); // enable low: the reset value holds
  }

  // Copies keep every fanin, node for node.
  const Netlist copy = nl;
  checkSameNodes(nl, copy);
  const Netlist seq = gen::randomSeq(6, 200, 12, 4, /*seed=*/9);
  Netlist assigned("other");
  assigned = seq;
  checkSameNodes(seq, assigned);
}

void testErrors() {
  Netlist nl("errs");
  const NodeId a = nl.addInput("a");
  const NodeId o = nl.addOutput("o", nl.mkNot(a));
  (void)o;
  NetlistSim sim(nl);
  CHECK_THROWS(sim.setInput(o, true), std::invalid_argument);
  sim.setInput(a, false);
  sim.settle();
  CHECK(sim.outputValue("o"));
  CHECK_THROWS(sim.outputValue("nope"), std::invalid_argument);
}

} // namespace

int main() {
  testCounter();
  testWideBusGuard();
  testFaninArity();
  testErrors();
  return testExit();
}
