// Tests for the src/lis synchronization-wrapper synthesis subsystem: FSM
// spec semantics, directed netlist behaviour, randomized co-simulation of
// synthesized wrappers against the behavioural oracle, the formal one-hot
// vs binary control-equivalence proof, config validation, and the
// flow::Pipeline-driven verification flow.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "flow/design.hpp"
#include "flow/pipeline.hpp"
#include "lis/cosim.hpp"
#include "lis/fsm.hpp"
#include "lis/lockstep.hpp"
#include "lis/synth.hpp"
#include "lis/wrapper.hpp"
#include "netlist/equiv.hpp"
#include "netlist/netlist_sim.hpp"
#include "test_util.hpp"

using namespace lis::sync;
using lis::netlist::NetlistSim;

namespace {

void testRelaySpecSemantics() {
  const FsmSpec spec = relayFsm(2);
  CHECK_EQ(spec.numStates(), 3u);
  // inputs: bit0 = v, bit1 = stop. Moore: bit0 = vout, bit1 = stopo.
  // Empty, token offered, no stall: push into slot 0, no pop.
  FsmSpec::Step s = spec.step(0, 0b01);
  CHECK_EQ(s.next, 1u);
  CHECK_EQ(s.mealy, 0b010u); // we0, no pop
  CHECK_EQ(spec.moore[0], 0u);
  // One token, stalled, new token offered: fills up.
  s = spec.step(1, 0b11);
  CHECK_EQ(s.next, 2u);
  CHECK_EQ(s.mealy, 0b100u); // we1, no pop
  CHECK_EQ(spec.moore[1], 1u); // vout only
  // Full, downstream drains, upstream respects stopo (v=0): back to one.
  s = spec.step(2, 0b00);
  CHECK_EQ(s.next, 1u);
  CHECK_EQ(s.mealy, 0b001u); // pop only
  CHECK_EQ(spec.moore[2], 0b11u); // vout and stopo
  // Simultaneous push+pop at occupancy 1: token lands in the freed slot 0.
  s = spec.step(1, 0b01);
  CHECK_EQ(s.next, 1u);
  CHECK_EQ(s.mealy, 0b011u); // pop and we0
}

void testShellSpecSemantics() {
  const FsmSpec spec = shellFsm(2, 1);
  CHECK_EQ(spec.numStates(), 4u);
  // inputs: bit0 = v0, bit1 = v1, bit2 = stop0.
  // mealy: bit0 = fire, bit1 = cap0, bit2 = cap1.
  // Both tokens fresh, no stall: fire, nothing buffered.
  FsmSpec::Step s = spec.step(0b00, 0b011);
  CHECK_EQ(s.next, 0b00u);
  CHECK_EQ(s.mealy, 0b001u);
  // Only channel 0 offers: no fire, capture into buffer 0.
  s = spec.step(0b00, 0b001);
  CHECK_EQ(s.next, 0b01u);
  CHECK_EQ(s.mealy, 0b010u);
  // Buffer 0 full, channel 1 offers: fire consumes buffer 0 + fresh token 1.
  s = spec.step(0b01, 0b010);
  CHECK_EQ(s.next, 0b00u);
  CHECK_EQ(s.mealy, 0b001u);
  // Both ready but downstream stalled: hold, capture the fresh token.
  s = spec.step(0b01, 0b110);
  CHECK_EQ(s.next, 0b11u);
  CHECK_EQ(s.mealy, 0b100u);
  // Offer under stop is not a transfer: buffer 0 is full (stopo0 high) and
  // channel 0 re-offers while firing — the offer must NOT be captured
  // (capturing would duplicate the token of an upstream that holds valid
  // under stop, like a relay station).
  s = spec.step(0b01, 0b011);
  CHECK_EQ(s.next, 0b00u);
  CHECK_EQ(s.mealy, 0b001u); // fire only, no cap0
  // Stop outputs are the buffer bits.
  CHECK_EQ(spec.moore[0b10], 0b10u);
  // validate() rejects a broken spec.
  FsmSpec broken = relayFsm(1);
  broken.transitions.pop_back();
  CHECK_THROWS(broken.validate(), std::invalid_argument);
}

// Directed relay-station run: tokens come out in order, stalls hold them,
// capacity backpressures. Exercises the synthesized netlist directly.
void testRelayStationNetlist(Encoding enc) {
  Wrapper rs = buildRelayStation(8, 2, enc);
  NetlistSim sim(rs.netlist);
  sim.reset();

  auto drive = [&](bool v, std::uint64_t d, bool stop) {
    sim.setInput(rs.ports.inValid[0], v);
    sim.setInputBus(rs.ports.inData[0], d);
    sim.setInput(rs.ports.outStop[0], stop);
    sim.settle();
  };
  auto valid = [&] { return sim.value(rs.ports.outValid[0]); };
  auto stopo = [&] { return sim.value(rs.ports.inStop[0]); };
  auto data = [&] { return sim.busValue(rs.ports.outData[0]); };

  CHECK(!valid());
  CHECK(!stopo());
  drive(true, 0xAA, true); // push first token, downstream stalled
  sim.clock();
  CHECK(valid());
  CHECK_EQ(data(), 0xAAu);
  CHECK(!stopo());
  drive(true, 0xBB, true); // push second while stalled: now full
  sim.clock();
  CHECK(stopo());
  CHECK_EQ(data(), 0xAAu); // head unchanged
  drive(false, 0, false); // drain one
  sim.clock();
  CHECK(!stopo());
  CHECK(valid());
  CHECK_EQ(data(), 0xBBu); // second token shifted to the head
  drive(false, 0, false); // drain the last
  sim.clock();
  CHECK(!valid());
}

// Directed shell run with hand-computed pearl math: always-valid inputs,
// never stalled -> fires every cycle; out0 = acc + sum(inputs), out1 tag.
void testShellPearlMath(Encoding enc) {
  WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 2;
  cfg.dataWidth = 8;
  cfg.encoding = enc;
  Wrapper sh = buildShell(cfg);
  NetlistSim sim(sh.netlist);
  sim.reset();

  std::uint64_t acc = 0;
  for (unsigned t = 0; t < 20; ++t) {
    const std::uint64_t a = (3 * t + 1) & 0xFF;
    const std::uint64_t b = (7 * t + 2) & 0xFF;
    sim.setInput(sh.ports.inValid[0], true);
    sim.setInput(sh.ports.inValid[1], true);
    sim.setInputBus(sh.ports.inData[0], a);
    sim.setInputBus(sh.ports.inData[1], b);
    sim.setInput(sh.ports.outStop[0], false);
    sim.setInput(sh.ports.outStop[1], false);
    sim.settle();
    const std::uint64_t base = (acc + a + b) & 0xFF;
    CHECK(sim.value(sh.ports.outValid[0]));
    CHECK(sim.value(sh.ports.outValid[1]));
    CHECK_EQ(sim.busValue(sh.ports.outData[0]), base);
    CHECK_EQ(sim.busValue(sh.ports.outData[1]), base ^ 1u);
    CHECK(!sim.value(sh.ports.inStop[0]));
    sim.clock();
    acc = base;
  }
}

// The acceptance-criteria workhorse: randomized stall patterns, >= 1000
// cycles, netlist vs behavioural agreement, across channel configurations
// and both encodings.
void testCosimMatrix() {
  const struct {
    unsigned in, out;
  } shapes[] = {{1, 1}, {2, 1}, {2, 2}, {1, 2}};
  for (const auto& shape : shapes) {
    for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
      WrapperConfig cfg;
      cfg.numInputs = shape.in;
      cfg.numOutputs = shape.out;
      cfg.dataWidth = 8;
      cfg.relayDepth = 2;
      cfg.encoding = enc;
      CosimOptions opts;
      opts.cycles = 1500;
      opts.seed = 0xBEEF + shape.in * 10 + shape.out;
      const CosimResult r = cosimWrapper(cfg, opts);
      if (!r.ok) {
        std::printf("cosim %ux%u %s: %s\n", shape.in, shape.out,
                    encodingName(enc), r.mismatch.c_str());
      }
      CHECK(r.ok);
      CHECK_EQ(r.cyclesRun, 1500u);
      // With 70%-offer sources and 30%-stall sinks the wrapper must make
      // real progress; anything near zero means the control is deadlocked.
      CHECK(r.fires > 300);
      CHECK(r.tokens > 300);
    }
  }
}

// The seeded traffic stream is part of every cosim and fault result: its
// draw order (per input an offer draw while idle and a data draw when it
// offers, then one stall draw per output) pins these counts exactly.
void testCosimSeededStreamPinned() {
  WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 1;
  cfg.dataWidth = 8;
  cfg.relayDepth = 2;
  cfg.encoding = Encoding::Binary;
  CosimOptions opts;
  opts.cycles = 1500;
  opts.seed = 0xBEEF + 21;
  const CosimResult r = cosimWrapper(cfg, opts);
  CHECK(r.ok);
  CHECK_EQ(r.tokens, 828u);
  CHECK_EQ(r.fires, 828u);
}

// Lockstep indexes the oracle by the ports' channels, so an oracle of
// another shape is refused up front, and every lane (twins included) must
// fit the gate side's one word.
void testLockstepRejectsMismatchedOracle() {
  WrapperConfig two;
  two.numInputs = 2;
  const Wrapper w = buildWrapper(two);
  Oracle one{WrapperConfig{}};
  CHECK_THROWS(Lockstep(w.netlist, portView(w.ports), {&one}),
               std::invalid_argument);
  CHECK_THROWS(Lockstep(w.netlist, portView(w.ports), {}),
               std::invalid_argument);
  const std::vector<Oracle*> unchecked(33, nullptr);
  CHECK_THROWS(Lockstep(w.netlist, portView(w.ports), unchecked, true),
               std::invalid_argument);
  Lockstep(w.netlist, portView(w.ports), unchecked, false); // 33 lanes fit
}

// readStops reads the stops after the state-cone pass only, so a stop an
// input reaches combinationally (Mealy) is refused, naming its channel; the
// same channel with a registered stop is accepted.
void testLockstepRejectsMealyStop() {
  for (bool mealy : {true, false}) {
    lis::netlist::Netlist nl("one_channel");
    const lis::netlist::NodeId valid = nl.addInput("in0_valid");
    const lis::netlist::NodeId data = nl.addInput("in0_data_0");
    const lis::netlist::NodeId stop = nl.addOutput(
        "in0_stop", mealy ? valid : nl.mkDff(valid));
    PortView ports;
    ports.inValid = {valid};
    ports.inData = {{data}};
    ports.inStop = {stop};
    std::string what;
    try {
      Lockstep(nl, ports, {nullptr});
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    CHECK_EQ(what.find("in0_stop") != std::string::npos, mealy);
  }
}

// Deeper relay stations and a saturating/no-stall sanity pair.
void testCosimDepthsAndExtremes() {
  for (unsigned depth : {1u, 3u, 4u}) {
    WrapperConfig cfg;
    cfg.relayDepth = depth;
    cfg.encoding = Encoding::OneHot;
    CosimOptions opts;
    opts.cycles = 1200;
    opts.seed = 77 + depth;
    const CosimResult r = cosimWrapper(cfg, opts);
    if (!r.ok) std::printf("cosim depth %u: %s\n", depth, r.mismatch.c_str());
    CHECK(r.ok);
  }
  // Full throughput: always offer, never stall -> one token per cycle
  // after the pipeline fills.
  WrapperConfig cfg;
  cfg.encoding = Encoding::Binary;
  CosimOptions opts;
  opts.cycles = 1000;
  opts.offerPercent = 100;
  opts.stallPercent = 0;
  const CosimResult r = cosimWrapper(cfg, opts);
  CHECK(r.ok);
  CHECK(r.tokens >= opts.cycles - 2);
  // Permanent stall: relay fills, shell stalls, nothing is delivered and
  // the pearl fires at most relayDepth times.
  CosimOptions blocked;
  blocked.cycles = 1000;
  blocked.offerPercent = 100;
  blocked.stallPercent = 100;
  const CosimResult rb = cosimWrapper(cfg, blocked);
  CHECK(rb.ok);
  CHECK_EQ(rb.tokens, 0u);
  CHECK(rb.fires <= cfg.relayDepth);
}

// Formal cross-encoding proof: the one-hot and binary control logic
// compute the same transition function over the abstract state space.
void testEncodingEquivalence() {
  const FsmSpec specs[] = {shellFsm(1, 1), shellFsm(2, 1), shellFsm(2, 2),
                           relayFsm(1), relayFsm(2), relayFsm(4)};
  for (const FsmSpec& spec : specs) {
    const lis::netlist::Netlist oneHot =
        fsmTransitionNetlist(spec, Encoding::OneHot);
    const lis::netlist::Netlist binary =
        fsmTransitionNetlist(spec, Encoding::Binary);
    const auto res = lis::netlist::checkCombEquivalence(oneHot, binary);
    if (!res.equivalent) {
      std::printf("%s: encodings differ at output %s\n", spec.name.c_str(),
                  res.failingOutput.c_str());
    }
    CHECK(res.equivalent);
  }
  // The harness can refute too: a corrupted Mealy output must be caught.
  FsmSpec bad = relayFsm(2);
  bad.transitions[1].mealy ^= 1u;
  const auto res = lis::netlist::checkCombEquivalence(
      fsmTransitionNetlist(bad, Encoding::OneHot),
      fsmTransitionNetlist(relayFsm(2), Encoding::Binary));
  CHECK(!res.equivalent);
}

// The synthesized transition netlist agrees with the spec's behavioural
// step() on every (state, input) pair.
void testTransitionNetlistMatchesSpec() {
  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    const FsmSpec spec = shellFsm(2, 1);
    lis::netlist::Netlist nl = fsmTransitionNetlist(spec, enc);
    NetlistSim sim(nl);
    const unsigned indexBits =
        lis::netlist::BusBuilder::bitsFor(spec.numStates() - 1);
    for (unsigned s = 0; s < spec.numStates(); ++s) {
      for (std::uint64_t m = 0; m < (1u << spec.numInputs()); ++m) {
        for (unsigned b = 0; b < indexBits; ++b) {
          sim.setInput(nl.inputs()[b], ((s >> b) & 1u) != 0);
        }
        for (unsigned v = 0; v < spec.numInputs(); ++v) {
          sim.setInput(nl.inputs()[indexBits + v], ((m >> v) & 1u) != 0);
        }
        sim.settle();
        const FsmSpec::Step expect = spec.step(s, m);
        unsigned next = 0;
        for (unsigned b = 0; b < indexBits; ++b) {
          if (sim.outputValue("ns_" + std::to_string(b))) next |= 1u << b;
        }
        CHECK_EQ(next, expect.next);
        for (std::size_t o = 0; o < spec.mealyOutputs.size(); ++o) {
          CHECK_EQ(sim.outputValue("o_" + spec.mealyOutputs[o]),
                   ((expect.mealy >> o) & 1u) != 0);
        }
        for (std::size_t o = 0; o < spec.mooreOutputs.size(); ++o) {
          CHECK_EQ(sim.outputValue("o_" + spec.mooreOutputs[o]),
                   ((spec.moore[s] >> o) & 1u) != 0);
        }
      }
    }
  }
}

// Malformed configs must be rejected up front with a precise message, not
// lowered into malformed FSM specs.
void testConfigValidation() {
  auto withField = [](auto set) {
    WrapperConfig cfg;
    set(cfg);
    return cfg;
  };
  CHECK_THROWS(
      buildShell(withField([](WrapperConfig& c) { c.numInputs = 0; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildShell(withField([](WrapperConfig& c) { c.numInputs = 5; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildShell(withField([](WrapperConfig& c) { c.numOutputs = 0; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildShell(withField([](WrapperConfig& c) { c.numOutputs = 9; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildShell(withField([](WrapperConfig& c) { c.dataWidth = 0; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildShell(withField([](WrapperConfig& c) { c.dataWidth = 65; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildWrapper(withField([](WrapperConfig& c) { c.numInputs = 0; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildWrapper(withField([](WrapperConfig& c) { c.numOutputs = 0; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildWrapper(withField([](WrapperConfig& c) { c.relayDepth = 0; })),
      std::invalid_argument);
  CHECK_THROWS(
      buildWrapper(withField([](WrapperConfig& c) { c.relayDepth = 9; })),
      std::invalid_argument);
  CHECK_THROWS(buildRelayStation(8, 0, Encoding::Binary),
               std::invalid_argument);
  CHECK_THROWS(buildRelayStation(0, 2, Encoding::Binary),
               std::invalid_argument);
  // Output j carries data ^ j, so four outputs need 2-bit tags: on a 1-bit
  // bus they would alias, as SystemSpec::validate rejects for a pearl.
  // Two outputs (tags 0 and 1) still fit, and the oracle of a wrapper
  // accepts exactly the configs buildWrapper does.
  const WrapperConfig aliased = withField([](WrapperConfig& c) {
    c.numOutputs = 4;
    c.dataWidth = 1;
  });
  CHECK_THROWS(buildShell(aliased), std::invalid_argument);
  CHECK_THROWS(buildWrapper(aliased), std::invalid_argument);
  CHECK_THROWS(Oracle{aliased}, std::invalid_argument);
  const WrapperConfig narrow = withField([](WrapperConfig& c) {
    c.numOutputs = 2;
    c.dataWidth = 1;
  });
  CHECK_EQ(buildWrapper(narrow).ports.outData.size(), 2u);
  CHECK_EQ(Oracle{narrow}.numOutputs(), 2u);
  // A shell alone has no relay stations: relayDepth == 0 is acceptable.
  const Wrapper sh =
      buildShell(withField([](WrapperConfig& c) { c.relayDepth = 0; }));
  CHECK(sh.netlist.stats().dffs > 0);
}

// The full verification flow through the pass pipeline: synthesize, prove
// the encodings equivalent, co-simulate — one uniform surface instead of
// hand-wired plumbing.
void testFlowPipelineVerify() {
  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    WrapperConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 2;
    cfg.encoding = enc;
    lis::flow::Design d(cfg);
    CosimOptions opts;
    opts.cycles = 1500;
    opts.seed = 0xF10 + static_cast<unsigned>(enc);
    lis::flow::Pipeline pipe;
    pipe.synthesizeControl().proveEncodingEquiv().cosim(opts);
    const bool ok = pipe.run(d);
    if (!ok) {
      for (const auto& diag : pipe.diagnostics()) {
        std::printf("%s [%s]: %s\n", severityName(diag.severity),
                    diag.pass.c_str(), diag.message.c_str());
      }
    }
    CHECK(ok);
    CHECK(d.cosimResult() != nullptr);
    CHECK(d.cosimResult()->ok);
    CHECK_EQ(d.cosimResult()->cyclesRun, 1500u);
    CHECK(d.cosimResult()->fires > 300);
  }
}

void testSynthStats() {
  // Minimization must actually reduce the enumerated transition covers.
  WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 2;
  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    cfg.encoding = enc;
    const Wrapper w = buildWrapper(cfg);
    CHECK(w.control.functions > 0);
    CHECK(w.control.cubesAfter < w.control.cubesBefore);
    CHECK(w.control.literalsAfter < w.control.literalsBefore);
    const auto st = w.netlist.stats();
    CHECK(st.dffs > 0);
    CHECK(st.gates > 0);
  }
}

} // namespace

int main() {
  testRelaySpecSemantics();
  testShellSpecSemantics();
  testRelayStationNetlist(Encoding::OneHot);
  testRelayStationNetlist(Encoding::Binary);
  testShellPearlMath(Encoding::OneHot);
  testShellPearlMath(Encoding::Binary);
  testCosimMatrix();
  testCosimSeededStreamPinned();
  testLockstepRejectsMismatchedOracle();
  testLockstepRejectsMealyStop();
  testCosimDepthsAndExtremes();
  testEncodingEquivalence();
  testTransitionNetlistMatchesSpec();
  testConfigValidation();
  testFlowPipelineVerify();
  testSynthStats();
  return testExit();
}
