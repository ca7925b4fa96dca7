// Tests for the SystemSpec topology layer: spec validation, co-simulation
// of chains / forks / joins / back-pressure rings against the behavioural
// reference network, throughput vs. relay latency (the paper's d-cycle
// channel model), and flow::Pipeline-driven verification of a fork and a
// join (cosim + one-hot==binary control proof).

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/design.hpp"
#include "flow/pipeline.hpp"
#include "lis/cosim.hpp"
#include "lis/oracle.hpp"
#include "lis/system.hpp"
#include "test_util.hpp"

using namespace lis::sync;

namespace {

void expectOk(const char* what, const CosimResult& r) {
  if (!r.ok) std::printf("%s: %s\n", what, r.mismatch.c_str());
  CHECK(r.ok);
}

void testValidation() {
  CHECK_THROWS(SystemSpec{}.validate(), std::invalid_argument);

  // Endpoint out of range.
  SystemSpec bad;
  bad.pearls = {{"p", 1, 1}};
  ChannelSpec ch;
  ch.toPearl = 3;
  bad.channels = {ch};
  CHECK_THROWS(bad.validate(), std::invalid_argument);

  // Port out of range. The oracle indexes its port tables by the channel
  // endpoints, so it must refuse the spec before indexing any of them.
  SystemSpec badPort = chainSpec(1, 1, Encoding::Binary);
  badPort.channels[1].fromPort = 3; // the pearl has one output port
  CHECK_THROWS(badPort.validate(), std::invalid_argument);
  CHECK_THROWS(Oracle{badPort}, std::invalid_argument);

  // Unconnected pearl port.
  SystemSpec open;
  open.pearls = {{"p", 1, 1}};
  ch = {};
  ch.toPearl = 0;
  open.channels = {ch}; // input driven, output dangling
  CHECK_THROWS(open.validate(), std::invalid_argument);

  // Doubly driven input port.
  SystemSpec dup;
  dup.pearls = {{"p", 1, 1}};
  ChannelSpec in0;
  in0.toPearl = 0;
  ChannelSpec in1 = in0;
  ChannelSpec out;
  out.fromPearl = 0;
  dup.channels = {in0, in1, out};
  CHECK_THROWS(dup.validate(), std::invalid_argument);

  // Relay-free cycle: two pearls feeding each other directly would be a
  // combinational fire loop.
  SystemSpec cyc;
  cyc.pearls = {{"a", 2, 1}, {"b", 1, 2}};
  ChannelSpec ext;
  ext.toPearl = 0;
  ext.toPort = 0;
  ChannelSpec ab;
  ab.fromPearl = 0;
  ab.toPearl = 1;
  ab.relays = 0;
  ChannelSpec ba;
  ba.fromPearl = 1;
  ba.fromPort = 0;
  ba.toPearl = 0;
  ba.toPort = 1;
  ba.relays = 0;
  ChannelSpec bx;
  bx.fromPearl = 1;
  bx.fromPort = 1;
  cyc.channels = {ext, ab, ba, bx};
  CHECK_THROWS(cyc.validate(), std::invalid_argument);
  // One relay station on the back edge legalizes it.
  cyc.channels[2].relays = 1;
  cyc.validate();

  // More seed tokens than stations.
  SystemSpec seeds = chainSpec(1, 1, Encoding::Binary);
  seeds.channels[0].initialTokens = 2;
  CHECK_THROWS(seeds.validate(), std::invalid_argument);

  // External-to-external needs at least one relay.
  SystemSpec ext2ext;
  ext2ext.pearls = {{"p", 1, 1}};
  ChannelSpec pin;
  pin.toPearl = 0;
  ChannelSpec pout;
  pout.fromPearl = 0;
  ChannelSpec wire;
  wire.relays = 0;
  ext2ext.channels = {pin, pout, wire};
  CHECK_THROWS(ext2ext.validate(), std::invalid_argument);

  // Output tags that do not fit the data bus: output j carries data ^ j,
  // so a 4-output pearl on a 1-bit bus would alias channels 0/2 and 1/3 —
  // silently, since the behavioural model truncates identically. The
  // rejection must name the pearl and the widths, and fire at validate(),
  // not deep inside elaboration. (2 outputs still fit: tags {0,1}.)
  SystemSpec narrow = forkSpec(Encoding::Binary, /*dataWidth=*/1);
  narrow.validate(); // 2-out src: tags {0,1} fit a 1-bit bus
  narrow.pearls[0].numOutputs = 4;
  bool caughtTag = false;
  try {
    narrow.validate();
  } catch (const std::invalid_argument& e) {
    caughtTag = true;
    const std::string msg = e.what();
    CHECK(msg.find("src") != std::string::npos);
    CHECK(msg.find("2-bit tags") != std::string::npos);
    CHECK(msg.find("1 bit") != std::string::npos);
  }
  CHECK(caughtTag);
}

// The sweep topologies: structural shape, spec-level guard trips, and —
// on a small instance — gate-vs-behavioural agreement of the mesh wiring.
void testMeshAndPipelineSpecs() {
  const SystemSpec pipe = pipelineSpec(16, 2, Encoding::Binary);
  CHECK(pipe.name == "pipe16_d2");
  CHECK_EQ(pipe.pearls.size(), 16u);
  CHECK_EQ(pipe.channels.size(), 17u);
  pipe.validate();

  const SystemSpec mesh = meshSpec(3, 4, 1, Encoding::Binary);
  CHECK(mesh.name == "mesh3x4_d1");
  CHECK_EQ(mesh.pearls.size(), 12u);
  // rows*(cols+1) horizontal + cols*(rows+1) vertical channels.
  CHECK_EQ(mesh.channels.size(), 3u * 5u + 4u * 4u);
  CHECK_EQ(mesh.externalInputs().size(), 7u);  // 3 west + 4 north
  CHECK_EQ(mesh.externalOutputs().size(), 7u); // 3 east + 4 south
  mesh.validate();

  CHECK_THROWS(meshSpec(0, 4, 1, Encoding::Binary), std::invalid_argument);
  CHECK_THROWS(meshSpec(4, 0, 1, Encoding::Binary), std::invalid_argument);
  // A zero-width mesh trips the spec-level guards, not elaboration.
  CHECK_THROWS(meshSpec(2, 2, 1, Encoding::Binary, /*dataWidth=*/0),
               std::invalid_argument);

  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    CosimOptions opts;
    opts.cycles = 1200;
    opts.seed = 0x3E58 + static_cast<unsigned>(enc);
    const CosimResult r = cosimSystem(meshSpec(2, 2, 1, enc), opts);
    expectOk("mesh2x2", r);
    CHECK_EQ(r.cyclesRun, 1200u);
    CHECK_EQ(r.tokensPerOutput.size(), 4u);
    for (std::size_t k = 0; k < r.tokensPerOutput.size(); ++k) {
      CHECK(r.tokensPerOutput[k] > 100); // every edge makes progress
    }
  }
}

// A sharded mesh cosim, pinned exactly. Most of mesh4x4's logic reads no
// input in the same cycle (BitSim's state cone), unlike the 2x1 wrapper
// lis_test pins, so together they pin Lockstep's split cycle on both kinds
// of netlist; the shard forks and the traffic draw order are pinned too.
void testShardedMeshCosimPinned() {
  CosimOptions opts;
  opts.cycles = 2000;
  opts.seed = 0x4E54;
  opts.shards = 4;
  const CosimResult r =
      cosimSystem(meshSpec(4, 4, 1, Encoding::Binary), opts);
  expectOk("mesh4x4 sharded", r);
  CHECK_EQ(r.cyclesRun, 2000u);
  CHECK_EQ(r.tokens, 8455u);
  CHECK_EQ(r.fires, 17104u);
  const std::vector<std::uint64_t> perOutput = {1068, 1059, 1053, 1048,
                                                1065, 1061, 1053, 1048};
  CHECK(r.tokensPerOutput == perOutput);
}

// A single pearl with direct external inputs and one relay station per
// output channel is the paper's wrapper (wrapperSpec) — the system
// elaborator must agree with the behavioural network on it too.
void testWrapperShapedSystem() {
  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    WrapperConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 2;
    cfg.encoding = enc;
    const SystemSpec spec = wrapperSpec(cfg);
    CosimOptions opts;
    opts.cycles = 1500;
    opts.seed = 0x5157 + static_cast<unsigned>(enc);
    const CosimResult r = cosimSystem(spec, opts);
    expectOk("wrapper-shaped", r);
    CHECK_EQ(r.cyclesRun, 1500u);
    CHECK(r.fires > 300);
    CHECK(r.tokens > 600); // two output channels
  }
}

void testChain() {
  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    CosimOptions opts;
    opts.cycles = 1500;
    opts.seed = 0xC4A1 + static_cast<unsigned>(enc);
    const CosimResult r = cosimSystem(chainSpec(3, 1, enc), opts);
    expectOk("chain3", r);
    CHECK_EQ(r.cyclesRun, 1500u);
    // Three pearls fire roughly in lockstep once the chain fills.
    CHECK(r.fires > 3 * 300);
    CHECK(r.tokens > 300);
  }
}

// Fork and join are the acceptance-criteria topologies: drive them through
// the flow pipeline so the cosim oracle AND the cross-encoding control
// proof both run on the SystemSpec.
void testForkJoinThroughPipeline() {
  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    for (const bool fork : {true, false}) {
      lis::flow::Design d(fork ? forkSpec(enc) : joinSpec(enc));
      CosimOptions opts;
      opts.cycles = 1500;
      opts.seed = fork ? 0xF04C : 0x101A;
      lis::flow::Pipeline pipe;
      pipe.synthesizeControl().proveEncodingEquiv().cosim(opts);
      const lis::flow::RunResult run = pipe.run(d);
      if (!run.ok) {
        for (const auto& diag : run.diagnostics) {
          std::printf("%s [%s]: %s\n", severityName(diag.severity),
                      diag.pass.c_str(), diag.message.c_str());
        }
      }
      CHECK(run.ok);
      const lis::sync::CosimResult* r = d.cosimResult();
      CHECK(r != nullptr);
      CHECK(r->ok);
      CHECK_EQ(r->cyclesRun, 1500u);
      if (fork) {
        // Both branches of the fork must make progress.
        CHECK_EQ(r->tokensPerOutput.size(), 2u);
        CHECK(r->tokensPerOutput[0] > 300);
        CHECK(r->tokensPerOutput[1] > 300);
      } else {
        CHECK_EQ(r->tokensPerOutput.size(), 1u);
        CHECK(r->tokens > 300);
      }
      // The proof pass covered every distinct FSM spec in the system.
      const lis::flow::PassRecord* proof = run.record("prove-encoding-equiv");
      CHECK(proof != nullptr);
      CHECK(!proof->metrics.empty());
    }
  }
}

// The paper's d-cycle channel model: with depth-2 relay stations, sources
// always offering and sinks never stalling, a chain sustains one token per
// cycle after a fill latency of exactly one cycle per relay station.
void testChainThroughputAndLatency() {
  const std::uint64_t cycles = 1000;
  for (unsigned relaysPerChannel : {1u, 2u}) {
    const SystemSpec spec = chainSpec(3, relaysPerChannel, Encoding::Binary);
    const std::uint64_t totalRelays =
        static_cast<std::uint64_t>(relaysPerChannel) * spec.channels.size();
    CosimOptions opts;
    opts.cycles = cycles;
    opts.offerPercent = 100;
    opts.stallPercent = 0;
    const CosimResult r = cosimSystem(spec, opts);
    expectOk("chain throughput", r);
    CHECK(r.tokens <= cycles - totalRelays); // can't beat the fill latency
    CHECK(r.tokens >= cycles - totalRelays - 4);
  }
  // Depth-1 relay stations cannot sustain full rate: a station must drain
  // before it can accept, halving steady-state throughput (why the
  // canonical relay station holds two places).
  SystemSpec slow = chainSpec(1, 1, Encoding::Binary);
  for (ChannelSpec& ch : slow.channels) ch.relayDepth = 1;
  CosimOptions opts;
  opts.cycles = cycles;
  opts.offerPercent = 100;
  opts.stallPercent = 0;
  const CosimResult r = cosimSystem(slow, opts);
  expectOk("depth-1 chain", r);
  CHECK(r.tokens <= cycles / 2 + 2);
  CHECK(r.tokens >= cycles / 3);
}

// Cyclic back-pressure ring: one seed token circulates through a two-relay
// feedback loop, so the hub can fire at most every other cycle, and the
// whole system throttles to the ring latency without deadlock.
void testRing() {
  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    CosimOptions opts;
    opts.cycles = 1500;
    opts.seed = 0x1216 + static_cast<unsigned>(enc);
    const CosimResult r = cosimSystem(ringSpec(enc), opts);
    expectOk("ring", r);
    CHECK_EQ(r.cyclesRun, 1500u);
    CHECK(r.tokens > 200);
  }
  // Ring-latency bound at full offered load: the loop holds one token and
  // takes 2 cycles, so deliveries can't exceed cycles/2.
  CosimOptions flatOut;
  flatOut.cycles = 1000;
  flatOut.offerPercent = 100;
  flatOut.stallPercent = 0;
  const CosimResult r = cosimSystem(ringSpec(Encoding::Binary), flatOut);
  expectOk("ring full load", r);
  CHECK(r.tokens <= flatOut.cycles / 2 + 1);
  CHECK(r.tokens >= flatOut.cycles / 2 - 6);
}

// Seeded relays start valid at the gate level too: a bare external relay
// chain with a seed token delivers it before any token is offered.
void testSeededRelayChain() {
  SystemSpec spec;
  spec.name = "seeded_pipe";
  spec.pearls = {{"p", 1, 1}};
  ChannelSpec in;
  in.toPearl = 0;
  in.relays = 2;
  in.initialTokens = 1;
  ChannelSpec out;
  out.fromPearl = 0;
  spec.channels = {in, out};
  CosimOptions opts;
  opts.cycles = 1200;
  opts.seed = 0x5EED;
  const CosimResult r = cosimSystem(spec, opts);
  expectOk("seeded", r);
  // The seed token is a real token: it reaches the sink on top of the
  // offered traffic (fires counts the pearl consuming it).
  CHECK(r.fires > 300);
}

// The same pearls listed in reverse: channel endpoints are renumbered, the
// channel order (and with it the external port order) is kept.
SystemSpec reversedPearls(SystemSpec spec) {
  const int last = static_cast<int>(spec.pearls.size()) - 1;
  std::reverse(spec.pearls.begin(), spec.pearls.end());
  for (ChannelSpec& ch : spec.channels) {
    if (ch.fromPearl >= 0) ch.fromPearl = last - ch.fromPearl;
    if (ch.toPearl >= 0) ch.toPearl = last - ch.toPearl;
  }
  return spec;
}

// Two pearls in a loop: a feeds b over a relay-free channel, and b feeds a
// back through one relay station holding a seed token.
SystemSpec relayFreeLoopSpec(Encoding enc) {
  SystemSpec spec;
  spec.name = "loop_d0";
  spec.encoding = enc;
  spec.pearls = {{"a", 2, 1}, {"b", 1, 2}};
  ChannelSpec ext;
  ext.toPearl = 0;
  ChannelSpec ab;
  ab.fromPearl = 0;
  ab.toPearl = 1;
  ab.relays = 0;
  ChannelSpec ba;
  ba.fromPearl = 1;
  ba.toPearl = 0;
  ba.toPort = 1;
  ba.initialTokens = 1;
  ChannelSpec out;
  out.fromPearl = 1;
  out.fromPort = 1;
  spec.channels = {ext, ab, ba, out};
  return spec;
}

// A relay-free pearl-to-pearl channel is the one combinational edge
// between shells: the downstream shell's fire reads the upstream shell's
// in the same cycle. These runs pin that the reference network evaluates
// shells in dependency order, whatever order the spec lists them in.
void testRelayFreeChannelsPinned() {
  for (Encoding enc : {Encoding::OneHot, Encoding::Binary}) {
    const struct {
      const char* name;
      SystemSpec spec;
      std::uint64_t tokens, fires;
    } cases[] = {
        {"chain3_d0", chainSpec(3, 0, enc), 889, 2667},
        {"chain3_d0 reversed", reversedPearls(chainSpec(3, 0, enc)), 889,
         2667},
        {"relay-free loop", relayFreeLoopSpec(enc), 942, 1886},
    };
    for (const auto& c : cases) {
      CosimOptions opts;
      opts.cycles = 1500;
      opts.seed = 0x12345;
      const CosimResult r = cosimSystem(c.spec, opts);
      expectOk(c.name, r);
      CHECK_EQ(r.cyclesRun, 1500u);
      CHECK_EQ(r.tokens, c.tokens);
      CHECK_EQ(r.fires, c.fires);
    }
  }
}

/// FNV-1a over every node's (op, fanins, name, resetValue, hasEnable), then
/// the inputs(), outputs() and dffs() id lists: equal fingerprints mean the
/// same node under the same id, so a change in elaboration order shows.
std::uint64_t netlistFingerprint(const lis::netlist::Netlist& nl) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mixIds = [&mix](const std::vector<lis::netlist::NodeId>& ids) {
    mix(ids.size());
    for (const lis::netlist::NodeId id : ids) mix(id);
  };
  for (const lis::netlist::Node& n : nl.nodes()) {
    mix(static_cast<std::uint64_t>(n.op));
    mix(n.fanin.size());
    for (const lis::netlist::NodeId f : n.fanin) mix(f);
    mix(n.name.size());
    for (const char c : n.name) mix(static_cast<unsigned char>(c));
    mix(n.resetValue);
    mix(n.hasEnable);
  }
  mixIds(nl.inputs());
  mixIds(nl.outputs());
  mixIds(nl.dffs());
  return h;
}

// buildSystem pinned node for node: relay-free pearl-to-pearl channels
// (chain3_d0), fan-out and fan-in (fork, join), a seeded relay (ring), a
// mesh, and the 2-in/2-out wrapper, in both encodings. Any change to the
// order elaboration creates nodes in moves a fingerprint.
void testElaborationPinned() {
  const auto wrapper2x2 = [](Encoding enc) {
    WrapperConfig cfg;
    cfg.numInputs = 2;
    cfg.numOutputs = 2;
    cfg.encoding = enc;
    return wrapperSpec(cfg);
  };
  constexpr Encoding kOneHot = Encoding::OneHot;
  constexpr Encoding kBinary = Encoding::Binary;
  const struct {
    SystemSpec spec;
    std::size_t nodes, gates, dffs;
    std::uint64_t fingerprint;
  } cases[] = {
      {chainSpec(3, 0, kOneHot), 249, 174, 54, 0xa9ee1c04eac714f9ULL},
      {chainSpec(3, 0, kBinary), 237, 165, 51, 0x5e2f7304c3d32fd8ULL},
      {forkSpec(kOneHot), 662, 481, 149, 0x258aa342ff81a02cULL},
      {forkSpec(kBinary), 619, 446, 141, 0x063a9307b904bdbdULL},
      {joinSpec(kOneHot), 760, 570, 159, 0xc17f204b2239a2baULL},
      {joinSpec(kBinary), 697, 516, 150, 0x0f73436401d8c10fULL},
      {ringSpec(kOneHot), 626, 482, 122, 0x981d1c44e850d564ULL},
      {ringSpec(kBinary), 564, 427, 115, 0xd0948235dd9267a1ULL},
      {meshSpec(3, 3, 1, kOneHot), 3938, 3108, 708, 0xbec9d55aa6ba11cbULL},
      {meshSpec(3, 3, 1, kBinary), 3488, 2700, 666, 0x01a603e51b5e113eULL},
      {wrapper2x2(kOneHot), 414, 306, 66, 0xd09317ef0db8215eULL},
      {wrapper2x2(kBinary), 368, 264, 62, 0x218d11346fbf4599ULL},
  };
  for (const auto& c : cases) {
    const System sys = buildSystem(c.spec);
    const lis::netlist::NetlistStats st = sys.netlist.stats();
    const std::uint64_t fp = netlistFingerprint(sys.netlist);
    if (sys.netlist.nodeCount() != c.nodes || st.gates != c.gates ||
        st.dffs != c.dffs || fp != c.fingerprint) {
      std::printf("%s: nodes=%zu gates=%zu dffs=%zu fingerprint=0x%016llx\n",
                  sys.netlist.name().c_str(), sys.netlist.nodeCount(),
                  st.gates, st.dffs, static_cast<unsigned long long>(fp));
    }
    CHECK_EQ(sys.netlist.nodeCount(), c.nodes);
    CHECK_EQ(st.gates, c.gates);
    CHECK_EQ(st.dffs, c.dffs);
    CHECK_EQ(fp, c.fingerprint);
  }
}

} // namespace

int main() {
  testValidation();
  testMeshAndPipelineSpecs();
  testShardedMeshCosimPinned();
  testWrapperShapedSystem();
  testChain();
  testForkJoinThroughPipeline();
  testChainThroughputAndLatency();
  testRing();
  testSeededRelayChain();
  testRelayFreeChannelsPinned();
  testElaborationPinned();
  return testExit();
}
