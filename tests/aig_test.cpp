// Tests for the src/aig/ logic-optimization subsystem: structural hashing
// invariants, netlist->AIG->netlist round trips proven equivalent on
// combinational generators, FSM control netlists and sequential designs,
// optimization soundness (rewrite + balance never change functions, never
// grow the live AND count), the priority-cut LUT mapper invariants, the
// flow::Design (k, rounds) cache keying, and a co-simulation of one
// optimized mesh system against the behavioural reference.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/bridge.hpp"
#include "aig/optimize.hpp"
#include "aig/rewrite.hpp"
#include "lis/cosim.hpp"
#include "lis/fsm.hpp"
#include "lis/synth.hpp"
#include "lis/system.hpp"
#include "flow/design.hpp"
#include "flow/executor.hpp"
#include "flow/pipeline.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/equiv.hpp"
#include "netlist/generate.hpp"
#include "netlist/seq_equiv.hpp"
#include "support/rng.hpp"
#include "techmap/lutmap.hpp"
#include "test_util.hpp"

using namespace lis;
using lis::aig::Aig;
using lis::aig::Lit;
using lis::netlist::Netlist;

namespace {

void testStructuralHashing() {
  Aig a;
  const Lit x = a.addPi();
  const Lit y = a.addPi();
  // One-level rules never materialize nodes.
  CHECK_EQ(a.addAnd(x, aig::kLitFalse), aig::kLitFalse);
  CHECK_EQ(a.addAnd(x, aig::kLitTrue), x);
  CHECK_EQ(a.addAnd(x, x), x);
  CHECK_EQ(a.addAnd(x, aig::litNot(x)), aig::kLitFalse);
  CHECK_EQ(a.numAnds(), 0u);
  // Commutative pairs hash to one node.
  const Lit xy = a.addAnd(x, y);
  CHECK_EQ(a.addAnd(y, x), xy);
  CHECK_EQ(a.numAnds(), 1u);
  // Complemented edges are part of the key.
  const Lit xny = a.addAnd(x, aig::litNot(y));
  CHECK(xny != xy);
  CHECK_EQ(a.numAnds(), 2u);
  // Derived connectives reuse the shared structure.
  (void)a.addOr(aig::litNot(x), y); // = !(x & !y), strashes onto xny
  CHECK_EQ(a.numAnds(), 2u);
}

void checkCombRoundTrip(const Netlist& nl) {
  const aig::SequentialAig sa = aig::fromNetlist(nl);
  const Netlist back = aig::toNetlist(sa);
  const netlist::EquivResult res = netlist::checkCombEquivalence(nl, back);
  if (!res.equivalent) {
    std::printf("round trip of %s differs at %s\n", nl.name().c_str(),
                res.failingOutput.c_str());
  }
  CHECK(res.equivalent);
}

void checkSeqRoundTrip(const Netlist& nl) {
  const aig::SequentialAig sa = aig::fromNetlist(nl);
  const Netlist back = aig::toNetlist(sa);
  const netlist::SeqEquivResult res = netlist::checkSeqEquivalence(nl, back);
  if (!res.equivalent) {
    std::printf("seq round trip of %s: %s\n", nl.name().c_str(),
                res.detail.c_str());
  }
  CHECK(res.equivalent);
}

void testRoundTrips() {
  checkCombRoundTrip(netlist::gen::adder(8));
  checkCombRoundTrip(netlist::gen::muxTree(3, netlist::gen::MuxStyle::Tree));
  checkCombRoundTrip(
      netlist::gen::muxTree(3, netlist::gen::MuxStyle::SumOfProducts));
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    checkCombRoundTrip(netlist::gen::randomDag(12, 300, 8, seed));
  }
  // Random FSM control netlists: the synthesized transition functions of
  // the paper's shell and relay machines, both encodings.
  for (sync::Encoding enc : {sync::Encoding::OneHot, sync::Encoding::Binary}) {
    checkCombRoundTrip(sync::fsmTransitionNetlist(sync::shellFsm(2, 2), enc));
    checkCombRoundTrip(sync::fsmTransitionNetlist(sync::relayFsm(3), enc));
  }
  // Sequential round trips: random registered DAGs and a full wrapper.
  for (std::uint64_t seed : {7ull, 8ull}) {
    checkSeqRoundTrip(netlist::gen::randomSeq(10, 200, 24, 6, seed));
  }
  sync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 2;
  checkSeqRoundTrip(sync::buildSystem(sync::wrapperSpec(cfg)).netlist);
}

void checkOptimizeSound(const Netlist& nl, unsigned effort) {
  const aig::OptimizeResult opt =
      aig::optimizeNetlist(nl, {.effort = effort});
  const netlist::SeqEquivResult res =
      netlist::checkSeqEquivalence(nl, opt.netlist);
  if (!res.equivalent) {
    std::printf("optimize(%s): %s\n", nl.name().c_str(), res.detail.c_str());
  }
  CHECK(res.equivalent);
  CHECK(opt.stats.andsAfter <= opt.stats.andsBefore);
  CHECK(opt.stats.roundsRun >= 1);
  CHECK(opt.stats.roundsRun <= effort);
}

void testOptimizeSoundness() {
  checkOptimizeSound(netlist::gen::adder(10), 2);
  checkOptimizeSound(netlist::gen::muxTree(4, netlist::gen::MuxStyle::SumOfProducts), 2);
  for (std::uint64_t seed : {4ull, 5ull, 6ull}) {
    checkOptimizeSound(netlist::gen::randomDag(14, 500, 10, seed), 2);
  }
  for (sync::Encoding enc : {sync::Encoding::OneHot, sync::Encoding::Binary}) {
    checkOptimizeSound(
        sync::fsmTransitionNetlist(sync::shellFsm(3, 1), enc), 3);
  }
  checkOptimizeSound(netlist::gen::randomSeq(10, 300, 16, 8, 9), 2);
  sync::WrapperConfig cfg;
  cfg.numInputs = 3;
  cfg.numOutputs = 1;
  checkOptimizeSound(sync::buildSystem(sync::wrapperSpec(cfg)).netlist, 2);
}

void testRewriteShrinksSop() {
  // Two-level FSM control logic is exactly the shape rewriting exists for
  // (the "unoptimized SOP tax"): re-expressing it through 4-input NPN
  // classes must come back strictly smaller, and balancing must never
  // deepen a graph.
  for (sync::Encoding enc : {sync::Encoding::OneHot, sync::Encoding::Binary}) {
    const Netlist sop = sync::fsmTransitionNetlist(sync::shellFsm(3, 1), enc);
    aig::SequentialAig sa = aig::fromNetlist(sop);
    const std::size_t before = sa.aig.liveAndCount();
    const Aig rewritten = aig::rewrite(sa.aig);
    CHECK(rewritten.liveAndCount() < before);

    const Aig balanced = aig::balance(sa.aig);
    CHECK(balanced.depth() <= sa.aig.depth());
    CHECK_EQ(balanced.pos().size(), sa.aig.pos().size());
  }
}

bool isGateOp(netlist::Op op) {
  using netlist::Op;
  return op == Op::Not || op == Op::And || op == Op::Or || op == Op::Xor ||
         op == Op::Mux;
}

/// Cut-cover invariants: bounded leaf counts, leaves are sources or other
/// LUT roots, and every sink gate (output / register driver) is a root.
/// Unlike the greedy tree cover, interior duplication is legal and dead
/// gates are uncovered.
void checkCutCover(const Netlist& nl, const techmap::MappedNetlist& mapped) {
  for (const techmap::Lut& lut : mapped.luts) {
    CHECK(lut.leaves.size() <= mapped.k);
    CHECK_EQ(lut.function.numVars(), lut.leaves.size());
    for (netlist::NodeId leaf : lut.leaves) {
      if (isGateOp(nl.node(leaf).op)) CHECK(mapped.isLutRoot(leaf));
    }
  }
  for (netlist::NodeId id = 0; id < nl.nodeCount(); ++id) {
    const netlist::Node& n = nl.node(id);
    using netlist::Op;
    if (n.op != Op::Output && n.op != Op::Dff) continue;
    for (netlist::NodeId f : n.fanin) {
      if (isGateOp(nl.node(f).op)) CHECK(mapped.isLutRoot(f));
    }
  }
}

/// Every LUT function agrees with 64-way bit-parallel simulation.
void checkCutFunctions(const Netlist& nl,
                       const techmap::MappedNetlist& mapped,
                       unsigned numWords) {
  netlist::BitSim sim(nl, numWords);
  sim.reset();
  support::SplitMix64 rng(0xA16);
  for (netlist::NodeId in : nl.inputs()) {
    for (unsigned w = 0; w < numWords; ++w) {
      sim.setInputWord(in, w, rng.next());
    }
  }
  sim.settle();
  for (const techmap::Lut& lut : mapped.luts) {
    for (std::size_t p = 0; p < sim.numPatterns(); ++p) {
      std::uint64_t idx = 0;
      for (std::size_t v = 0; v < lut.leaves.size(); ++v) {
        if (sim.lane(lut.leaves[v], p)) idx |= std::uint64_t{1} << v;
      }
      CHECK_EQ(lut.function.evaluate(idx), sim.lane(lut.root, p));
    }
  }
}

void testPriorityCutMapper() {
  std::vector<Netlist> designs;
  designs.push_back(netlist::gen::adder(8));
  designs.push_back(netlist::gen::muxTree(3, netlist::gen::MuxStyle::Tree));
  designs.push_back(netlist::gen::randomDag(14, 400, 10, 21));
  sync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 2;
  designs.push_back(sync::buildSystem(sync::wrapperSpec(cfg)).netlist);

  for (const Netlist& nl : designs) {
    const techmap::MappedNetlist greedy = techmap::mapToLuts(nl, 4);
    for (unsigned rounds : {1u, 2u, 3u}) {
      techmap::MapOptions mo;
      mo.k = 4;
      mo.rounds = rounds;
      const techmap::MappedNetlist mapped = techmap::mapToLuts(nl, mo);
      checkCutCover(nl, mapped);
      checkCutFunctions(nl, mapped, 4);
      // Depth-optimal rounds never map deeper than the greedy collapser,
      // and area recovery must not undo the depth guarantee.
      CHECK(mapped.depth <= greedy.depth);
      if (rounds >= 2) {
        CHECK(techmap::areaOf(mapped).slices <=
              techmap::areaOf(greedy).slices);
      }
    }
  }

  // Parallel cut enumeration is an implementation detail: the cover is
  // byte-identical with and without a runner.
  const Netlist dag = netlist::gen::randomDag(16, 600, 12, 22);
  techmap::MapOptions serial;
  serial.k = 4;
  serial.rounds = 3;
  techmap::MapOptions pooled = serial;
  flow::Executor exec(4);
  pooled.runner = [&exec](std::size_t n,
                          const std::function<void(std::size_t)>& f) {
    exec.forEach(n, f);
  };
  const techmap::MappedNetlist a = techmap::mapToLuts(dag, serial);
  const techmap::MappedNetlist b = techmap::mapToLuts(dag, pooled);
  CHECK_EQ(a.luts.size(), b.luts.size());
  CHECK_EQ(a.depth, b.depth);
  for (std::size_t i = 0; i < a.luts.size(); ++i) {
    CHECK_EQ(a.luts[i].root, b.luts[i].root);
    CHECK(a.luts[i].leaves == b.luts[i].leaves);
    CHECK(a.luts[i].function == b.luts[i].function);
  }

  // The k bound still holds: a 3-input Mux over independent signals
  // cannot fit a 2-LUT.
  techmap::MapOptions k2;
  k2.k = 2;
  k2.rounds = 1;
  const Netlist mux1 = netlist::gen::muxTree(1, netlist::gen::MuxStyle::Tree);
  CHECK_THROWS(techmap::mapToLuts(mux1, k2), std::invalid_argument);
}

void testDesignCacheAndPipeline() {
  // The optimize pipeline end to end: synth -> optimize (with proof) ->
  // iterated mapping -> timing, through the pass surface.
  sync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 1;
  flow::Design d(cfg);
  flow::Pipeline pipe;
  pipe.synthesizeControl().optimizeAig(2).mapLuts(4, 3).sta();
  const flow::RunResult run = pipe.run(d);
  if (!run.ok) {
    for (const auto& diag : run.diagnostics) {
      std::printf("%s [%s]: %s\n", severityName(diag.severity),
                  diag.pass.c_str(), diag.message.c_str());
    }
  }
  CHECK(run.ok);
  CHECK(d.hasOptimized());
  CHECK(d.optimizeStats() != nullptr);
  CHECK(d.optimizeStats()->andsAfter <= d.optimizeStats()->andsBefore);
  CHECK_EQ(d.mappedK(), 4u);
  CHECK_EQ(d.mappedRounds(), 3u);
  const flow::PassRecord* opt = run.record("optimize-aig");
  CHECK(opt != nullptr);
  bool proved = false;
  for (const auto& [key, value] : opt->metrics) {
    if (key == "equiv_proved" && value == 1.0) proved = true;
  }
  CHECK(proved);
  // The proof's SAT footprint reaches the design registry (and so the
  // bench row), next to the encoding proof's proof.sat_* counters.
  CHECK(d.proofStats() != nullptr);
  if (const netlist::ProofStats* ps = d.proofStats()) {
    CHECK(d.metrics().value("aig.equiv_sat_conflicts") ==
          static_cast<double>(ps->satConflicts));
    CHECK(d.metrics().value("aig.equiv_sat_propagations") ==
          static_cast<double>(ps->satPropagations));
    CHECK(ps->satPropagations > 0);
  }

  // (k, rounds) is the mapping cache key: re-mapping with different
  // rounds drops only map/area/timing — synthesis and the optimized
  // netlist survive untouched.
  const netlist::Netlist* nl = &d.netlist();
  const double synthSeconds = d.stageSeconds("synthesize");
  const double optSeconds = d.stageSeconds("optimize");
  CHECK(d.hasTiming());
  techmap::MapOptions mo;
  mo.k = 4;
  mo.rounds = 1;
  const techmap::MappedNetlist* remapped = &d.mapped(mo);
  CHECK(!d.hasTiming()); // timing invalidated by the remap
  CHECK_EQ(d.mappedRounds(), 1u);
  CHECK(&d.netlist() == nl); // synthesis untouched...
  CHECK(d.stageSeconds("synthesize") == synthSeconds);
  CHECK(d.stageSeconds("optimize") == optSeconds); // ...and so is optimize
  CHECK(&d.mapped(mo) == remapped); // same key -> cached

  // A new optimize effort drops the whole map chain.
  (void)d.optimize({.effort = 3});
  CHECK(!d.hasMapped());
}

void testOptimizedMeshCosim() {
  // One optimized mesh system co-simulated against the behavioural
  // reference: the gate-level side runs the AIG-optimized netlist with
  // ports remapped by name.
  const sync::SystemSpec spec =
      sync::meshSpec(2, 2, 1, sync::Encoding::Binary);
  sync::System sys = sync::buildSystem(spec);
  aig::OptimizeResult opt = aig::optimizeNetlist(sys.netlist, {.effort = 2});
  CHECK(opt.stats.andsAfter <= opt.stats.andsBefore);

  std::map<std::string, netlist::NodeId> byName;
  for (netlist::NodeId id : opt.netlist.inputs()) {
    byName[opt.netlist.node(id).name] = id;
  }
  for (netlist::NodeId id : opt.netlist.outputs()) {
    byName[opt.netlist.node(id).name] = id;
  }
  auto remapId = [&](netlist::NodeId id) {
    return byName.at(sys.netlist.node(id).name);
  };
  auto remapVec = [&](std::vector<netlist::NodeId>& v) {
    for (netlist::NodeId& id : v) id = remapId(id);
  };
  sync::System optSys;
  optSys.ports = sys.ports;
  optSys.control = sys.control;
  optSys.relayStations = sys.relayStations;
  remapVec(optSys.ports.inValid);
  remapVec(optSys.ports.inStop);
  remapVec(optSys.ports.outValid);
  remapVec(optSys.ports.outStop);
  for (netlist::Bus& bus : optSys.ports.inData) remapVec(bus);
  for (netlist::Bus& bus : optSys.ports.outData) remapVec(bus);
  optSys.netlist = std::move(opt.netlist);

  sync::CosimOptions opts;
  opts.cycles = 1200;
  const sync::CosimResult res = sync::cosimSystem(optSys, spec, opts);
  if (!res.ok) std::printf("optimized mesh cosim: %s\n", res.mismatch.c_str());
  CHECK(res.ok);
  CHECK(res.tokens > 0);
}

} // namespace

int main() {
  testStructuralHashing();
  testRoundTrips();
  testOptimizeSoundness();
  testRewriteShrinksSop();
  testPriorityCutMapper();
  testDesignCacheAndPipeline();
  testOptimizedMeshCosim();
  return testExit();
}
