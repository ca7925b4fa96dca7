// Unit tests for techmap/lutmap and timing/sta, consumed through the
// flow::Design artifact container (the map → sta plumbing lives in
// src/flow/ now): structural cover invariants (every gate in exactly one
// LUT cone), functional agreement of LUT truth tables with bit-parallel
// simulation, and area/timing report sanity including k-sweep monotonicity.

#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "flow/design.hpp"
#include "lis/system.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/buses.hpp"
#include "netlist/generate.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "timing/sta.hpp"

using namespace lis::netlist;
using lis::flow::Design;
using lis::techmap::MappedNetlist;

namespace {

bool isGate(Op op) {
  return op == Op::Not || op == Op::And || op == Op::Or || op == Op::Xor ||
         op == Op::Mux;
}

/// Walk one LUT's cone from the root down to its leaves, counting every
/// interior gate (including the root) into `covered`.
void countCone(const Netlist& nl, const lis::techmap::Lut& lut,
               std::vector<unsigned>& covered) {
  std::unordered_set<NodeId> leaves(lut.leaves.begin(), lut.leaves.end());
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> stack{lut.root};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (leaves.count(id) != 0 || !seen.insert(id).second) continue;
    if (isGate(nl.node(id).op)) {
      ++covered[id];
      for (NodeId f : nl.node(id).fanin) stack.push_back(f);
    }
  }
}

/// Every combinational gate must belong to exactly one LUT cone, every LUT
/// must respect the input bound, and leaves must not be cone-interior
/// nodes of other LUTs.
void checkCover(const Netlist& nl, const MappedNetlist& mapped) {
  std::vector<unsigned> covered(nl.nodeCount(), 0);
  for (const auto& lut : mapped.luts) {
    CHECK(lut.leaves.size() <= mapped.k);
    CHECK(lut.function.numVars() == lut.leaves.size());
    countCone(nl, lut, covered);
  }
  for (NodeId id = 0; id < nl.nodeCount(); ++id) {
    if (isGate(nl.node(id).op)) {
      if (covered[id] != 1) {
        std::printf("gate n%u covered %u times\n", id, covered[id]);
      }
      CHECK_EQ(covered[id], 1u);
    } else {
      CHECK_EQ(covered[id], 0u);
    }
  }
  // LUT leaves must be sources or other LUT roots, never absorbed gates.
  for (const auto& lut : mapped.luts) {
    for (NodeId leaf : lut.leaves) {
      if (isGate(nl.node(leaf).op)) CHECK(mapped.isLutRoot(leaf));
    }
  }
}

/// LUT functions agree with 64-way simulation on every driven pattern.
void checkFunctions(const Netlist& nl, const MappedNetlist& mapped,
                    unsigned numWords, bool exhaustive) {
  BitSim sim(nl, numWords);
  sim.reset();
  lis::support::SplitMix64 rng(0x717);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    for (unsigned w = 0; w < numWords; ++w) {
      std::uint64_t word = 0;
      if (exhaustive) {
        // Pattern index p = w*64+lane; input i carries bit i of p.
        for (unsigned lane = 0; lane < 64; ++lane) {
          const std::uint64_t p = std::uint64_t{w} * 64 + lane;
          word |= ((p >> i) & 1u) << lane;
        }
      } else {
        word = rng.next();
      }
      sim.setInputWord(nl.inputs()[i], w, word);
    }
  }
  sim.settle();
  for (const auto& lut : mapped.luts) {
    for (std::size_t p = 0; p < sim.numPatterns(); ++p) {
      std::uint64_t idx = 0;
      for (std::size_t v = 0; v < lut.leaves.size(); ++v) {
        if (sim.lane(lut.leaves[v], p)) idx |= std::uint64_t{1} << v;
      }
      CHECK_EQ(lut.function.evaluate(idx), sim.lane(lut.root, p));
    }
  }
}

void testCoverAndFunctions() {
  Design add(gen::adder(6));
  checkCover(add.netlist(), add.mapped(4));
  // 12 inputs -> 4096 patterns: exhaustive, so every reachable leaf
  // pattern of every LUT is checked against the truth table.
  checkFunctions(add.netlist(), add.mapped(4), 64, /*exhaustive=*/true);

  Design mux(gen::muxTree(3, gen::MuxStyle::Tree));
  checkCover(mux.netlist(), mux.mapped(4));
  checkFunctions(mux.netlist(), mux.mapped(4), 32, /*exhaustive=*/false);

  Design dag(gen::randomDag(16, 400, 8, /*seed=*/5));
  for (unsigned k : {3u, 4u, 6u}) {
    const MappedNetlist& m = dag.mapped(k);
    checkCover(dag.netlist(), m);
    checkFunctions(dag.netlist(), m, 8, /*exhaustive=*/false);
  }

  // A synthesized wrapper netlist: registers + control SOP + datapath,
  // through the spec-backed Design constructor.
  Design w(lis::sync::WrapperConfig{2, 2, 8, 2,
                                    lis::sync::Encoding::OneHot});
  const MappedNetlist& wm = w.mapped(4);
  checkCover(w.netlist(), wm);
  checkFunctions(w.netlist(), wm, 4, /*exhaustive=*/false);
  CHECK_EQ(wm.ffCount, w.netlist().stats().dffs);
}

void testKBoundRejected() {
  // A 3-input Mux over independent signals cannot fit a 2-LUT: mapping
  // must refuse, not emit an oversized LUT.
  Design mux(gen::muxTree(1, gen::MuxStyle::Tree));
  CHECK_THROWS(mux.mapped(2), std::invalid_argument);
  checkCover(mux.netlist(), mux.mapped(3));

  // But a Mux whose select cone shares the data support IS 2-feasible:
  // mux(and(a,b), a, b) collapses to the 2-leaf cut {a, b}.
  Netlist nl("shared");
  const NodeId a = nl.addInput("a");
  const NodeId b = nl.addInput("b");
  nl.addOutput("y", nl.mkMux(nl.mkAnd(a, b), a, b));
  Design shared(std::move(nl));
  const MappedNetlist& sm = shared.mapped(2);
  checkCover(shared.netlist(), sm);
  CHECK_EQ(sm.luts.size(), 1u);
  CHECK_EQ(sm.luts[0].leaves.size(), 2u);
}

void testKSweepMonotone() {
  Design add(gen::adder(16));
  unsigned lastDepth = ~0u;
  double lastFmax = 0.0;
  std::size_t lastLuts = ~std::size_t{0};
  for (unsigned k = 2; k <= 6; ++k) {
    const MappedNetlist& mapped = add.mapped(k);
    const lis::timing::TimingReport& rep = add.timing();
    CHECK(mapped.depth <= lastDepth);     // wider LUTs never deepen
    CHECK(mapped.luts.size() <= lastLuts); // nor grow the cover
    CHECK(rep.fmaxMHz + 1e-9 >= lastFmax); // nor slow the clock
    lastDepth = mapped.depth;
    lastLuts = mapped.luts.size();
    lastFmax = rep.fmaxMHz;
  }
}

void testStaReport() {
  // Registered counter: the critical path must include clk->Q and setup.
  Netlist nl("cnt");
  BusBuilder bb(nl);
  Bus regs = bb.registerBus(16, 0, "cnt");
  bb.connectRegister(regs, bb.incrementer(regs));
  bb.outputBus("q", regs);
  Design cnt(std::move(nl));

  const MappedNetlist& mapped = cnt.mapped(4);
  const lis::timing::TechParams params;
  const lis::timing::TimingReport& rep = cnt.timing(params);
  CHECK(rep.criticalPathNs >=
        params.clkToQ + params.lutDelay + params.setup);
  CHECK_EQ(rep.minPeriodNs, rep.criticalPathNs + params.clockSkewMargin);
  CHECK(rep.fmaxMHz > 0.0);
  CHECK(rep.logicLevels >= 1);
  CHECK(rep.logicLevels <= mapped.depth);
  CHECK(!rep.criticalPath.empty());

  // Purely combinational netlists end at primary outputs (no setup).
  Design add(gen::adder(8));
  const auto& addRep = add.timing();
  CHECK(addRep.criticalPathNs > 0.0);
  CHECK(addRep.logicLevels >= 1);

  // Slice model: 2 LUTs and 2 FFs per slice, used independently.
  const auto& area = cnt.area(4);
  CHECK_EQ(area.ffs, 16u);
  CHECK_EQ(area.luts, mapped.luts.size());
  CHECK_EQ(area.slices,
           std::max((area.luts + 1) / 2, (area.ffs + 1) / 2));
}

} // namespace

int main() {
  testCoverAndFunctions();
  testKBoundRejected();
  testKSweepMonotone();
  testStaReport();
  return testExit();
}
