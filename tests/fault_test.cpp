// Fault-injection subsystem tests: the BitSim force/poke instrumentation,
// control/data register classification, directed single-fault experiments
// with known classifications, the budget-guarded tiered equivalence
// checker, and the acceptance-criteria campaigns (control-register SEU
// detection-or-recovery coverage on the 3x1 wrapper and the 4x4 mesh).

#include <cstdio>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "lis/synth.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/equiv.hpp"
#include "netlist/generate.hpp"
#include "netlist/netlist.hpp"
#include "netlist/netlist_sim.hpp"
#include "netlist/seq_equiv.hpp"
#include "sat/sweep.hpp"
#include "test_util.hpp"

using lis::netlist::BitSim;
using lis::netlist::Netlist;
using lis::netlist::NodeId;
namespace fault = lis::fault;
namespace gen = lis::netlist::gen;
namespace lsync = lis::sync; // "sync" itself collides with unistd's sync()

namespace {

void testBitSimForces() {
  Netlist nl("forces");
  const NodeId a = nl.addInput("a");
  const NodeId b = nl.addInput("b");
  const NodeId g = nl.mkAnd(a, b);
  nl.addOutput("o", g);

  BitSim sim(nl, 1);
  sim.reset();
  sim.setInputAll(a, true);
  sim.setInputAll(b, false);
  sim.settle();
  CHECK(!sim.lane(g, 0));

  // Force a gate output high: applied immediately, held through settles.
  sim.setForce(g, true);
  CHECK(sim.lane(g, 0));
  sim.settle();
  CHECK(sim.lane(g, 0));

  // Force a source (Input) node: re-pinned at the start of every settle.
  sim.clearForce(g);
  sim.setForce(b, true);
  sim.settle();
  CHECK(sim.lane(b, 0));
  CHECK(sim.lane(g, 0)); // a=1, b forced 1

  // Inputs latch their last driven value, so releasing the force needs a
  // re-drive — exactly what the injection loop does every cycle.
  sim.clearForces();
  sim.setInputAll(b, false);
  sim.settle();
  CHECK(!sim.lane(b, 0));
  CHECK(!sim.lane(g, 0));
}

void testPokeTransient() {
  Netlist nl("poke");
  const NodeId d = nl.addInput("d");
  const NodeId q = nl.mkDff(d);
  nl.addOutput("o", q);

  lis::netlist::NetlistSim sim(nl);
  sim.reset();
  sim.setInput(d, false);
  sim.settle();
  CHECK(!sim.value(q));

  // A poke is a one-shot state overwrite; the next clock edge reloads
  // from the (unfaulted) data input.
  sim.poke(q, true);
  sim.settle();
  CHECK(sim.value(q));
  sim.clock();
  CHECK(!sim.value(q));
}

void testRegisterClassification() {
  lsync::WrapperConfig cfg;
  cfg.numInputs = 3;
  cfg.numOutputs = 1;
  cfg.relayDepth = 2;
  const lsync::Wrapper w = lsync::buildWrapper(cfg);

  const std::vector<NodeId> ctrl = fault::controlRegisters(w.netlist);
  const std::vector<NodeId> data = fault::dataRegisters(w.netlist);
  CHECK(!ctrl.empty());
  CHECK(!data.empty());
  CHECK_EQ(ctrl.size() + data.size(), w.netlist.dffs().size());
  for (NodeId id : ctrl) {
    const std::string& name = w.netlist.node(id).name;
    const std::size_t us = name.rfind('_');
    CHECK(us != std::string::npos && us >= 2);
    CHECK(name.compare(us - 2, 2, "_s") == 0);
  }
  CHECK(!fault::gateNodes(w.netlist).empty());
}

void testDetectableControlSeu() {
  // SEUs in the shell-FSM state of a saturated 1x1 wrapper: sweeping every
  // control register, at least one flip must surface as an observable
  // divergence from the oracle, and none may classify as silent — a
  // control flip that goes latent under constant traffic would be a
  // checker bug.
  lsync::WrapperConfig cfg;
  cfg.numInputs = 1;
  cfg.numOutputs = 1;
  const lsync::Wrapper w = lsync::buildWrapper(cfg);
  const fault::Target target = fault::targetOf(w, cfg);

  fault::InjectionOptions opts;
  opts.cycles = 300;
  opts.offerPercent = 100; // saturate: every control bit matters
  opts.stallPercent = 20;

  std::size_t detected = 0;
  for (NodeId reg : fault::controlRegisters(w.netlist)) {
    fault::FaultSite site;
    site.kind = fault::FaultKind::SeuFlip;
    site.node = reg;
    site.cycle = 40;
    site.controlTarget = true;
    const fault::FaultResult r = fault::injectOne(target, site, opts);
    CHECK(r.outcome != fault::Outcome::SilentCorruption);
    if (r.outcome == fault::Outcome::Detected) {
      ++detected;
      CHECK(r.atCycle >= site.cycle);
      CHECK(!r.detail.empty());
    }
  }
  CHECK(detected >= 1);
}

void testMaskedFaultIsSilent() {
  // A data-register flip with the sources quiesced (offerPercent = 0): no
  // token ever moves, the outputs never disagree, and nothing overwrites
  // the corrupted slot — at least one register in the design must classify
  // as silent corruption (the latent-fault case), and the detail must name
  // the diverged register.
  lsync::WrapperConfig cfg;
  cfg.numInputs = 1;
  cfg.numOutputs = 1;
  const lsync::Wrapper w = lsync::buildWrapper(cfg);
  const fault::Target target = fault::targetOf(w, cfg);

  fault::InjectionOptions opts;
  opts.cycles = 120;
  opts.offerPercent = 0; // masked: no traffic to propagate the corruption
  opts.stallPercent = 0;

  std::size_t silent = 0;
  for (NodeId reg : fault::dataRegisters(w.netlist)) {
    fault::FaultSite site;
    site.kind = fault::FaultKind::SeuFlip;
    site.node = reg;
    site.cycle = 10;
    const fault::FaultResult r = fault::injectOne(target, site, opts);
    if (r.outcome == fault::Outcome::SilentCorruption) {
      ++silent;
      CHECK(!r.detail.empty());
      CHECK_EQ(r.atCycle, opts.cycles);
    }
  }
  CHECK(silent >= 1);
}

void testStallBurstRecovers() {
  // A forced stall burst is an environment fault applied to all three
  // simulators alike: the latency-insensitive design must ride it out with
  // no divergence and re-converge with the fault-free twin — and the burst
  // must not trip the watchdog even though it outlasts the window.
  lsync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 1;
  const lsync::Wrapper w = lsync::buildWrapper(cfg);
  const fault::Target target = fault::targetOf(w, cfg);

  fault::InjectionOptions opts;
  opts.cycles = 300;
  fault::FaultSite site;
  site.kind = fault::FaultKind::ChannelStall;
  site.channel = 0;
  site.cycle = 50;
  site.duration = 100; // longer than the watchdog window
  const fault::FaultResult r = fault::injectOne(target, site, opts);
  CHECK(r.outcome == fault::Outcome::Recovered);
}

void testBudgetDegradedVerdictIsSoundAndReported() {
  // Equivalent pair under a SAT budget the proof cannot fit in: the
  // verdict degrades to a simulation screen — still "equivalent", but
  // reported as method=sim / degraded with a confidence strictly below 1,
  // instead of hanging or erroring out. Mux tree vs sum-of-products is
  // structurally distinct, so the miter really has to search.
  lis::netlist::EquivOptions opts;
  opts.satConflictBudget = 1;
  const lis::netlist::EquivResult eq = lis::netlist::checkCombEquivalence(
      gen::muxTree(4, gen::MuxStyle::Tree),
      gen::muxTree(4, gen::MuxStyle::SumOfProducts), opts);
  CHECK(eq.equivalent);
  CHECK(eq.degraded);
  CHECK(eq.method == lis::netlist::EquivMethod::Sim);
  CHECK(eq.confidence > 0.0);
  CHECK(eq.confidence < 1.0);

  // Inequivalent pair under the same budget: the refutation is exact
  // (counterexamples do not degrade).
  const lis::netlist::EquivResult neq = lis::netlist::checkCombEquivalence(
      gen::adder(16), gen::adder(16, false, /*corruptMsb=*/true), opts);
  CHECK(!neq.equivalent);
  CHECK(neq.confidence == 1.0);
  CHECK(!neq.degraded);
}

void testSeqEquivBudgetDegrades() {
  // The sequential checker forwards the envelope comparison's degraded
  // verdict: a wrapper netlist against its SAT-swept twin under a starved
  // budget still reports equivalent, with the degradation provenance
  // visible. (A wrapper against itself would strash to one cone and never
  // touch the solver, so no budget could trip.)
  lsync::WrapperConfig cfg;
  cfg.numInputs = 1;
  cfg.numOutputs = 1;
  const lsync::Wrapper w = lsync::buildWrapper(cfg);
  const lis::sat::NetlistSweepResult swept = lis::sat::sweepNetlist(w.netlist);
  lis::netlist::EquivOptions opts;
  opts.satConflictBudget = 1;
  const lis::netlist::SeqEquivResult r =
      lis::netlist::checkSeqEquivalence(w.netlist, swept.netlist, opts);
  CHECK(r.equivalent);
  CHECK(r.degraded);
  CHECK(r.method == lis::netlist::EquivMethod::Sim);
  CHECK(r.confidence < 1.0);
}

void campaignCoverageCheck(const fault::Target& target,
                           const fault::CampaignOptions& opts,
                           const char* what) {
  const fault::CampaignResult r = fault::runCampaign(target, opts);
  CHECK(!r.cancelled);
  CHECK(r.controlSeu.total() > 0);
  const double cov = r.controlSeu.coverage();
  if (cov < 0.95) {
    std::printf("FAIL: %s control-SEU coverage %.3f < 0.95 "
                "(%zu det, %zu rec, %zu silent, %zu hang)\n",
                what, cov, r.controlSeu.detected, r.controlSeu.recovered,
                r.controlSeu.silent, r.controlSeu.hang);
    ++g_failures;
  }
}

void testWrapperCampaignCoverage() {
  // Acceptance criterion: >= 95% of injected control-register SEUs on the
  // 3x1 wrapper (both encodings) are detected or recovered.
  for (lsync::Encoding enc :
       {lsync::Encoding::OneHot, lsync::Encoding::Binary}) {
    lsync::WrapperConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 1;
    cfg.relayDepth = 2;
    cfg.encoding = enc;
    const lsync::Wrapper w = lsync::buildWrapper(cfg);
    fault::CampaignOptions opts;
    opts.controlSeuCount = 32;
    opts.dataSeuCount = 4;
    opts.stuckCount = 4;
    opts.channelCount = 2;
    campaignCoverageCheck(fault::targetOf(w, cfg), opts,
                          lsync::encodingName(enc));
  }
}

void testMeshCampaignCoverage() {
  // Same criterion on the 4x4 mesh. Control-SEU-only with a shorter
  // horizon: this test also runs under TSan, where a bench-sized campaign
  // would dominate the CI wall clock (lis_bench runs the full one).
  const lsync::SystemSpec spec =
      lsync::meshSpec(4, 4, 1, lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  fault::CampaignOptions opts;
  opts.inject.cycles = 250;
  opts.controlSeuCount = 12;
  opts.dataSeuCount = 0;
  opts.stuckCount = 0;
  opts.channelCount = 0;
  campaignCoverageCheck(fault::targetOf(sys, spec), opts, "mesh4x4");
}

} // namespace

int main() {
  testBitSimForces();
  testPokeTransient();
  testRegisterClassification();
  testDetectableControlSeu();
  testMaskedFaultIsSilent();
  testStallBurstRecovers();
  testBudgetDegradedVerdictIsSoundAndReported();
  testSeqEquivBudgetDegrades();
  testWrapperCampaignCoverage();
  testMeshCampaignCoverage();
  return testExit();
}
