// Fault-injection subsystem tests: the BitSim force/poke instrumentation,
// control/data register classification, directed single-fault experiments
// with known classifications, the budget-guarded tiered equivalence
// checker, the acceptance-criteria campaigns (control-register SEU
// detection-or-recovery coverage on the 3x1 wrapper and the 4x4 mesh),
// batched campaigns against injectOne and pinned campaign tallies, and
// campaign cancellation.

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "lis/synth.hpp"
#include "lis/system.hpp"
#include "netlist/bitsim.hpp"
#include "netlist/equiv.hpp"
#include "netlist/generate.hpp"
#include "netlist/netlist.hpp"
#include "netlist/seq_equiv.hpp"
#include "sat/sweep.hpp"
#include "support/cancellation.hpp"
#include "support/rng.hpp"
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

  BitSim sim(nl, 1);
  sim.reset();
  sim.setInputAll(d, false);
  sim.settle();
  CHECK(!sim.lane(q, 0));

  // A poke is a one-shot state overwrite; the next clock edge reloads
  // from the (unfaulted) data input.
  sim.poke(q, true);
  sim.settle();
  CHECK(sim.lane(q, 0));
  sim.clock();
  CHECK(!sim.lane(q, 0));
}

void testRegisterClassification() {
  lsync::WrapperConfig cfg;
  cfg.numInputs = 3;
  cfg.numOutputs = 1;
  cfg.relayDepth = 2;
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);

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
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  const fault::Target target = fault::targetOf(w, spec);

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
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  const fault::Target target = fault::targetOf(w, spec);

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
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  const fault::Target target = fault::targetOf(w, spec);

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

void testGlitchIsDetected() {
  // A spurious valid pulse with a corrupted payload on in0 of the binary
  // 1x1 wrapper reaches the outputs: the oracle comparison must flag it,
  // and never before the glitch was injected.
  lsync::WrapperConfig cfg;
  cfg.numInputs = 1;
  cfg.numOutputs = 1;
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  fault::InjectionOptions opts;
  opts.cycles = 300;
  fault::FaultSite site;
  site.kind = fault::FaultKind::ChannelGlitch;
  site.channel = 0;
  site.cycle = 40;
  const fault::FaultResult r =
      fault::injectOne(fault::targetOf(w, spec), site, opts);
  CHECK(r.outcome == fault::Outcome::Detected);
  CHECK_EQ(r.atCycle, 43u); // three cycles after the glitch
  CHECK(!r.detail.empty());
}

void testBoundedStuckAtsClear() {
  // Five-cycle stuck-ats on every 7th gate of the binary 1x1 wrapper, both
  // polarities: each one either disturbs an output (detected) or is
  // cleared and washes out (recovered) — a released force must never
  // leave a silent or hung design, and some must recover, which only the
  // clearForce path allows.
  lsync::WrapperConfig cfg;
  cfg.numInputs = 1;
  cfg.numOutputs = 1;
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  const fault::Target target = fault::targetOf(w, spec);
  fault::InjectionOptions opts;
  opts.cycles = 300;
  const std::vector<NodeId> gates = fault::gateNodes(w.netlist);
  std::size_t detected = 0;
  std::size_t recovered = 0;
  for (std::size_t k = 0; k < gates.size(); k += 7) {
    for (fault::FaultKind kind :
         {fault::FaultKind::StuckAt0, fault::FaultKind::StuckAt1}) {
      fault::FaultSite site;
      site.kind = kind;
      site.node = gates[k];
      site.cycle = 40;
      site.duration = 5;
      const fault::FaultResult r = fault::injectOne(target, site, opts);
      CHECK(r.outcome == fault::Outcome::Detected ||
            r.outcome == fault::Outcome::Recovered);
      if (r.outcome == fault::Outcome::Detected) ++detected;
      if (r.outcome == fault::Outcome::Recovered) ++recovered;
    }
  }
  CHECK_EQ(detected, 24u);
  CHECK_EQ(recovered, 8u);
}

// Sites that cannot fire are rejected up front, one rule each, instead of
// reading out of bounds or reporting a never-injected fault as recovered.
void testRejectsSiteNodeOutOfRange() {
  lsync::WrapperConfig cfg;
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  fault::FaultSite site;
  site.kind = fault::FaultKind::SeuFlip;
  site.node = static_cast<NodeId>(w.netlist.nodeCount());
  site.cycle = 40;
  CHECK_THROWS(fault::injectOne(fault::targetOf(w, spec), site, {}),
               std::invalid_argument);
  site.kind = fault::FaultKind::StuckAt1;
  CHECK_THROWS(fault::injectOne(fault::targetOf(w, spec), site, {}),
               std::invalid_argument);
}

void testRejectsSeuOnGate() {
  lsync::WrapperConfig cfg;
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  fault::FaultSite site;
  site.kind = fault::FaultKind::SeuFlip;
  site.node = fault::gateNodes(w.netlist).front();
  site.cycle = 40;
  CHECK_THROWS(fault::injectOne(fault::targetOf(w, spec), site, {}),
               std::invalid_argument);
}

void testRejectsChannelOutOfRange() {
  lsync::WrapperConfig cfg;
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  fault::FaultSite site;
  site.kind = fault::FaultKind::ChannelStall;
  site.channel = 5; // the 1x1 wrapper has one output channel
  site.cycle = 40;
  CHECK_THROWS(fault::injectOne(fault::targetOf(w, spec), site, {}),
               std::invalid_argument);
  site.kind = fault::FaultKind::ChannelGlitch;
  site.channel = 3; // ... and one input channel
  CHECK_THROWS(fault::injectOne(fault::targetOf(w, spec), site, {}),
               std::invalid_argument);
}

void testRejectsCycleBeyondHorizon() {
  lsync::WrapperConfig cfg;
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
  fault::InjectionOptions opts;
  opts.cycles = 400;
  fault::FaultSite site;
  site.kind = fault::FaultKind::SeuFlip;
  site.node = fault::controlRegisters(w.netlist).front();
  site.cycle = 1000;
  CHECK_THROWS(fault::injectOne(fault::targetOf(w, spec), site, opts),
               std::invalid_argument);
  site.cycle = opts.cycles; // the horizon itself is one past the last cycle
  CHECK_THROWS(fault::injectOne(fault::targetOf(w, spec), site, opts),
               std::invalid_argument);
  site.cycle = opts.cycles - 1; // the last cycle still fires
  CHECK(fault::injectOne(fault::targetOf(w, spec), site, opts).outcome !=
        fault::Outcome::Hang);
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
  const lsync::SystemSpec spec = lsync::wrapperSpec(cfg);
  const lsync::System w = lsync::buildSystem(spec);
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

fault::CampaignResult campaignCoverageCheck(const fault::Target& target,
                                            const fault::CampaignOptions& opts,
                                            const char* what) {
  fault::CampaignResult r = fault::runCampaign(target, opts);
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
  return r;
}

/// Lanes are independent: every result of the batched campaign equals
/// injectOne (a batch of one) run on its own for that site under the
/// campaign's per-experiment seed — outcome, cycle and wording.
void checkBatchMatchesInjectOne(const fault::Target& target,
                                const fault::CampaignOptions& opts,
                                const fault::CampaignResult& r) {
  const std::vector<fault::FaultSite> sites = fault::planSites(target, opts);
  CHECK_EQ(r.results.size(), sites.size());
  for (std::size_t i = 0; i < sites.size() && i < r.results.size(); ++i) {
    fault::InjectionOptions io = opts.inject;
    io.seed = lis::support::SplitMix64(opts.inject.seed).forkSeed(4096 + i);
    const fault::FaultResult one = fault::injectOne(target, sites[i], io);
    CHECK(one.outcome == r.results[i].outcome);
    CHECK_EQ(one.atCycle, r.results[i].atCycle);
    CHECK(one.detail == r.results[i].detail);
  }
}

/// Detected/recovered/silent/hang tallies and the summed atCycle of a
/// seeded campaign, pinned so a change to the site plan, the traffic
/// stream or the classification shows up as a changed number. (That each
/// batched result equals its lone injectOne is checkBatchMatchesInjectOne's
/// job, site by site.) The plan draws data-register and gate sites by
/// index in node-id order, so re-pin when elaboration reorders nodes.
void checkPinned(const fault::CampaignResult& r, std::size_t detected,
                 std::size_t recovered, std::size_t silent,
                 std::uint64_t atCycleSum) {
  CHECK_EQ(r.all.detected, detected);
  CHECK_EQ(r.all.recovered, recovered);
  CHECK_EQ(r.all.silent, silent);
  CHECK_EQ(r.all.hang, 0u);
  std::uint64_t sum = 0;
  for (const fault::FaultResult& f : r.results) sum += f.atCycle;
  CHECK_EQ(sum, atCycleSum);
}

/// The 3x1 wrapper campaign the coverage and batching tests share.
fault::CampaignOptions wrapperCampaign() {
  fault::CampaignOptions opts;
  opts.controlSeuCount = 32;
  opts.dataSeuCount = 4;
  opts.stuckCount = 4;
  opts.channelCount = 2;
  return opts;
}

lsync::SystemSpec wrapper3x1(lsync::Encoding enc) {
  lsync::WrapperConfig cfg;
  cfg.numInputs = 3;
  cfg.numOutputs = 1;
  cfg.relayDepth = 2;
  cfg.encoding = enc;
  return lsync::wrapperSpec(cfg);
}

void testWrapperCampaignCoverage() {
  // Acceptance criterion: >= 95% of injected control-register SEUs on the
  // 3x1 wrapper (both encodings) are detected or recovered. The 42 sites
  // fill whole batches and a partial last one, and the per-site
  // comparison covers every fault kind the plan draws.
  for (lsync::Encoding enc :
       {lsync::Encoding::OneHot, lsync::Encoding::Binary}) {
    const lsync::SystemSpec spec = wrapper3x1(enc);
    const lsync::System w = lsync::buildSystem(spec);
    const fault::Target target = fault::targetOf(w, spec);
    const fault::CampaignOptions opts = wrapperCampaign();
    const fault::CampaignResult r =
        campaignCoverageCheck(target, opts, lsync::encodingName(enc));
    checkBatchMatchesInjectOne(target, opts, r);
    if (enc == lsync::Encoding::OneHot) {
      checkPinned(r, 31, 11, 0, 8730);
    } else {
      checkPinned(r, 36, 6, 0, 7421);
    }
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
  const fault::CampaignResult r =
      campaignCoverageCheck(fault::targetOf(sys, spec), opts, "mesh4x4");
  checkPinned(r, 10, 2, 0, 1484);
}

void testMeshBatchMatchesInjectOne() {
  // All five fault kinds on the 4x4 mesh: the last sites of the plan mix
  // stuck-ats, stall bursts and glitches in one batch, so a force or a
  // glitch that leaked into a neighbour's lane or twin would change that
  // neighbour's result.
  const lsync::SystemSpec spec =
      lsync::meshSpec(4, 4, 1, lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  const fault::Target target = fault::targetOf(sys, spec);
  fault::CampaignOptions opts;
  opts.inject.cycles = 250;
  opts.controlSeuCount = 4;
  opts.dataSeuCount = 4;
  opts.stuckCount = 4;
  opts.channelCount = 4;
  const fault::CampaignResult r = fault::runCampaign(target, opts);
  CHECK(!r.cancelled);
  checkBatchMatchesInjectOne(target, opts, r);
  checkPinned(r, 10, 6, 0, 2553);
}

void testLatentGlitchIsSilent() {
  // A glitch into the quiesced join is buffered while the other input
  // never offers: no output or stop ever disagrees, but the join's control
  // state holds the spurious token at the horizon. Only a twin that never
  // saw the glitch can tell, so this pins the glitch to the faulted lane.
  const lsync::SystemSpec spec = lsync::joinSpec(lsync::Encoding::Binary);
  const lsync::System sys = lsync::buildSystem(spec);
  fault::InjectionOptions opts;
  opts.cycles = 120;
  opts.offerPercent = 0;
  opts.stallPercent = 0;
  fault::FaultSite site;
  site.kind = fault::FaultKind::ChannelGlitch;
  site.channel = 0;
  site.cycle = 5;
  const fault::FaultResult r =
      fault::injectOne(fault::targetOf(sys, spec), site, opts);
  CHECK(r.outcome == fault::Outcome::SilentCorruption);
  CHECK_EQ(r.atCycle, 120u);
  CHECK(r.detail == "register join_ctl_s_0 differs from the fault-free "
                    "run at the horizon");
}

void testCampaignCancellation() {
  const lsync::SystemSpec spec = wrapper3x1(lsync::Encoding::Binary);
  const lsync::System w = lsync::buildSystem(spec);
  const fault::Target target = fault::targetOf(w, spec);
  fault::CampaignOptions opts = wrapperCampaign();
  const fault::CampaignResult full = fault::runCampaign(target, opts);
  CHECK(full.results.size() > fault::kBatchExperiments);

  // Tripped before the run: nothing runs.
  lis::support::CancellationToken tripped;
  tripped.cancel();
  opts.cancel = &tripped;
  const fault::CampaignResult none = fault::runCampaign(target, opts);
  CHECK(none.cancelled);
  CHECK(none.results.empty());
  CHECK_EQ(none.all.total(), 0u);

  // Tripped after the first batch: exactly that batch's sites, as the
  // uncancelled run reported them.
  lis::support::CancellationToken token;
  opts.cancel = &token;
  opts.runner = [&token](std::size_t n,
                         const std::function<void(std::size_t)>& f) {
    f(0);
    token.cancel();
    for (std::size_t i = 1; i < n; ++i) f(i);
  };
  const fault::CampaignResult first = fault::runCampaign(target, opts);
  CHECK(first.cancelled);
  CHECK_EQ(first.results.size(), fault::kBatchExperiments);
  CHECK_EQ(first.all.total(), fault::kBatchExperiments);
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    CHECK(first.results[i].outcome == full.results[i].outcome);
    CHECK_EQ(first.results[i].atCycle, full.results[i].atCycle);
  }
}

} // namespace

int main() {
  testBitSimForces();
  testPokeTransient();
  testRegisterClassification();
  testDetectableControlSeu();
  testMaskedFaultIsSilent();
  testStallBurstRecovers();
  testGlitchIsDetected();
  testBoundedStuckAtsClear();
  testRejectsSiteNodeOutOfRange();
  testRejectsSeuOnGate();
  testRejectsChannelOutOfRange();
  testRejectsCycleBeyondHorizon();
  testBudgetDegradedVerdictIsSoundAndReported();
  testSeqEquivBudgetDegrades();
  testWrapperCampaignCoverage();
  testMeshCampaignCoverage();
  testMeshBatchMatchesInjectOne();
  testLatentGlitchIsSilent();
  testCampaignCancellation();
  return testExit();
}
