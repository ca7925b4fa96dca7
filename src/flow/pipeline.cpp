#include "flow/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <set>
#include <sstream>

#include "lis/fsm.hpp"
#include "lis/oracle.hpp"
#include "lis/synth.hpp"
#include "netlist/equiv.hpp"
#include "netlist/seq_equiv.hpp"
#include "netlist/verilog.hpp"
#include "obs/trace.hpp"

namespace lis::flow {

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

void PassContext::note(std::string message) {
  diags_->push_back({Severity::Note, pass_, std::move(message)});
}

void PassContext::warning(std::string message) {
  diags_->push_back({Severity::Warning, pass_, std::move(message)});
}

void PassContext::error(std::string message) {
  diags_->push_back({Severity::Error, pass_, std::move(message)});
  failed_ = true;
}

void PassContext::metric(std::string key, double value) {
  metrics_->emplace_back(std::move(key), value);
}

void PassContext::parallelFor(std::size_t n,
                              const std::function<void(std::size_t)>& f,
                              const char* label) const {
  if (exec_ != nullptr) {
    exec_->forEach(n, f, nullptr, label);
  } else {
    for (std::size_t i = 0; i < n; ++i) f(i);
  }
}

void SynthesizeControl::run(Design& design, PassContext& ctx) {
  // Hand buildSystem the executor before the netlist is first touched, so
  // system elaboration fans out on the same pool as the passes (nested
  // forEach is deadlock-free: waiting callers drain queued tasks). Dropped
  // again right after — the synthesized netlist is immutable, so the
  // runner must not outlive this pass's context.
  design.setBuildRunner([&ctx](const char* label, std::size_t n,
                               const std::function<void(std::size_t)>& f) {
    ctx.parallelFor(n, f, label);
  });
  const netlist::Netlist& nl = design.netlist();
  design.setBuildRunner({});
  const netlist::NetlistStats st = nl.stats();
  ctx.metric("gates", static_cast<double>(st.gates));
  ctx.metric("dffs", static_cast<double>(st.dffs));
  design.metrics().set("synth.gates", static_cast<double>(st.gates));
  design.metrics().set("synth.dffs", static_cast<double>(st.dffs));
  if (const sync::FsmSynthStats* fs = design.controlStats()) {
    ctx.metric("sop_functions", static_cast<double>(fs->functions));
    ctx.metric("sop_cubes", static_cast<double>(fs->cubesAfter));
    ctx.metric("sop_literals", static_cast<double>(fs->literalsAfter));
    design.metrics().set("synth.sop_cubes",
                         static_cast<double>(fs->cubesAfter));
    design.metrics().set("synth.sop_literals",
                         static_cast<double>(fs->literalsAfter));
  } else {
    ctx.note(design.name() + ": prebuilt netlist, nothing to synthesize");
  }
  if (const sync::SystemSpec* spec = design.systemSpec()) {
    design.metrics().set("synth.pearls",
                         static_cast<double>(spec->pearls.size()));
    design.metrics().set("synth.channels",
                         static_cast<double>(spec->channels.size()));
    design.metrics().set("synth.relay_stations",
                         static_cast<double>(design.system()->relayStations));
  }
}

void OptimizeAig::run(Design& design, PassContext& ctx) {
  const netlist::Netlist& before = design.netlist();
  const netlist::Netlist& optimized =
      design.optimize({.effort = effort_});
  const aig::OptimizeStats& st = *design.optimizeStats();
  ctx.metric("effort", static_cast<double>(effort_));
  ctx.metric("aig_ands_before", static_cast<double>(st.andsBefore));
  ctx.metric("aig_ands_after", static_cast<double>(st.andsAfter));
  ctx.metric("aig_depth_before", static_cast<double>(st.depthBefore));
  ctx.metric("aig_depth_after", static_cast<double>(st.depthAfter));
  ctx.metric("rounds_run", static_cast<double>(st.roundsRun));
  ctx.metric("rewrite_adoptions", static_cast<double>(st.rewriteAdoptions));
  ctx.metric("cuts_enumerated", static_cast<double>(st.cutsEnumerated));
  obs::Registry& m = design.metrics();
  m.set("aig.ands_before", static_cast<double>(st.andsBefore));
  m.set("aig.ands_after", static_cast<double>(st.andsAfter));
  m.set("aig.rounds_run", static_cast<double>(st.roundsRun));
  m.set("aig.rewrite_adoptions", static_cast<double>(st.rewriteAdoptions));
  m.set("aig.cuts_enumerated", static_cast<double>(st.cutsEnumerated));
  if (prove_) {
    const netlist::SeqEquivResult proof =
        netlist::checkSeqEquivalence(before, optimized, equiv_);
    design.addProofStats(proof.proof);
    m.set("aig.equiv_sat_conflicts",
          static_cast<double>(proof.proof.satConflicts));
    m.set("aig.equiv_sat_propagations",
          static_cast<double>(proof.proof.satPropagations));
    if (!proof.equivalent) {
      ctx.error(design.name() +
                ": optimized netlist is NOT equivalent: " + proof.detail);
      return;
    }
    // equiv_proved counts full proofs only; a budget-degraded screen is
    // still a pass, but reported as such with its residual confidence.
    ctx.metric("equiv_proved", proof.degraded ? 0.0 : 1.0);
    m.set("aig.equiv_proved", proof.degraded ? 0.0 : 1.0);
    ctx.metric("equiv_confidence", proof.confidence);
    if (proof.degraded) {
      ctx.warning(design.name() + ": equivalence degraded to " +
                  std::string(netlist::equivMethodName(proof.method)) +
                  " screen (SAT budget exceeded), confidence " +
                  std::to_string(proof.confidence));
    }
  }
}

void MapLuts::run(Design& design, PassContext& ctx) {
  techmap::MapOptions options;
  options.k = k_;
  options.rounds = rounds_;
  // Per-level cut enumeration rides the shared pool when the pipeline
  // carries an executor; the chosen cover is identical either way. A
  // 1-job executor runs the fan-out inline in index order, so the runner
  // engages at any job count — keeping behavior (and trace structure)
  // jobs-count-invariant.
  if (Executor* exec = ctx.executor(); exec != nullptr && rounds_ > 0) {
    options.runner = [exec](std::size_t n,
                            const std::function<void(std::size_t)>& f) {
      exec->forEach(n, f);
    };
  }
  const techmap::MappedNetlist& mapped = design.mapped(options);
  const techmap::AreaReport& area = design.area(options);
  ctx.metric("k", static_cast<double>(k_));
  ctx.metric("rounds", static_cast<double>(rounds_));
  ctx.metric("luts", static_cast<double>(area.luts));
  ctx.metric("ffs", static_cast<double>(area.ffs));
  ctx.metric("slices", static_cast<double>(area.slices));
  ctx.metric("lut_depth", static_cast<double>(mapped.depth));
  design.metrics().set("map.luts", static_cast<double>(area.luts));
  design.metrics().set("map.ffs", static_cast<double>(area.ffs));
  design.metrics().set("map.slices", static_cast<double>(area.slices));
  design.metrics().set("map.lut_depth", static_cast<double>(mapped.depth));
}

void Sta::run(Design& design, PassContext& ctx) {
  if (!design.hasMapped()) {
    ctx.warning("sta before map-luts: mapping with default k");
  }
  const timing::TimingReport& rep = design.timing(params_);
  ctx.metric("fmax_mhz", rep.fmaxMHz);
  ctx.metric("critical_path_ns", rep.criticalPathNs);
  ctx.metric("logic_levels", static_cast<double>(rep.logicLevels));
  design.metrics().set("sta.fmax_mhz", rep.fmaxMHz);
}

void ProveEncodingEquiv::run(Design& design, PassContext& ctx) {
  // Collect the distinct FSM specs the design's control was built from.
  // The transition function is independent of the reset state, so seeded
  // relays prove together with their unseeded twins.
  std::vector<sync::FsmSpec> specs;
  if (const sync::WrapperConfig* cfg = design.wrapperConfig()) {
    specs.push_back(sync::shellFsm(cfg->numInputs, cfg->numOutputs));
    specs.push_back(sync::relayFsm(cfg->relayDepth));
  } else if (const sync::SystemSpec* spec = design.systemSpec()) {
    std::set<std::pair<unsigned, unsigned>> shells;
    std::set<unsigned> relays;
    for (const sync::PearlSpec& p : spec->pearls) {
      if (shells.insert({p.numInputs, p.numOutputs}).second) {
        specs.push_back(sync::shellFsm(p.numInputs, p.numOutputs));
      }
    }
    for (const sync::ChannelSpec& ch : spec->channels) {
      if (ch.relays > 0 && relays.insert(ch.relayDepth).second) {
        specs.push_back(sync::relayFsm(ch.relayDepth));
      }
    }
  } else {
    ctx.note(design.name() + ": prebuilt netlist has no control spec");
    return;
  }

  // Each spec's encode+prove is an independent subtask; verdicts are
  // joined by index so only the first (in spec order) failure is
  // reported, exactly as a serial stop-at-first-failure loop would.
  struct Verdict {
    bool equivalent = false;
    bool degraded = false;
    std::string failingOutput;
    netlist::ProofStats proof;
  };
  std::vector<Verdict> verdicts(specs.size());
  ctx.parallelFor(specs.size(), [&](std::size_t i) {
    const netlist::Netlist oneHot =
        sync::fsmTransitionNetlist(specs[i], sync::Encoding::OneHot);
    const netlist::Netlist binary =
        sync::fsmTransitionNetlist(specs[i], sync::Encoding::Binary);
    const netlist::EquivResult res =
        netlist::checkCombEquivalence(oneHot, binary);
    verdicts[i] = {res.equivalent, res.degraded, res.failingOutput,
                   res.proof};
  }, "flow.proofs");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    design.addProofStats(verdicts[i].proof);
    if (!verdicts[i].equivalent) {
      ctx.error(specs[i].name +
                ": one-hot and binary control differ at output " +
                verdicts[i].failingOutput);
      return;
    }
    if (verdicts[i].degraded) {
      ctx.warning(specs[i].name +
                  ": encoding proof degraded to a simulation screen");
    }
  }
  ctx.metric("proofs", static_cast<double>(specs.size()));
  if (const netlist::ProofStats* p = design.proofStats()) {
    design.metrics().set("proof.sat_conflicts",
                         static_cast<double>(p->satConflicts));
    design.metrics().set("proof.sat_decisions",
                         static_cast<double>(p->satDecisions));
    design.metrics().set("proof.sat_propagations",
                         static_cast<double>(p->satPropagations));
  }
}

void Cosim::run(Design& design, PassContext& ctx) {
  // Drive the design's cached synthesis (building it on first access)
  // rather than re-running buildWrapper/buildSystem inside the oracle.
  // Seed shards fan out onto the executor's pool; the sharded result is a
  // pure function of the options (see CosimOptions::shards), so wiring
  // the runner changes wall time only, never the outcome.
  sync::CosimOptions opts = options_;
  if (opts.cancel == nullptr) opts.cancel = ctx.cancel();
  if (Executor* exec = ctx.executor(); exec != nullptr && opts.shards > 1) {
    opts.runner = [exec](std::size_t n,
                         const std::function<void(std::size_t)>& f) {
      exec->forEach(n, f, nullptr, "cosim.shards");
    };
  }
  sync::CosimResult r;
  if (const sync::WrapperConfig* cfg = design.wrapperConfig()) {
    r = sync::cosimWrapper(*design.wrapper(), *cfg, opts);
  } else if (const sync::SystemSpec* spec = design.systemSpec()) {
    r = sync::cosimSystem(*design.system(), *spec, opts);
  } else {
    ctx.note(design.name() + ": prebuilt netlist has no behavioural model");
    return;
  }
  ctx.metric("cycles", static_cast<double>(r.cyclesRun));
  ctx.metric("fires", static_cast<double>(r.fires));
  ctx.metric("tokens", static_cast<double>(r.tokens));
  design.metrics().set("cosim.cycles", static_cast<double>(r.cyclesRun));
  design.metrics().set("cosim.fires", static_cast<double>(r.fires));
  design.metrics().set("cosim.tokens", static_cast<double>(r.tokens));
  // 0 flags a vacuous run: some output never delivered a token (shards
  // shorter than the design's fill latency, or a dead channel).
  const auto least =
      std::min_element(r.tokensPerOutput.begin(), r.tokensPerOutput.end());
  design.metrics().set("cosim.min_tokens_per_output",
                       least == r.tokensPerOutput.end()
                           ? 0.0
                           : static_cast<double>(*least));
  const bool ok = r.ok;
  const bool cancelled = r.cancelled;
  const std::string mismatch = r.mismatch;
  design.setCosimResult(std::move(r));
  if (cancelled) {
    ctx.error("co-simulation cancelled: " + mismatch);
  } else if (!ok) {
    ctx.error("co-simulation mismatch: " + mismatch);
  }
}

void FaultCampaign::run(Design& design, PassContext& ctx) {
  fault::CampaignOptions opts = options_;
  if (opts.cancel == nullptr) opts.cancel = ctx.cancel();
  // Engaged at any job count (a 1-job executor runs inline in index
  // order) so campaign behavior and trace structure never depend on jobs.
  if (Executor* exec = ctx.executor(); exec != nullptr) {
    opts.runner = [exec](std::size_t n,
                         const std::function<void(std::size_t)>& f) {
      exec->forEach(n, f, nullptr, "fault.batches");
    };
  }
  fault::Target target;
  if (const sync::WrapperConfig* cfg = design.wrapperConfig()) {
    target = fault::targetOf(*design.wrapper(), *cfg);
  } else if (const sync::SystemSpec* spec = design.systemSpec()) {
    target = fault::targetOf(*design.system(), *spec);
  } else {
    ctx.note(design.name() + ": prebuilt netlist has no behavioural model");
    return;
  }
  fault::CampaignResult r = fault::runCampaign(target, opts);
  ctx.metric("sites", static_cast<double>(r.all.total()));
  ctx.metric("detected", static_cast<double>(r.all.detected));
  ctx.metric("recovered", static_cast<double>(r.all.recovered));
  ctx.metric("silent", static_cast<double>(r.all.silent));
  ctx.metric("hang", static_cast<double>(r.all.hang));
  ctx.metric("coverage", r.all.coverage());
  ctx.metric("control_seu_sites",
             static_cast<double>(r.controlSeu.total()));
  ctx.metric("control_seu_coverage", r.controlSeu.coverage());
  obs::Registry& m = design.metrics();
  m.set("fault.sites", static_cast<double>(r.all.total()));
  m.set("fault.detected", static_cast<double>(r.all.detected));
  m.set("fault.recovered", static_cast<double>(r.all.recovered));
  m.set("fault.silent", static_cast<double>(r.all.silent));
  m.set("fault.hang", static_cast<double>(r.all.hang));
  m.set("fault.coverage", r.all.coverage());
  m.set("fault.control_seu_sites",
        static_cast<double>(r.controlSeu.total()));
  m.set("fault.control_seu_coverage", r.controlSeu.coverage());
  const bool cancelled = r.cancelled;
  design.setFaultResult(std::move(r));
  if (cancelled) {
    ctx.error("fault campaign cancelled before all sites ran");
  }
}

void SatSweep::run(Design& design, PassContext& ctx) {
  const netlist::Netlist& before = design.netlist();
  sat::NetlistSweepResult swept = sat::sweepNetlist(before, options_);
  const sat::SweepStats& st = swept.stats;
  ctx.metric("candidates", static_cast<double>(st.candidates));
  ctx.metric("proved", static_cast<double>(st.proved));
  ctx.metric("refuted", static_cast<double>(st.refuted));
  ctx.metric("undecided", static_cast<double>(st.undecided));
  ctx.metric("window_proved", static_cast<double>(st.windowProved));
  ctx.metric("aig_ands_before", static_cast<double>(st.andsBefore));
  ctx.metric("aig_ands_after", static_cast<double>(st.andsAfter));
  obs::Registry& m = design.metrics();
  m.set("sweep.candidates", static_cast<double>(st.candidates));
  m.set("sweep.proved", static_cast<double>(st.proved));
  m.set("sweep.window_proved", static_cast<double>(st.windowProved));
  m.set("sweep.refuted", static_cast<double>(st.refuted));
  m.set("sweep.undecided", static_cast<double>(st.undecided));
  m.set("sweep.ands_before", static_cast<double>(st.andsBefore));
  m.set("sweep.ands_after", static_cast<double>(st.andsAfter));
  m.add("sat.conflicts", static_cast<double>(st.solver.conflicts));
  m.add("sat.decisions", static_cast<double>(st.solver.decisions));
  m.add("sat.propagations", static_cast<double>(st.solver.propagations));

  // Soundness gate: a sweep that cannot be proven equivalent never
  // becomes an artifact. The proof's own SAT footprint joins the
  // design's accumulated proof stats like every other equivalence check.
  const netlist::SeqEquivResult proof =
      netlist::checkSeqEquivalence(before, swept.netlist, equiv_);
  design.addProofStats(proof.proof);
  if (!proof.equivalent) {
    ctx.error(design.name() +
              ": swept netlist is NOT equivalent: " + proof.detail);
    return;
  }
  ctx.metric("equiv_proved", proof.degraded ? 0.0 : 1.0);
  ctx.metric("equiv_confidence", proof.confidence);
  m.set("sweep.equiv_proved", proof.degraded ? 0.0 : 1.0);
  m.set("sweep.equiv_method",
        static_cast<double>(static_cast<unsigned>(proof.method)));
  if (proof.degraded) {
    ctx.warning(design.name() + ": sweep equivalence degraded to " +
                std::string(netlist::equivMethodName(proof.method)) +
                " screen, confidence " + std::to_string(proof.confidence));
  }
  design.setSweepResult(std::move(swept));
}

namespace {

/// What both invariant passes read off a design: its port view and the
/// storage bound B derived from its wrapper config or system spec. Empty
/// for a prebuilt netlist, which has neither.
struct InvariantTarget {
  sync::PortView ports;
  unsigned capacityBound = 0;
};

std::optional<InvariantTarget> invariantTarget(Design& design) {
  if (const sync::WrapperPorts* wp = design.wrapperPorts()) {
    return InvariantTarget{sync::portView(*wp),
                           sat::capacityBound(*design.wrapperConfig())};
  }
  if (const sync::SystemPorts* sp = design.systemPorts()) {
    return InvariantTarget{sync::portView(*sp),
                           sat::capacityBound(*design.systemSpec())};
  }
  return std::nullopt;
}

} // namespace

void CheckInvariants::run(Design& design, PassContext& ctx) {
  const std::optional<InvariantTarget> target = invariantTarget(design);
  if (!target) {
    ctx.note(design.name() + ": prebuilt netlist has no port view");
    return;
  }
  sat::BmcOptions opts = options_;
  if (opts.cancel == nullptr) opts.cancel = ctx.cancel();
  opts.capacityBound = target->capacityBound;

  sat::BmcResult r =
      sat::checkInvariants(design.netlist(), target->ports, opts);
  ctx.metric("depth", static_cast<double>(opts.depth));
  ctx.metric("capacity_bound", static_cast<double>(opts.capacityBound));
  ctx.metric("bmc_depth", static_cast<double>(r.minDepthReached()));
  obs::Registry& m = design.metrics();
  m.set("bmc.depth", static_cast<double>(r.minDepthReached()));
  m.set("bmc.degraded", r.anyDegraded() ? 1.0 : 0.0);
  m.add("sat.conflicts", static_cast<double>(r.stats.conflicts));
  m.add("sat.decisions", static_cast<double>(r.stats.decisions));
  m.add("sat.propagations", static_cast<double>(r.stats.propagations));
  std::string violated;
  for (const sat::BmcPropertyResult& p : r.properties) {
    ctx.metric(p.name + "_ok", p.violated ? 0.0 : 1.0);
    m.set("bmc." + p.name + "_ok", p.violated ? 0.0 : 1.0);
    if (p.violated) {
      violated += (violated.empty() ? "" : ", ") + p.name + " at depth " +
                  std::to_string(p.failDepth);
    }
  }
  const bool degraded = r.anyDegraded();
  design.setBmcResult(std::move(r));
  if (!violated.empty()) {
    ctx.error(design.name() + ": protocol invariant violated: " + violated);
    return;
  }
  ctx.metric("degraded", degraded ? 1.0 : 0.0);
  if (degraded) {
    ctx.warning(design.name() +
                ": BMC stopped short of the requested depth (budget)");
  }
}

void ProveUnbounded::run(Design& design, PassContext& ctx) {
  const std::optional<InvariantTarget> target = invariantTarget(design);
  if (!target) {
    ctx.note(design.name() + ": prebuilt netlist has no port view");
    return;
  }
  sat::PdrOptions opts = options_;
  if (opts.cancel == nullptr) opts.cancel = ctx.cancel();
  opts.capacityBound = target->capacityBound;
  // One executor task per property. Each owns its solvers and the result
  // is joined in property order, so the runner moves wall time only.
  opts.runner = [&ctx](std::size_t n,
                       const std::function<void(std::size_t)>& f) {
    ctx.parallelFor(n, f, "sat.pdr.properties");
  };

  sat::PdrResult r =
      sat::proveUnbounded(design.netlist(), target->ports, opts);
  ctx.metric("capacity_bound", static_cast<double>(opts.capacityBound));
  ctx.metric("all_proved", r.allProved() ? 1.0 : 0.0);
  ctx.metric("induction_k", static_cast<double>(r.maxInductionK()));
  ctx.metric("pdr_frames", static_cast<double>(r.totalFrames()));
  ctx.metric("pdr_clauses", static_cast<double>(r.totalClauses()));
  obs::Registry& m = design.metrics();
  m.set("pdr.all_proved", r.allProved() ? 1.0 : 0.0);
  m.set("pdr.degraded", r.anyDegraded() ? 1.0 : 0.0);
  m.set("pdr.frames", static_cast<double>(r.totalFrames()));
  m.set("pdr.clauses", static_cast<double>(r.totalClauses()));
  m.set("pdr.induction_k", static_cast<double>(r.maxInductionK()));
  m.add("sat.conflicts", static_cast<double>(r.stats.conflicts));
  m.add("sat.decisions", static_cast<double>(r.stats.decisions));
  m.add("sat.propagations", static_cast<double>(r.stats.propagations));
  m.add("sat.cores", static_cast<double>(r.stats.cores));
  m.add("sat.core_lits", static_cast<double>(r.stats.coreLits));
  for (std::size_t q = 0; q < sat::kPdrQueryKinds; ++q) {
    sat::PdrQueryWork work;
    for (const sat::PdrPropertyResult& p : r.properties) {
      work.solves += p.engine.work[q].solves;
      work.propagations += p.engine.work[q].propagations;
    }
    const std::string kind =
        sat::pdrQueryName(static_cast<sat::PdrQuery>(q));
    m.set("pdr.solves." + kind, static_cast<double>(work.solves));
    m.set("pdr.propagations." + kind, static_cast<double>(work.propagations));
  }
  if (r.properties.empty()) {
    ctx.note(design.name() + ": no unbounded property enabled");
    design.setPdrResult(std::move(r));
    return;
  }
  std::string violated;
  for (const sat::PdrPropertyResult& p : r.properties) {
    ctx.metric(p.name + "_proved", p.provedUnbounded ? 1.0 : 0.0);
    m.set("pdr." + p.name + "_proved", p.provedUnbounded ? 1.0 : 0.0);
    if (!p.violated) continue;
    // Cross-validate the counterexample before reporting it: replay
    // the trace on the netlist simulator with exact token accounting
    // (independent of the SAT monitor's saturating encoding).
    sat::ReplayOptions ro;
    ro.capacityBound = opts.capacityBound;
    ro.watchdogWindow = opts.watchdogWindow;
    const sat::ReplayResult rep =
        sat::replayTrace(design.netlist(), target->ports, p.name, p.trace, ro);
    violated += (violated.empty() ? "" : ", ") + p.name + " at depth " +
                std::to_string(p.failDepth) + " (" + p.method +
                "; replay " +
                (rep.reproduced ? "reproduced" : "NOT reproduced") + ")";
  }
  const bool degraded = r.anyDegraded();
  const bool anyViolated = !violated.empty();
  design.setPdrResult(std::move(r));
  if (anyViolated) {
    ctx.error(design.name() + ": protocol invariant violated: " + violated);
    return;
  }
  ctx.metric("degraded", degraded ? 1.0 : 0.0);
  if (degraded) {
    ctx.warning(design.name() +
                ": unbounded proof degraded to a bounded result (budget)");
  }
}

namespace {

void jsonEscape(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c; break;
    }
  }
}

} // namespace

void Report::run(Design& design, PassContext& ctx) {
  const netlist::Netlist& nl = design.netlist();
  const netlist::NetlistStats st = nl.stats();
  std::ostringstream os;
  os << "{\n  \"design\": \"";
  jsonEscape(os, design.name());
  os << "\",\n  \"netlist\": {\"nodes\": " << nl.nodeCount()
     << ", \"gates\": " << st.gates << ", \"dffs\": " << st.dffs
     << ", \"inputs\": " << st.inputs << ", \"outputs\": " << st.outputs
     << ", \"rom_bits\": " << st.romBits << "}";
  if (const sync::FsmSynthStats* fs = design.controlStats()) {
    os << ",\n  \"control\": {\"functions\": " << fs->functions
       << ", \"cubes\": " << fs->cubesAfter
       << ", \"literals\": " << fs->literalsAfter << "}";
  }
  if (const aig::OptimizeStats* opt = design.optimizeStats()) {
    os << ",\n  \"optimize\": {\"aig_ands_before\": " << opt->andsBefore
       << ", \"aig_ands_after\": " << opt->andsAfter
       << ", \"aig_depth_before\": " << opt->depthBefore
       << ", \"aig_depth_after\": " << opt->depthAfter
       << ", \"rounds_run\": " << opt->roundsRun
       << ", \"rewrite_adoptions\": " << opt->rewriteAdoptions
       << ", \"cuts_enumerated\": " << opt->cutsEnumerated << "}";
  }
  if (design.hasMapped()) {
    techmap::MapOptions mo;
    mo.k = design.mappedK();
    mo.rounds = design.mappedRounds();
    const techmap::AreaReport& area = design.area(mo);
    os << ",\n  \"area\": {\"k\": " << design.mappedK()
       << ", \"rounds\": " << design.mappedRounds()
       << ", \"luts\": " << area.luts << ", \"ffs\": " << area.ffs
       << ", \"slices\": " << area.slices << "}";
  }
  if (design.hasTiming()) {
    const timing::TimingReport& rep = design.timing();
    os << ",\n  \"timing\": {\"fmax_mhz\": " << rep.fmaxMHz
       << ", \"critical_path_ns\": " << rep.criticalPathNs
       << ", \"logic_levels\": " << rep.logicLevels << "}";
  }
  if (const sync::CosimResult* r = design.cosimResult()) {
    os << ",\n  \"cosim\": {\"ok\": " << (r->ok ? "true" : "false")
       << ", \"cycles\": " << r->cyclesRun << ", \"fires\": " << r->fires
       << ", \"tokens\": " << r->tokens << "}";
  }
  if (const netlist::ProofStats* p = design.proofStats()) {
    os << ",\n  \"proof\": {\"sat_conflicts\": " << p->satConflicts
       << ", \"sat_propagations\": " << p->satPropagations << "}";
  }
  if (const sat::NetlistSweepResult* s = design.sweepResult()) {
    os << ",\n  \"sweep\": {\"candidates\": " << s->stats.candidates
       << ", \"proved\": " << s->stats.proved
       << ", \"refuted\": " << s->stats.refuted
       << ", \"undecided\": " << s->stats.undecided
       << ", \"window_proved\": " << s->stats.windowProved
       << ", \"aig_ands_before\": " << s->stats.andsBefore
       << ", \"aig_ands_after\": " << s->stats.andsAfter << "}";
  }
  if (const sat::BmcResult* b = design.bmcResult()) {
    os << ",\n  \"bmc\": {\"depth_reached\": " << b->minDepthReached()
       << ", \"all_hold\": " << (b->allHold() ? "true" : "false")
       << ", \"degraded\": " << (b->anyDegraded() ? "true" : "false")
       << ", \"properties\": [";
    bool firstProp = true;
    for (const sat::BmcPropertyResult& p : b->properties) {
      os << (firstProp ? "" : ", ") << "{\"name\": \"" << p.name
         << "\", \"violated\": " << (p.violated ? "true" : "false")
         << ", \"depth\": "
         << (p.violated ? p.failDepth : p.depthReached) << "}";
      firstProp = false;
    }
    os << "]}";
  }
  if (const sat::PdrResult* u = design.pdrResult()) {
    os << ",\n  \"unbounded\": {\"all_proved\": "
       << (u->allProved() ? "true" : "false")
       << ", \"degraded\": " << (u->anyDegraded() ? "true" : "false")
       << ", \"induction_k\": " << u->maxInductionK()
       << ", \"frames\": " << u->totalFrames()
       << ", \"clauses\": " << u->totalClauses() << ", \"properties\": [";
    bool firstProp = true;
    for (const sat::PdrPropertyResult& p : u->properties) {
      os << (firstProp ? "" : ", ") << "{\"name\": \"" << p.name
         << "\", \"proved_unbounded\": "
         << (p.provedUnbounded ? "true" : "false")
         << ", \"violated\": " << (p.violated ? "true" : "false")
         << ", \"method\": \"" << p.method << "\", \"depth\": "
         << (p.violated ? p.failDepth : p.depthReached) << "}";
      firstProp = false;
    }
    os << "]}";
  }
  if (const fault::CampaignResult* f = design.faultResult()) {
    os << ",\n  \"fault\": {\"sites\": " << f->all.total()
       << ", \"detected\": " << f->all.detected
       << ", \"recovered\": " << f->all.recovered
       << ", \"silent\": " << f->all.silent << ", \"hang\": " << f->all.hang
       << ", \"coverage\": " << f->all.coverage()
       << ", \"control_seu_sites\": " << f->controlSeu.total()
       << ", \"control_seu_coverage\": " << f->controlSeu.coverage()
       << ", \"cancelled\": " << (f->cancelled ? "true" : "false") << "}";
  }
  // Before stage_seconds: the determinism tests strip everything from
  // stage_seconds on, so the metrics block is asserted jobs-invariant.
  os << ",\n  \"metrics\": " << design.metrics().json();
  os << ",\n  \"stage_seconds\": {";
  bool first = true;
  for (const auto& [stage, seconds] : design.stageTimes()) {
    os << (first ? "" : ", ") << "\"" << stage << "\": " << seconds;
    first = false;
  }
  os << "}\n}\n";
  design.setReportJson(os.str());
  ctx.metric("report_bytes", static_cast<double>(design.reportJson().size()));
  if (options_.verilog) {
    design.setVerilog(netlist::emitVerilog(nl));
    ctx.metric("verilog_bytes", static_cast<double>(design.verilog().size()));
  }
}

Pipeline& Pipeline::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

Pipeline& Pipeline::synthesizeControl() {
  return add(std::make_unique<SynthesizeControl>());
}

Pipeline& Pipeline::optimizeAig(unsigned effort, bool prove,
                                const netlist::EquivOptions& equiv) {
  return add(std::make_unique<OptimizeAig>(effort, prove, equiv));
}

Pipeline& Pipeline::mapLuts(unsigned k, unsigned rounds) {
  return add(std::make_unique<MapLuts>(k, rounds));
}

Pipeline& Pipeline::sta(const timing::TechParams& params) {
  return add(std::make_unique<Sta>(params));
}

Pipeline& Pipeline::proveEncodingEquiv() {
  return add(std::make_unique<ProveEncodingEquiv>());
}

Pipeline& Pipeline::proveUnbounded(const sat::PdrOptions& options) {
  return add(std::make_unique<ProveUnbounded>(options));
}

Pipeline& Pipeline::cosim(const sync::CosimOptions& options) {
  return add(std::make_unique<Cosim>(options));
}

Pipeline& Pipeline::faultCampaign(const fault::CampaignOptions& options) {
  return add(std::make_unique<FaultCampaign>(options));
}

Pipeline& Pipeline::satSweep(const sat::SweepOptions& options,
                             const netlist::EquivOptions& equiv) {
  return add(std::make_unique<SatSweep>(options, equiv));
}

Pipeline& Pipeline::checkInvariants(const sat::BmcOptions& options) {
  return add(std::make_unique<CheckInvariants>(options));
}

Pipeline& Pipeline::passDeadline(double seconds) {
  passDeadline_ = seconds;
  return *this;
}

Pipeline& Pipeline::report(const ReportOptions& options) {
  return add(std::make_unique<Report>(options));
}

RunResult Pipeline::runOne(Design& design, Executor* exec) {
  RunResult result;
  result.design = design.name();
  result.ok = true;
  for (const std::unique_ptr<Pass>& pass : passes_) {
    PassRecord rec;
    rec.name = pass->name();
    // Fresh deadline token per pass; passes read it via ctx.cancel().
    support::CancellationToken deadline;
    const support::CancellationToken* cancel = nullptr;
    if (passDeadline_ > 0) {
      deadline.setDeadlineAfter(passDeadline_);
      cancel = &deadline;
    }
    PassContext ctx(rec.name, result.diagnostics, rec.metrics, exec, cancel);
    obs::Span span("pass:" + rec.name);
    span.arg("design", design.name());
    const auto t0 = std::chrono::steady_clock::now();
    try {
      pass->run(design, ctx);
    } catch (const std::exception& e) {
      ctx.error(e.what());
    } catch (...) {
      ctx.error("unknown exception");
    }
    const auto t1 = std::chrono::steady_clock::now();
    rec.seconds = std::chrono::duration<double>(t1 - t0).count();
    // A pass that outlived its budget fails even if it eventually
    // returned a result — deadlines are a promise to the whole sweep.
    if (cancel != nullptr && cancel->cancelled() && !ctx.failed()) {
      ctx.error("pass exceeded its " + std::to_string(passDeadline_) +
                "s deadline");
    }
    rec.ok = !ctx.failed();
    result.records.push_back(std::move(rec));
    if (ctx.failed()) {
      result.ok = false;
      break;
    }
  }
  return result;
}

bool Pipeline::run(Design& design) {
  RunResult result = runOne(design, nullptr);
  ok_ = result.ok;
  records_ = std::move(result.records);
  diagnostics_ = std::move(result.diagnostics);
  return ok_;
}

bool Pipeline::run(Design& design, Executor& exec) {
  RunResult result = runOne(design, &exec);
  ok_ = result.ok;
  records_ = std::move(result.records);
  diagnostics_ = std::move(result.diagnostics);
  return ok_;
}

std::vector<RunResult> Pipeline::runMany(std::vector<Design>& designs,
                                         Executor& exec) {
  std::vector<RunResult> results(designs.size());
  // forEachAll never throws: every design runs to completion (or to its
  // own failure), and anything that escaped runOne's per-pass handling is
  // converted to a failure record here instead of aborting the batch.
  const std::vector<std::exception_ptr> errors =
      exec.forEachAll(designs.size(), [&](std::size_t i) {
        results[i] = runOne(designs[i], &exec);
      }, nullptr, "flow.designs");
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (errors[i] == nullptr) continue;
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(errors[i]);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    RunResult fail;
    fail.design = designs[i].name();
    fail.ok = false;
    fail.diagnostics.push_back(
        {Severity::Error, "pipeline",
         "design failed outside pass scope: " + what});
    results[i] = std::move(fail);
  }
  return results;
}

std::vector<RunResult> Pipeline::runMany(std::vector<Design>& designs,
                                         unsigned jobs) {
  Executor exec(jobs);
  return runMany(designs, exec);
}

const PassRecord* Pipeline::record(const std::string& passName) const {
  for (const PassRecord& rec : records_) {
    if (rec.name == passName) return &rec;
  }
  return nullptr;
}

namespace {

std::string emitRunJson(bool ok, const std::vector<PassRecord>& records,
                        const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream os;
  os << "{\n  \"ok\": " << (ok ? "true" : "false") << ",\n  \"passes\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const PassRecord& rec = records[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << rec.name
       << "\", \"seconds\": " << rec.seconds
       << ", \"ok\": " << (rec.ok ? "true" : "false") << ", \"metrics\": {";
    for (std::size_t m = 0; m < rec.metrics.size(); ++m) {
      os << (m == 0 ? "" : ", ") << "\"" << rec.metrics[m].first
         << "\": " << rec.metrics[m].second;
    }
    os << "}}";
  }
  os << "\n  ],\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"severity\": \""
       << severityName(d.severity) << "\", \"pass\": \"" << d.pass
       << "\", \"message\": \"";
    jsonEscape(os, d.message);
    os << "\"}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

} // namespace

std::string RunResult::json() const {
  return emitRunJson(ok, records, diagnostics);
}

std::string Pipeline::json() const {
  return emitRunJson(ok_, records_, diagnostics_);
}

} // namespace lis::flow
