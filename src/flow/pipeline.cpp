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

void PassContext::metric(const std::string& key, double value) {
  metrics_->emplace_back(key, value);
  registry_->set(ns_ + "." + key, value);
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
  const netlist::Netlist& nl = design.netlist();
  const netlist::NetlistStats st = nl.stats();
  ctx.metric("nodes", nl.nodeCount());
  ctx.metric("gates", st.gates);
  ctx.metric("dffs", st.dffs);
  ctx.metric("inputs", st.inputs);
  ctx.metric("outputs", st.outputs);
  if (const sync::FsmSynthStats* fs = design.controlStats()) {
    ctx.metric("sop_functions", fs->functions);
    ctx.metric("sop_cubes", fs->cubesAfter);
    ctx.metric("sop_literals", fs->literalsAfter);
  } else {
    ctx.note(design.name() + ": prebuilt netlist, nothing to synthesize");
  }
  if (const sync::SystemSpec* spec = design.systemSpec()) {
    ctx.metric("pearls", spec->pearls.size());
    ctx.metric("channels", spec->channels.size());
    ctx.metric("relay_stations", design.system()->relayStations);
  }
}

void OptimizeAig::run(Design& design, PassContext& ctx) {
  const netlist::Netlist& before = design.netlist();
  const netlist::Netlist& optimized =
      design.optimize({.effort = effort_});
  const aig::OptimizeStats& st = *design.optimizeStats();
  ctx.metric("effort", effort_);
  ctx.metric("ands_before", st.andsBefore);
  ctx.metric("ands_after", st.andsAfter);
  ctx.metric("depth_before", st.depthBefore);
  ctx.metric("depth_after", st.depthAfter);
  ctx.metric("rounds_run", st.roundsRun);
  ctx.metric("rewrite_adoptions", st.rewriteAdoptions);
  ctx.metric("cuts_enumerated", st.cutsEnumerated);
  // The default EquivOptions' SAT budgets make an explosive proof degrade
  // to a reported simulation screen instead of hanging the flow.
  const netlist::SeqEquivResult proof =
      netlist::checkSeqEquivalence(before, optimized);
  design.addProofStats(proof.proof);
  ctx.metric("equiv_sat_conflicts", proof.proof.satConflicts);
  ctx.metric("equiv_sat_propagations", proof.proof.satPropagations);
  if (!proof.equivalent) {
    ctx.error(design.name() +
              ": optimized netlist is NOT equivalent: " + proof.detail);
    return;
  }
  // equiv_proved counts full proofs only; a budget-degraded screen is
  // still a pass, but reported as such with its residual confidence.
  ctx.metric("equiv_proved", proof.degraded ? 0.0 : 1.0);
  ctx.metric("equiv_confidence", proof.confidence);
  if (proof.degraded) {
    ctx.warning(design.name() + ": equivalence degraded to " +
                std::string(netlist::equivMethodName(proof.method)) +
                " screen (SAT budget exceeded), confidence " +
                std::to_string(proof.confidence));
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
  ctx.metric("k", k_);
  ctx.metric("rounds", rounds_);
  ctx.metric("luts", area.luts);
  ctx.metric("ffs", area.ffs);
  ctx.metric("slices", area.slices);
  ctx.metric("lut_depth", mapped.depth);
}

void Sta::run(Design& design, PassContext& ctx) {
  if (!design.hasMapped()) {
    ctx.warning("sta before map-luts: mapping with default k");
  }
  const timing::TimingReport& rep = design.timing();
  ctx.metric("fmax_mhz", rep.fmaxMHz);
  ctx.metric("critical_path_ns", rep.criticalPathNs);
  ctx.metric("logic_levels", rep.logicLevels);
}

void ProveEncodingEquiv::run(Design& design, PassContext& ctx) {
  // Collect the distinct FSM specs the design's control was built from.
  // The transition function is independent of the reset state, so seeded
  // relays prove together with their unseeded twins.
  const sync::SystemSpec* spec = design.systemSpec();
  if (spec == nullptr) {
    ctx.note(design.name() + ": prebuilt netlist has no control spec");
    return;
  }
  std::vector<sync::FsmSpec> specs;
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
  netlist::ProofStats work;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    design.addProofStats(verdicts[i].proof);
    work.accumulate(verdicts[i].proof);
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
  ctx.metric("proofs", specs.size());
  ctx.metric("sat_conflicts", work.satConflicts);
  ctx.metric("sat_decisions", work.satDecisions);
  ctx.metric("sat_propagations", work.satPropagations);
}

void Cosim::run(Design& design, PassContext& ctx) {
  // Drive the design's cached synthesis (building it on first access)
  // rather than re-running buildSystem inside the oracle.
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
  const sync::SystemSpec* spec = design.systemSpec();
  if (spec == nullptr) {
    ctx.note(design.name() + ": prebuilt netlist has no behavioural model");
    return;
  }
  sync::CosimResult r = sync::cosimSystem(*design.system(), *spec, opts);
  ctx.metric("ok", r.ok ? 1.0 : 0.0);
  ctx.metric("cycles", r.cyclesRun);
  ctx.metric("fires", r.fires);
  ctx.metric("tokens", r.tokens);
  // 0 flags a vacuous run: some output never delivered a token (shards
  // shorter than the design's fill latency, or a dead channel).
  const auto least =
      std::min_element(r.tokensPerOutput.begin(), r.tokensPerOutput.end());
  ctx.metric("min_tokens_per_output",
             least == r.tokensPerOutput.end() ? 0.0
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
  const sync::SystemSpec* spec = design.systemSpec();
  if (spec == nullptr) {
    ctx.note(design.name() + ": prebuilt netlist has no behavioural model");
    return;
  }
  fault::CampaignResult r =
      fault::runCampaign(fault::targetOf(*design.system(), *spec), opts);
  ctx.metric("sites", r.all.total());
  ctx.metric("detected", r.all.detected);
  ctx.metric("recovered", r.all.recovered);
  ctx.metric("silent", r.all.silent);
  ctx.metric("hang", r.all.hang);
  ctx.metric("coverage", r.all.coverage());
  ctx.metric("control_seu_sites", r.controlSeu.total());
  ctx.metric("control_seu_coverage", r.controlSeu.coverage());
  ctx.metric("cancelled", r.cancelled ? 1.0 : 0.0);
  const bool cancelled = r.cancelled;
  design.setFaultResult(std::move(r));
  if (cancelled) {
    ctx.error("fault campaign cancelled before all sites ran");
  }
}

namespace {

/// The design-level solver sums ("sat.*"): every SAT pass adds its
/// engine's work, so they belong to no single pass's namespace.
void addSolverWork(Design& design, const sat::SolverStats& st) {
  obs::Registry& m = design.metrics();
  m.add("sat.conflicts", static_cast<double>(st.conflicts));
  m.add("sat.decisions", static_cast<double>(st.decisions));
  m.add("sat.propagations", static_cast<double>(st.propagations));
}

} // namespace

void SatSweep::run(Design& design, PassContext& ctx) {
  const netlist::Netlist& before = design.netlist();
  sat::NetlistSweepResult swept = sat::sweepNetlist(before);
  const sat::SweepStats& st = swept.stats;
  ctx.metric("candidates", st.candidates);
  ctx.metric("proved", st.proved);
  ctx.metric("window_proved", st.windowProved);
  ctx.metric("refuted", st.refuted);
  ctx.metric("undecided", st.undecided);
  ctx.metric("ands_before", st.andsBefore);
  ctx.metric("ands_after", st.andsAfter);
  addSolverWork(design, st.solver);

  // Soundness gate: a sweep that cannot be proven equivalent never
  // becomes an artifact. The proof's own SAT footprint joins the
  // design's accumulated proof stats like every other equivalence check.
  const netlist::SeqEquivResult proof =
      netlist::checkSeqEquivalence(before, swept.netlist);
  design.addProofStats(proof.proof);
  ctx.metric("equiv_sat_conflicts", proof.proof.satConflicts);
  ctx.metric("equiv_sat_propagations", proof.proof.satPropagations);
  if (!proof.equivalent) {
    ctx.error(design.name() +
              ": swept netlist is NOT equivalent: " + proof.detail);
    return;
  }
  ctx.metric("equiv_proved", proof.degraded ? 0.0 : 1.0);
  ctx.metric("equiv_confidence", proof.confidence);
  ctx.metric("equiv_method", static_cast<unsigned>(proof.method));
  if (proof.degraded) {
    ctx.warning(design.name() + ": sweep equivalence degraded to " +
                std::string(netlist::equivMethodName(proof.method)) +
                " screen, confidence " + std::to_string(proof.confidence));
  }
  design.setSweepResult(std::move(swept));
}

namespace {

/// What both invariant passes read off a design: its port view and the
/// storage bound B derived from its system spec. Empty for a prebuilt
/// netlist, which has neither.
struct InvariantTarget {
  sync::PortView ports;
  unsigned capacityBound = 0;
};

std::optional<InvariantTarget> invariantTarget(Design& design) {
  const sync::SystemPorts* sp = design.systemPorts();
  if (sp == nullptr) return std::nullopt;
  return InvariantTarget{sync::portView(*sp),
                         sat::capacityBound(*design.systemSpec())};
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
  ctx.metric("capacity_bound", opts.capacityBound);
  // The depth every property reached: the gate's floor reads bmc.depth.
  ctx.metric("depth", r.minDepthReached());
  ctx.metric("all_hold", r.allHold() ? 1.0 : 0.0);
  ctx.metric("degraded", r.anyDegraded() ? 1.0 : 0.0);
  addSolverWork(design, r.stats);
  std::string violated;
  for (const sat::BmcPropertyResult& p : r.properties) {
    ctx.metric(p.name + "_ok", p.violated ? 0.0 : 1.0);
    ctx.metric(p.name + "_depth", p.violated ? p.failDepth : p.depthReached);
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
  sat::PdrOptions opts;
  opts.cancel = ctx.cancel();
  opts.capacityBound = target->capacityBound;
  // One executor task per property. Each owns its solvers and the result
  // is joined in property order, so the runner moves wall time only.
  opts.runner = [&ctx](std::size_t n,
                       const std::function<void(std::size_t)>& f) {
    ctx.parallelFor(n, f, "sat.pdr.properties");
  };

  sat::PdrResult r =
      sat::proveUnbounded(design.netlist(), target->ports, opts);
  ctx.metric("capacity_bound", opts.capacityBound);
  ctx.metric("all_proved", r.allProved() ? 1.0 : 0.0);
  ctx.metric("degraded", r.anyDegraded() ? 1.0 : 0.0);
  ctx.metric("frames", r.totalFrames());
  ctx.metric("clauses", r.totalClauses());
  std::string uncertified;
  std::size_t invariantClauses = 0;
  for (const sat::PdrPropertyResult& p : r.properties) {
    invariantClauses += p.invariant.size();
    if (!p.certificateError.empty()) {
      uncertified += (uncertified.empty() ? "" : ", ") + p.name + " (" +
                     p.certificateError + ")";
    }
  }
  ctx.metric("certified", uncertified.empty() ? 1.0 : 0.0);
  ctx.metric("invariant_clauses", static_cast<double>(invariantClauses));
  addSolverWork(design, r.stats);
  obs::Registry& m = design.metrics();
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
    ctx.metric("solves." + kind, work.solves);
    ctx.metric("propagations." + kind, work.propagations);
  }
  std::string violated;
  for (const sat::PdrPropertyResult& p : r.properties) {
    ctx.metric(p.name + "_proved", p.provedUnbounded ? 1.0 : 0.0);
    ctx.metric(p.name + "_violated", p.violated ? 1.0 : 0.0);
    ctx.metric(p.name + "_depth", p.violated ? p.failDepth : p.depthReached);
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
                std::to_string(p.failDepth) + " (replay " +
                (rep.reproduced ? "reproduced" : "NOT reproduced") + ")";
  }
  const bool degraded = r.anyDegraded();
  const bool anyViolated = !violated.empty();
  design.setPdrResult(std::move(r));
  if (!uncertified.empty()) {
    ctx.error(design.name() +
              ": unbounded proof failed its certificate: " + uncertified);
  }
  if (anyViolated) {
    ctx.error(design.name() + ": protocol invariant violated: " + violated);
    return;
  }
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

void Report::run(Design& design, PassContext& /*ctx*/) {
  std::ostringstream os;
  os << "{\n  \"design\": \"";
  jsonEscape(os, design.name());
  // The registry before stage_seconds: the determinism tests strip
  // everything from stage_seconds on, so the metrics are asserted
  // jobs-invariant.
  os << "\",\n  \"metrics\": " << design.metrics().json();
  os << ",\n  \"stage_seconds\": {";
  bool first = true;
  for (const auto& [stage, seconds] : design.stageTimes()) {
    os << (first ? "" : ", ") << "\"" << stage << "\": " << seconds;
    first = false;
  }
  os << "}\n}\n";
  design.setReportJson(os.str());
  if (options_.verilog) {
    design.setVerilog(netlist::emitVerilog(design.netlist()));
  }
}

Pipeline& Pipeline::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

Pipeline& Pipeline::synthesizeControl() {
  return add(std::make_unique<SynthesizeControl>());
}

Pipeline& Pipeline::optimizeAig(unsigned effort) {
  return add(std::make_unique<OptimizeAig>(effort));
}

Pipeline& Pipeline::mapLuts(unsigned k, unsigned rounds) {
  return add(std::make_unique<MapLuts>(k, rounds));
}

Pipeline& Pipeline::sta() { return add(std::make_unique<Sta>()); }

Pipeline& Pipeline::proveEncodingEquiv() {
  return add(std::make_unique<ProveEncodingEquiv>());
}

Pipeline& Pipeline::proveUnbounded() {
  return add(std::make_unique<ProveUnbounded>());
}

Pipeline& Pipeline::cosim(const sync::CosimOptions& options) {
  return add(std::make_unique<Cosim>(options));
}

Pipeline& Pipeline::faultCampaign(const fault::CampaignOptions& options) {
  return add(std::make_unique<FaultCampaign>(options));
}

Pipeline& Pipeline::satSweep() { return add(std::make_unique<SatSweep>()); }

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

RunResult Pipeline::runOne(Design& design, Executor* exec) const {
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
    PassContext ctx(rec.name, pass->metricNamespace(), result.diagnostics,
                    rec.metrics, design.metrics(), exec, cancel);
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

RunResult Pipeline::run(Design& design) const {
  return runOne(design, nullptr);
}

RunResult Pipeline::run(Design& design, Executor& exec) const {
  return runOne(design, &exec);
}

std::vector<RunResult> Pipeline::runMany(std::vector<Design>& designs,
                                         Executor& exec) const {
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
                                         unsigned jobs) const {
  Executor exec(jobs);
  return runMany(designs, exec);
}

const PassRecord* RunResult::record(const std::string& passName) const {
  for (const PassRecord& rec : records) {
    if (rec.name == passName) return &rec;
  }
  return nullptr;
}

std::string RunResult::json() const {
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

} // namespace lis::flow
