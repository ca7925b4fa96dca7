#pragma once
// flow::Design — the artifact container the pass pipeline operates on.
//
// A Design is backed by one of three sources: a WrapperConfig (the single
// shell + relay composition), a SystemSpec (an arbitrary LIS topology), or
// a prebuilt netlist (generators, hand-built test circuits). Every derived
// artifact — synthesized netlist, LUT mapping, area report, timing report,
// FSM minimization stats — is computed lazily on first access, cached, and
// wall-timed, so passes stay cheap to reorder and a Report pass only pays
// for what earlier passes (or direct accessor calls) actually produced.
//
// Invalidation: remapping with a different (k, rounds) drops the area and
// timing caches but never the synthesized netlist; running the AIG
// optimizer (or re-running it at a different effort) additionally drops
// the whole map→area→timing chain, since mapping consumes the optimized
// netlist once one exists. The synthesized netlist itself, once built, is
// immutable for the Design's lifetime (it lives behind a unique_ptr so
// MappedNetlist::source stays valid across moves), and the optimizer
// always starts from it — efforts don't compound.
//
// Thread-safety: the lazy producers are guarded per artifact, not by one
// Design-wide mutex — synthesis behind a once-latch (concurrent first
// accessors race to run it exactly once; the netlist is immutable after),
// the map→area→timing chain behind its own mutex (they share one
// invalidation lifetime: a remap drops both dependents), and the stage-time
// table behind a third. Every accessor completes the synth latch *before*
// taking the chain mutex — the two are never held simultaneously, so new
// accessors must not call ensureSynthesized() while holding the chain
// lock. The pass-produced
// setters (cosim result, report JSON, Verilog) are single-writer by
// construction — exactly one pipeline task owns a Design at a time — and
// stay unguarded; likewise the has*/mappedK snoop queries are meant for
// that owning task, not for cross-thread polling.

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "aig/optimize.hpp"
#include "fault/campaign.hpp"
#include "lis/cosim.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "netlist/equiv.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "sat/bmc.hpp"
#include "sat/pdr.hpp"
#include "sat/sweep.hpp"
#include "techmap/lutmap.hpp"
#include "timing/sta.hpp"
#include "timing/techparams.hpp"

namespace lis::flow {

class Design {
public:
  explicit Design(sync::WrapperConfig cfg);
  explicit Design(sync::SystemSpec spec);
  explicit Design(netlist::Netlist prebuilt);

  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;
  Design(Design&&) = default;
  Design& operator=(Design&&) = default;

  const std::string& name() const { return name_; }

  /// Runner handed to buildSystem's parallel elaboration (see
  /// sync::BuildOptions). Must be installed before the netlist is first
  /// touched to have any effect; the composed netlist is byte-identical
  /// with or without it, so this is a wall-clock-only knob (and therefore
  /// not part of any artifact cache key).
  void setBuildRunner(sync::BuildOptions::Runner runner) {
    buildRunner_ = std::move(runner);
  }

  /// Non-null for the corresponding backing source.
  const sync::WrapperConfig* wrapperConfig() const {
    return cfg_ ? &*cfg_ : nullptr;
  }
  const sync::SystemSpec* systemSpec() const {
    return spec_ ? &*spec_ : nullptr;
  }

  // --- lazily computed artifacts ----------------------------------------
  /// Synthesized (or prebuilt) netlist. Throws what the builder throws on
  /// an invalid spec.
  const netlist::Netlist& netlist();
  /// The whole synthesized composition (netlist + ports + stats); null for
  /// the other backing kinds. Synthesizes on demand. This is what lets the
  /// Cosim pass drive the cached netlist instead of rebuilding it.
  const sync::Wrapper* wrapper();
  const sync::System* system();
  /// Wrapper/system port map; null for prebuilt designs.
  const sync::WrapperPorts* wrapperPorts();
  const sync::SystemPorts* systemPorts();
  /// Aggregated FSM minimization stats; null for prebuilt designs.
  const sync::FsmSynthStats* controlStats();

  /// AIG-optimized netlist (see aig::optimizeNetlist), derived from the
  /// synthesized netlist and cached per effort. Once it exists, mapping
  /// consumes it instead of the raw synthesis; (re)optimizing drops the
  /// map/area/timing caches but never re-runs synthesis.
  const netlist::Netlist& optimize(const aig::OptimizeOptions& options = {});
  /// Stats of the cached optimization; null before optimize() ran.
  const aig::OptimizeStats* optimizeStats() const {
    return optimized_ ? &optStats_ : nullptr;
  }

  /// k-LUT mapping of the synthesized (or, once optimize() ran, the
  /// optimized) netlist. Cached per (k, rounds); a different key remaps
  /// and drops the area/timing caches. options.runner is a wall-time-only
  /// knob and not part of the key. The k-only conveniences preserve the
  /// cached rounds (like timing()), so reading area() after a rounds>0
  /// mapping never silently remaps greedily.
  const techmap::MappedNetlist& mapped(const techmap::MapOptions& options);
  const techmap::MappedNetlist& mapped(unsigned k = 4);
  const techmap::AreaReport& area(const techmap::MapOptions& options);
  const techmap::AreaReport& area(unsigned k = 4);
  /// Timing under `params`. Cached until the mapping changes; the params
  /// of the first call after a (re)map stick — pass them through the Sta
  /// pass to change them.
  const timing::TimingReport& timing(const timing::TechParams& params = {});

  bool hasNetlist() const { return netlistPtr() != nullptr; }
  bool hasOptimized() const { return optimized_ != nullptr; }
  bool hasMapped() const { return mapped_.has_value(); }
  bool hasTiming() const { return timing_.has_value(); }
  unsigned mappedK() const { return mappedK_; }
  unsigned mappedRounds() const { return mappedRounds_; }

  // --- pass-produced artifacts ------------------------------------------
  const sync::CosimResult* cosimResult() const {
    return cosim_ ? &*cosim_ : nullptr;
  }
  void setCosimResult(sync::CosimResult r) { cosim_ = std::move(r); }
  const fault::CampaignResult* faultResult() const {
    return fault_ ? &*fault_ : nullptr;
  }
  void setFaultResult(fault::CampaignResult r) { fault_ = std::move(r); }
  /// SAT-sweep outcome (swept netlist + stats), produced by the SatSweep
  /// pass; null until it ran.
  const sat::NetlistSweepResult* sweepResult() const {
    return sweep_ ? &*sweep_ : nullptr;
  }
  void setSweepResult(sat::NetlistSweepResult r) { sweep_ = std::move(r); }
  /// BMC invariant verdicts, produced by the CheckInvariants pass; null
  /// until it ran.
  const sat::BmcResult* bmcResult() const { return bmc_ ? &*bmc_ : nullptr; }
  void setBmcResult(sat::BmcResult r) { bmc_ = std::move(r); }
  /// Unbounded proof verdicts (PDR), produced by the
  /// ProveUnbounded pass; null until it ran.
  const sat::PdrResult* pdrResult() const { return pdr_ ? &*pdr_ : nullptr; }
  void setPdrResult(sat::PdrResult r) { pdr_ = std::move(r); }
  /// SAT proof footprint, accumulated across every equivalence check the
  /// passes ran for this design (AIG proof, encoding proofs, sweep
  /// soundness proof); null until the first one reports in.
  const netlist::ProofStats* proofStats() const {
    return hasProof_ ? &proof_ : nullptr;
  }
  void addProofStats(const netlist::ProofStats& s) {
    proof_.accumulate(s);
    hasProof_ = true;
  }
  const std::string& reportJson() const { return reportJson_; }
  void setReportJson(std::string json) { reportJson_ = std::move(json); }
  const std::string& verilog() const { return verilog_; }
  void setVerilog(std::string v) { verilog_ = std::move(v); }

  /// Per-config metrics registry, filled by the passes that ran on this
  /// design (aig.*, cosim.*, fault.*, proof.*, ...) and serialized by the
  /// Report pass / the bench. Single-writer like the other pass-produced
  /// artifacts: exactly one pipeline task owns a Design at a time.
  obs::Registry& metrics() { return *metrics_; }
  const obs::Registry& metrics() const { return *metrics_; }

  /// *Exclusive* wall time spent producing an artifact ("synthesize",
  /// "map", "sta", "optimize"): when one artifact build triggers another
  /// (timing() mapping lazily), the nested stage's time is attributed to
  /// the innermost stage only, so summing stageTimes() never double-counts.
  /// 0 when the stage has not run.
  double stageSeconds(std::string_view stage) const;
  /// The whole stage-time table. The reference is only stable once the
  /// producing accessors have finished — read it from the owning task
  /// (e.g. the Report pass), not while another thread is still producing.
  const std::map<std::string, double>& stageTimes() const { return times_; }

private:
  // One latch per independently produced artifact (see the header
  // comment). Boxed so Design stays movable.
  struct Latches {
    std::once_flag synth;
    std::mutex chain; // mapped_ / mappedK_ / area_ / timing_
    mutable std::mutex times;
  };

  friend class StageFrame;

  void ensureSynthesized();
  void synthesize();
  const techmap::MappedNetlist& mappedLocked(const techmap::MapOptions& o);
  const netlist::Netlist* netlistPtr() const;
  void recordStage(const char* stage, double seconds);

  std::string name_;
  std::optional<sync::WrapperConfig> cfg_;
  std::optional<sync::SystemSpec> spec_;
  sync::BuildOptions::Runner buildRunner_;
  // Exactly one of these holds the netlist once built; unique_ptrs keep
  // its address stable across Design moves (MappedNetlist::source).
  std::unique_ptr<netlist::Netlist> prebuilt_;
  std::unique_ptr<sync::Wrapper> wrapper_;
  std::unique_ptr<sync::System> system_;
  // Optimized netlist + its stats; boxed for address stability
  // (MappedNetlist::source points at it once mapping reran).
  std::unique_ptr<netlist::Netlist> optimized_;
  aig::OptimizeStats optStats_;
  unsigned optimizedEffort_ = 0;
  std::optional<techmap::MappedNetlist> mapped_;
  unsigned mappedK_ = 0;
  unsigned mappedRounds_ = 0;
  std::optional<techmap::AreaReport> area_;
  std::optional<timing::TimingReport> timing_;
  std::optional<sync::CosimResult> cosim_;
  std::optional<fault::CampaignResult> fault_;
  std::optional<sat::NetlistSweepResult> sweep_;
  std::optional<sat::BmcResult> bmc_;
  std::optional<sat::PdrResult> pdr_;
  netlist::ProofStats proof_;
  bool hasProof_ = false;
  std::string reportJson_;
  std::string verilog_;
  std::map<std::string, double> times_;
  std::unique_ptr<Latches> latches_ = std::make_unique<Latches>();
  // Boxed: Registry holds a mutex, and Design must stay movable.
  std::unique_ptr<obs::Registry> metrics_ = std::make_unique<obs::Registry>();
};

} // namespace lis::flow
