#pragma once
// flow::Pipeline — uniform pass objects over flow::Design, in the spirit of
// parameterized pass structs in mature logic-synthesis codebases: each pass
// carries its options as plain data, speaks through one diagnostic
// channel, and reports each of its numbers once, through
// PassContext::metric: the value lands in the pass's record under its bare
// key and in the design's metrics registry under the pass's namespace
// ("luts" of map-luts is also "map.luts"). The registry is what the bench
// rows and the Report pass print.
//
// Passes (registry namespace in brackets):
//   SynthesizeControl      spec -> netlist (FSM encode + minimize +
//                          datapath) [synth]
//   OptimizeAig{effort}    AIG rewrite/balance of the combinational logic,
//                          proven against the unoptimized netlist [aig]
//   MapLuts{k, rounds}     netlist -> k-LUT cover (rounds == 0: greedy;
//                          >= 1: priority cuts with area recovery) [map]
//   Sta                    mapped netlist -> timing report [sta]
//   ProveEncodingEquiv     one-hot == binary control proof per FSM spec
//                          [proof]
//   Cosim{CosimOptions}    randomized-stall co-simulation oracle [cosim]
//   FaultCampaign{...}     seeded fault-injection campaign [fault]
//   SatSweep               SAT-sweeping, proven against its input [sweep]
//   CheckInvariants{Bmc}   bounded protocol-invariant proofs [bmc]
//   ProveUnbounded         unbounded protocol-invariant proofs [pdr]
//   Report                 design name + registry + stage times -> JSON
//                          (+ optional Verilog)
//
// Pipeline::run executes the passes in order, wall-times each, and stops at
// the first pass that reports an error (exceptions become error
// diagnostics). It returns the run's RunResult — the per-pass records and
// diagnostics — and keeps nothing itself, so one Pipeline serves any number
// of designs and threads.
//
// Parallel execution: Pipeline::runMany schedules independent designs
// across an Executor's work-stealing pool — each design still sees the
// passes strictly in order, but its records and diagnostics are buffered
// in a private RunResult and the results vector is indexed by submission
// order, so serial (--jobs 1) and parallel runs emit byte-identical JSON
// and logs. Passes additionally split *inside* one design when the
// context carries an Executor: ProveEncodingEquiv proves each FSM spec as
// its own subtask, Cosim fans its seed shards out, both joining
// deterministically by index. Pass objects must therefore be reentrant —
// run() may execute concurrently for different designs; the standard
// passes are stateless options-only structs. Diagnostics and metrics must
// only be emitted from the pass's own task (after any subtask join), never
// from inside a parallelFor body.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/campaign.hpp"
#include "flow/design.hpp"
#include "flow/executor.hpp"
#include "lis/cosim.hpp"
#include "obs/metrics.hpp"
#include "sat/bmc.hpp"
#include "support/cancellation.hpp"

namespace lis::flow {

enum class Severity { Note, Warning, Error };

const char* severityName(Severity s);

struct Diagnostic {
  Severity severity = Severity::Note;
  std::string pass;
  std::string message;
};

/// The error/diagnostic and metric channel handed to each pass.
class PassContext {
public:
  void note(std::string message);
  void warning(std::string message);
  /// Marks the pass (and the pipeline run) as failed.
  void error(std::string message);
  /// The one way a pass reports a number: appended to the pass record
  /// under `key` and set in the design's registry as "<namespace>.<key>".
  void metric(const std::string& key, double value);
  bool failed() const { return failed_; }

  /// Executor for intra-pass subtask fan-out; null in a plain run().
  Executor* executor() const { return exec_; }
  /// Per-pass deadline token (null without Pipeline::passDeadline). Passes
  /// with long inner loops hand this to their drivers (cosim, fault
  /// campaigns) so a blown deadline winds down cooperatively with a
  /// partial result; the pipeline then fails the pass.
  const support::CancellationToken* cancel() const { return cancel_; }
  /// Run f(0..n-1), serially in index order when no executor (or a
  /// 1-job one) is attached, on the shared pool otherwise. Callers must
  /// join results by index and emit diagnostics only after this returns.
  /// A non-null `label` traces the fan-out (see Executor::forEach).
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& f,
                   const char* label = nullptr) const;

private:
  friend class Pipeline;
  PassContext(std::string pass, std::string ns,
              std::vector<Diagnostic>& diags,
              std::vector<std::pair<std::string, double>>& metrics,
              obs::Registry& registry, Executor* exec,
              const support::CancellationToken* cancel)
      : pass_(std::move(pass)), ns_(std::move(ns)), diags_(&diags),
        metrics_(&metrics), registry_(&registry), exec_(exec),
        cancel_(cancel) {}

  std::string pass_;
  std::string ns_;
  std::vector<Diagnostic>* diags_;
  std::vector<std::pair<std::string, double>>* metrics_;
  obs::Registry* registry_;
  Executor* exec_ = nullptr;
  const support::CancellationToken* cancel_ = nullptr;
  bool failed_ = false;
};

class Pass {
public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  /// Registry namespace of the pass's metrics ("map" for map-luts).
  virtual std::string metricNamespace() const = 0;
  virtual void run(Design& design, PassContext& ctx) = 0;
};

struct PassRecord {
  std::string name;
  double seconds = 0;
  bool ok = false;
  std::vector<std::pair<std::string, double>> metrics;
};

/// One design's pipeline outcome, as run() and runMany() return it: the
/// records and diagnostics of its passes, ordered exactly as a serial run
/// emits them.
struct RunResult {
  std::string design;
  bool ok = false;
  std::vector<PassRecord> records;
  std::vector<Diagnostic> diagnostics;

  /// Record of a pass by name (nullptr when it did not run).
  const PassRecord* record(const std::string& passName) const;
  /// Pass records + diagnostics as a JSON object.
  std::string json() const;
};

class SynthesizeControl final : public Pass {
public:
  std::string name() const override { return "synthesize-control"; }
  std::string metricNamespace() const override { return "synth"; }
  void run(Design& design, PassContext& ctx) override;
};

/// AIG optimization of the design's combinational logic. Every run is
/// proven equivalent to the unoptimized netlist through the sequential
/// envelope (netlist::checkSeqEquivalence, default budgets); a failed
/// proof is a pass error, so an unsound rewrite can never reach mapping.
class OptimizeAig final : public Pass {
public:
  explicit OptimizeAig(unsigned effort = 2) : effort_(effort) {}
  std::string name() const override { return "optimize-aig"; }
  std::string metricNamespace() const override { return "aig"; }
  void run(Design& design, PassContext& ctx) override;

private:
  unsigned effort_;
};

class MapLuts final : public Pass {
public:
  explicit MapLuts(unsigned k = 4, unsigned rounds = 0)
      : k_(k), rounds_(rounds) {}
  std::string name() const override { return "map-luts"; }
  std::string metricNamespace() const override { return "map"; }
  void run(Design& design, PassContext& ctx) override;

private:
  unsigned k_;
  unsigned rounds_;
};

/// Static timing of the mapped netlist under the default TechParams.
class Sta final : public Pass {
public:
  std::string name() const override { return "sta"; }
  std::string metricNamespace() const override { return "sta"; }
  void run(Design& design, PassContext& ctx) override;
};

class ProveEncodingEquiv final : public Pass {
public:
  std::string name() const override { return "prove-encoding-equiv"; }
  std::string metricNamespace() const override { return "proof"; }
  void run(Design& design, PassContext& ctx) override;
};

class Cosim final : public Pass {
public:
  explicit Cosim(sync::CosimOptions options = {}) : options_(options) {}
  std::string name() const override { return "cosim"; }
  std::string metricNamespace() const override { return "cosim"; }
  void run(Design& design, PassContext& ctx) override;

private:
  sync::CosimOptions options_;
};

/// Seeded fault-injection campaign over the design's synthesized netlist
/// (see fault::runCampaign). Experiments fan out onto the executor's pool;
/// results join by plan index, so job count never changes the outcome. A
/// campaign cut short by the pass deadline fails the pass but keeps the
/// partial tallies on the design for reporting.
class FaultCampaign final : public Pass {
public:
  explicit FaultCampaign(fault::CampaignOptions options = {})
      : options_(std::move(options)) {}
  std::string name() const override { return "fault-campaign"; }
  std::string metricNamespace() const override { return "fault"; }
  void run(Design& design, PassContext& ctx) override;

private:
  fault::CampaignOptions options_;
};

/// SAT-sweeping of the synthesized netlist: BitSim-guided equivalence
/// classes refined by incremental SAT, proven-equal nodes merged. The
/// swept netlist is always proven sequentially equivalent to the input
/// (a failed proof is a pass error), then installed as a design artifact
/// alongside the sweep statistics — the synthesized netlist the later
/// passes consume is untouched, so port NodeIds stay valid. Both run with
/// their engines' default options.
class SatSweep final : public Pass {
public:
  std::string name() const override { return "sat-sweep"; }
  std::string metricNamespace() const override { return "sweep"; }
  void run(Design& design, PassContext& ctx) override;
};

/// Bounded model checking of the LIS protocol invariants (token
/// conservation, buffer-occupancy bound, deadlock watchdog — see
/// sat/bmc.hpp) on the design's synthesized netlist through its port
/// view. A violated invariant is a pass error carrying the property name
/// and the exact failing depth; a budget/deadline-degraded bound is a
/// warning plus metric. The storage bound B is always derived from the
/// design's wrapper config or system spec (sat::capacityBound), so
/// options.capacityBound is ignored; a prebuilt netlist has no port view
/// and is skipped with a note.
class CheckInvariants final : public Pass {
public:
  explicit CheckInvariants(sat::BmcOptions options = {})
      : options_(options) {}
  std::string name() const override { return "check-invariants"; }
  std::string metricNamespace() const override { return "bmc"; }
  void run(Design& design, PassContext& ctx) override;

private:
  sat::BmcOptions options_;
};

/// Unbounded proofs of the LIS protocol invariants (PDR/IC3 — see
/// sat/pdr.hpp) on the design's synthesized netlist. The
/// strongest verdict per property: proved for all time (its inductive
/// invariant checked by a fresh solver; a failed check is a pass error
/// naming the property, and `certified` reads 0), or a concrete
/// counterexample trace (a pass error naming the property and failing
/// depth, with the trace replayed on the netlist simulator to confirm
/// it), or a budget/deadline-degraded bound (warning + metric, like
/// CheckInvariants). The storage bound is derived as in CheckInvariants;
/// every other sat::PdrOptions field keeps its default.
class ProveUnbounded final : public Pass {
public:
  std::string name() const override { return "prove-unbounded"; }
  std::string metricNamespace() const override { return "pdr"; }
  void run(Design& design, PassContext& ctx) override;
};

struct ReportOptions {
  bool verilog = false; // also emit structural Verilog into the design
};

/// The design's one record as JSON: its name, the metrics registry the
/// passes before it filled, and the stage-time table.
class Report final : public Pass {
public:
  explicit Report(ReportOptions options = {}) : options_(options) {}
  std::string name() const override { return "report"; }
  std::string metricNamespace() const override { return "report"; }
  void run(Design& design, PassContext& ctx) override;

private:
  ReportOptions options_;
};

class Pipeline {
public:
  Pipeline& add(std::unique_ptr<Pass> pass);

  // Fluent builders for the standard passes.
  Pipeline& synthesizeControl();
  Pipeline& optimizeAig(unsigned effort = 2);
  Pipeline& mapLuts(unsigned k = 4, unsigned rounds = 0);
  Pipeline& sta();
  Pipeline& proveEncodingEquiv();
  Pipeline& cosim(const sync::CosimOptions& options = {});
  Pipeline& faultCampaign(const fault::CampaignOptions& options = {});
  Pipeline& satSweep();
  Pipeline& checkInvariants(const sat::BmcOptions& options = {});
  Pipeline& proveUnbounded();
  Pipeline& report(const ReportOptions& options = {});

  /// Wall-clock budget per pass, in seconds (0 disables, the default).
  /// Each pass gets a fresh deadline token via PassContext::cancel();
  /// a pass that outlives its budget is failed with an error diagnostic —
  /// cooperative passes wind down early, stubborn ones are flagged the
  /// moment they return.
  Pipeline& passDeadline(double seconds);

  /// Run every pass in order against `design`; stops at the first failing
  /// pass. `exec`, when given, is available to the passes for
  /// intra-design subtask fan-out (encoding proofs per FSM spec, cosim
  /// seed shards).
  RunResult run(Design& design) const;
  RunResult run(Design& design, Executor& exec) const;

  /// Run the pipeline over every design, scheduling designs concurrently
  /// on `exec`'s pool (serially, in order, for a 1-job executor). The
  /// returned vector is indexed by submission order, so output derived
  /// from it is identical at any job count. Failures are isolated per
  /// design: a design whose run escapes the per-pass error handling (a
  /// throwing Design accessor, a non-standard exception) yields a failure
  /// RunResult while every other design still completes.
  ///
  /// Every pass runs inside its design's task ("flow.designs"); passes
  /// that fan out further (cosim shards, fault batches, encoding proofs)
  /// nest their batches on the same pool, so a design's cosim overlaps
  /// the other designs' earlier passes.
  std::vector<RunResult> runMany(std::vector<Design>& designs,
                                 Executor& exec) const;
  /// Convenience: runMany on a fresh Executor(jobs).
  std::vector<RunResult> runMany(std::vector<Design>& designs,
                                 unsigned jobs) const;

private:
  /// Runs every pass against `design`, stopping at the first failure.
  RunResult runOne(Design& design, Executor* exec) const;

  std::vector<std::unique_ptr<Pass>> passes_;
  double passDeadline_ = 0; // seconds; 0 = no deadline
};

} // namespace lis::flow
