#pragma once
// flow::Pipeline — uniform pass objects over flow::Design, in the spirit of
// parameterized pass structs in mature logic-synthesis codebases: each pass
// carries its options as plain data, reports through one diagnostic
// channel, and contributes named numeric metrics to a per-pass record that
// the pipeline can serialize as JSON.
//
// Passes:
//   SynthesizeControl      spec -> netlist (FSM encode + minimize + datapath)
//   OptimizeAig{effort}    AIG rewrite/balance of the combinational logic,
//                          proven against the unoptimized netlist
//   MapLuts{k, rounds}     netlist -> k-LUT cover (rounds == 0: greedy;
//                          >= 1: priority cuts with area recovery)
//   Sta{TechParams}        mapped netlist -> timing report
//   ProveEncodingEquiv     one-hot == binary control proof per FSM spec
//   Cosim{CosimOptions}    randomized-stall co-simulation oracle
//   Report                 design artifacts -> JSON (+ optional Verilog)
//
// Pipeline::run executes the passes in order, wall-times each, and stops at
// the first pass that reports an error (exceptions become error
// diagnostics). The per-pass records and diagnostics survive for
// inspection and JSON emission.
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
#include "netlist/equiv.hpp"
#include "sat/bmc.hpp"
#include "sat/pdr.hpp"
#include "sat/sweep.hpp"
#include "support/cancellation.hpp"
#include "timing/techparams.hpp"

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
  /// Named numeric result, kept in the pass record and emitted as JSON.
  void metric(std::string key, double value);
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
  PassContext(std::string pass, std::vector<Diagnostic>& diags,
              std::vector<std::pair<std::string, double>>& metrics,
              Executor* exec, const support::CancellationToken* cancel)
      : pass_(std::move(pass)), diags_(&diags), metrics_(&metrics),
        exec_(exec), cancel_(cancel) {}

  std::string pass_;
  std::vector<Diagnostic>* diags_;
  std::vector<std::pair<std::string, double>>* metrics_;
  Executor* exec_ = nullptr;
  const support::CancellationToken* cancel_ = nullptr;
  bool failed_ = false;
};

class Pass {
public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual void run(Design& design, PassContext& ctx) = 0;
};

struct PassRecord {
  std::string name;
  double seconds = 0;
  bool ok = false;
  std::vector<std::pair<std::string, double>> metrics;
};

/// One design's buffered pipeline outcome, as produced by runMany: the
/// records and diagnostics that run() would have left in the Pipeline,
/// private to this design and ordered exactly as a serial run would have
/// emitted them.
struct RunResult {
  std::string design;
  bool ok = false;
  std::vector<PassRecord> records;
  std::vector<Diagnostic> diagnostics;

  /// Same JSON shape as Pipeline::json().
  std::string json() const;
};

class SynthesizeControl final : public Pass {
public:
  std::string name() const override { return "synthesize-control"; }
  void run(Design& design, PassContext& ctx) override;
};

/// AIG optimization of the design's combinational logic. Every run is
/// proven equivalent to the unoptimized netlist through the sequential
/// envelope (netlist::checkSeqEquivalence); a failed proof is a pass
/// error, so an unsound rewrite can never reach mapping. `prove` exists
/// for benchmarking the optimizer in isolation, not for shipping.
class OptimizeAig final : public Pass {
public:
  explicit OptimizeAig(unsigned effort = 2, bool prove = true,
                       netlist::EquivOptions equiv = {})
      : effort_(effort), prove_(prove), equiv_(equiv) {}
  std::string name() const override { return "optimize-aig"; }
  void run(Design& design, PassContext& ctx) override;

private:
  unsigned effort_;
  bool prove_;
  // Tiered-checker knobs for the proof: the SAT budgets make an explosive
  // proof degrade to a reported simulation screen instead of hanging the
  // flow.
  netlist::EquivOptions equiv_;
};

class MapLuts final : public Pass {
public:
  explicit MapLuts(unsigned k = 4, unsigned rounds = 0)
      : k_(k), rounds_(rounds) {}
  std::string name() const override { return "map-luts"; }
  void run(Design& design, PassContext& ctx) override;

private:
  unsigned k_;
  unsigned rounds_;
};

class Sta final : public Pass {
public:
  explicit Sta(timing::TechParams params = {}) : params_(params) {}
  std::string name() const override { return "sta"; }
  void run(Design& design, PassContext& ctx) override;

private:
  timing::TechParams params_;
};

class ProveEncodingEquiv final : public Pass {
public:
  std::string name() const override { return "prove-encoding-equiv"; }
  void run(Design& design, PassContext& ctx) override;
};

class Cosim final : public Pass {
public:
  explicit Cosim(sync::CosimOptions options = {}) : options_(options) {}
  std::string name() const override { return "cosim"; }
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
  void run(Design& design, PassContext& ctx) override;

private:
  fault::CampaignOptions options_;
};

/// SAT-sweeping of the synthesized netlist: BitSim-guided equivalence
/// classes refined by incremental SAT, proven-equal nodes merged. The
/// swept netlist is always proven sequentially equivalent to the input
/// (a failed proof is a pass error), then installed as a design artifact
/// alongside the sweep statistics — the synthesized netlist the later
/// passes consume is untouched, so port NodeIds stay valid.
class SatSweep final : public Pass {
public:
  explicit SatSweep(sat::SweepOptions options = {},
                    netlist::EquivOptions equiv = {})
      : options_(options), equiv_(equiv) {}
  std::string name() const override { return "sat-sweep"; }
  void run(Design& design, PassContext& ctx) override;

private:
  sat::SweepOptions options_;
  netlist::EquivOptions equiv_;
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
  void run(Design& design, PassContext& ctx) override;

private:
  sat::BmcOptions options_;
};

/// Unbounded proofs of the LIS protocol invariants (PDR/IC3 — see
/// sat/pdr.hpp) on the design's synthesized netlist. The
/// strongest verdict per property: proved for all time, or a concrete
/// counterexample trace (a pass error naming the property and failing
/// depth, with the trace replayed on the netlist simulator to confirm
/// it), or a budget/deadline-degraded bound (warning + metric, like
/// CheckInvariants). The storage bound is derived as in CheckInvariants.
class ProveUnbounded final : public Pass {
public:
  explicit ProveUnbounded(sat::PdrOptions options = {})
      : options_(options) {}
  std::string name() const override { return "prove-unbounded"; }
  void run(Design& design, PassContext& ctx) override;

private:
  sat::PdrOptions options_;
};

struct ReportOptions {
  bool verilog = false; // also emit structural Verilog into the design
};

class Report final : public Pass {
public:
  explicit Report(ReportOptions options = {}) : options_(options) {}
  std::string name() const override { return "report"; }
  void run(Design& design, PassContext& ctx) override;

private:
  ReportOptions options_;
};

class Pipeline {
public:
  Pipeline& add(std::unique_ptr<Pass> pass);

  // Fluent builders for the standard passes.
  Pipeline& synthesizeControl();
  Pipeline& optimizeAig(unsigned effort = 2, bool prove = true,
                        const netlist::EquivOptions& equiv = {});
  Pipeline& mapLuts(unsigned k = 4, unsigned rounds = 0);
  Pipeline& sta(const timing::TechParams& params = {});
  Pipeline& proveEncodingEquiv();
  Pipeline& cosim(const sync::CosimOptions& options = {});
  Pipeline& faultCampaign(const fault::CampaignOptions& options = {});
  Pipeline& satSweep(const sat::SweepOptions& options = {},
                     const netlist::EquivOptions& equiv = {});
  Pipeline& checkInvariants(const sat::BmcOptions& options = {});
  Pipeline& proveUnbounded(const sat::PdrOptions& options = {});
  Pipeline& report(const ReportOptions& options = {});

  /// Wall-clock budget per pass, in seconds (0 disables, the default).
  /// Each pass gets a fresh deadline token via PassContext::cancel();
  /// a pass that outlives its budget is failed with an error diagnostic —
  /// cooperative passes wind down early, stubborn ones are flagged the
  /// moment they return.
  Pipeline& passDeadline(double seconds);

  /// Run every pass in order against `design`; stops at the first failing
  /// pass. Records and diagnostics are reset per run. Returns overall
  /// success.
  bool run(Design& design);

  /// Same, with `exec` available to the passes for intra-design subtask
  /// fan-out (encoding proofs per FSM spec, cosim seed shards).
  bool run(Design& design, Executor& exec);

  /// Run the pipeline over every design, scheduling designs concurrently
  /// on `exec`'s pool (serially, in order, for a 1-job executor). Each
  /// design's records/diagnostics are buffered in its RunResult; the
  /// returned vector is indexed by submission order, so output derived
  /// from it is identical at any job count. Does not touch this
  /// Pipeline's records()/diagnostics() (which stay owned by run()).
  /// Failures are isolated per design: a design whose run escapes the
  /// per-pass error handling (a throwing Design accessor, a non-standard
  /// exception) yields a failure RunResult while every other design still
  /// completes.
  ///
  /// Every pass runs inside its design's task ("flow.designs"); passes
  /// that fan out further (cosim shards, fault batches, encoding proofs)
  /// nest their batches on the same pool, so a design's cosim overlaps
  /// the other designs' earlier passes.
  std::vector<RunResult> runMany(std::vector<Design>& designs,
                                 Executor& exec);
  /// Convenience: runMany on a fresh Executor(jobs).
  std::vector<RunResult> runMany(std::vector<Design>& designs,
                                 unsigned jobs);

  const std::vector<PassRecord>& records() const { return records_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  /// Record of a pass by name (nullptr when it did not run).
  const PassRecord* record(const std::string& passName) const;
  bool ok() const { return ok_; }

  /// Pass records + diagnostics of the last run as a JSON object.
  std::string json() const;

private:
  /// Runs every pass against `design`, stopping at the first failure.
  RunResult runOne(Design& design, Executor* exec);

  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<PassRecord> records_;
  std::vector<Diagnostic> diagnostics_;
  double passDeadline_ = 0; // seconds; 0 = no deadline
  bool ok_ = false;
};

} // namespace lis::flow
