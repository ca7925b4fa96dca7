#pragma once
// Seeded fault-injection campaigns: plan a deterministic list of fault
// sites over a target (control-register SEUs, data-register SEUs, gate
// stuck-ats, channel faults), run them in batches of kBatchExperiments on
// the lane-parallel engine (injectBatch: one Lockstep pass per batch,
// experiments and their fault-free twins in the lanes of one BitSim
// word), and tally outcome counts. The coverage figure of merit is
// (detected + recovered) / total — faults the protocol either flagged or
// fully absorbed.
//
// Determinism: planSites draws every site serially from the campaign seed,
// and experiment i gets stimulus seed forkSeed(4096 + i) of the injection
// seed — a pure function of (options, i). Batch b holds sites
// [b*K, (b+1)*K) by index, and lanes never interact, so every result
// equals injectOne's for its site and seed. The optional parallel runner
// fans out over batches; it cannot change any result, only wall-clock
// time: results join by index, exactly like cosim shard merging.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault.hpp"
#include "support/cancellation.hpp"

namespace lis::fault {

/// Experiments per batch (K). A batch's gate side costs what one
/// experiment used to (the word is simulated whole, to the horizon unless
/// every lane concludes early), so gate time falls as 1/K while the
/// per-lane oracles cost the same at any K. Memory bounds K: a batch holds
/// one BitSim (mostly its compiled instruction stream, ~0.3 MiB on
/// mesh4x4) and K behavioural oracles (~46 KiB each on mesh4x4), so at 16
/// a batch holds ~1 MiB where one in-flight experiment held ~0.7 MiB (two
/// BitSims and an oracle). Measured on the bench's inject campaigns
/// (4 threads): 16 leaves peak RSS where 8 does and the scalar engine did,
/// and 32, the most one word holds with twins, saves only a tenth more.
inline constexpr std::size_t kBatchExperiments = 16;

struct CampaignOptions {
  InjectionOptions inject;
  std::uint64_t seed = 0xCA3A16; // site-planning seed
  std::size_t controlSeuCount = 32;
  std::size_t dataSeuCount = 8;
  std::size_t stuckCount = 8;
  std::size_t channelCount = 4;
  /// Parallel-for hook over the batches, same contract as
  /// CosimOptions::runner: must call f(0..n-1) in any order and return
  /// when all are done. Null = serial.
  std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
      runner;
  /// Checked before each batch and every 128 cycles inside one (and
  /// honoured by parallel runners that skip work): a tripped token leaves
  /// the remaining batches unrun, counts none of the sites of a batch it
  /// cut short, and marks the campaign cancelled.
  const support::CancellationToken* cancel = nullptr;
};

struct OutcomeCounts {
  std::size_t detected = 0;
  std::size_t recovered = 0;
  std::size_t silent = 0;
  std::size_t hang = 0;

  std::size_t total() const { return detected + recovered + silent + hang; }
  /// Fraction of faults the protocol detected or fully recovered from.
  double coverage() const {
    const std::size_t t = total();
    return t == 0 ? 1.0
                  : static_cast<double>(detected + recovered) /
                        static_cast<double>(t);
  }
  void count(Outcome o);
};

struct CampaignResult {
  std::vector<FaultResult> results; // site-plan order, completed batches
  OutcomeCounts all;
  OutcomeCounts controlSeu; // the acceptance-critical subset
  bool cancelled = false;   // some batches were skipped or cut short
};

/// Deterministic site plan for `t` under `opts` (no simulation happens
/// here). Injection cycles land after a short warm-up and inside the first
/// half of the horizon, leaving room for recovery to be observed.
std::vector<FaultSite> planSites(const Target& t, const CampaignOptions& opts);

/// Run the full campaign: planSites, one injectBatch per kBatchExperiments
/// sites, tallies.
CampaignResult runCampaign(const Target& t, const CampaignOptions& opts);

} // namespace lis::fault
