#pragma once
// The bench's design matrix, factored out so lis_bench and the
// determinism test drive the *same* suites: the wrapper configuration ×
// encoding matrix, the canonical small-system topologies, and the
// mesh/pipeline scaling sweep. Each function returns freshly constructed
// Designs (a Design caches its artifacts, so timing a suite requires new
// instances per run), and standardPasses builds the full pipeline the
// bench runs over them — synthesis through sharded co-simulation.
//
// Shard count is fixed here (not derived from --jobs) on purpose: the
// sharded cosim result is a function of (cycles, seed, shards), so keeping
// shards constant is what makes `--jobs 1` and `--jobs 8` byte-identical.

#include <cstdint>
#include <vector>

#include "fault/campaign.hpp"
#include "flow/design.hpp"
#include "flow/pipeline.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "techmap/lutmap.hpp"

namespace lis::bench {

/// Fixed cosim shard count for every bench suite (see header comment).
inline constexpr unsigned kCosimShards = 8;

/// Table-1-style wrapper matrix: 1x1, 2x1, 2x2, 3x1 channels, depth-2
/// relays, both encodings.
inline std::vector<flow::Design> wrapperSuite() {
  std::vector<flow::Design> designs;
  const struct {
    unsigned in, out;
  } shapes[] = {{1, 1}, {2, 1}, {2, 2}, {3, 1}};
  for (const auto& shape : shapes) {
    for (sync::Encoding enc :
         {sync::Encoding::OneHot, sync::Encoding::Binary}) {
      sync::WrapperConfig cfg;
      cfg.numInputs = shape.in;
      cfg.numOutputs = shape.out;
      cfg.relayDepth = 2;
      cfg.encoding = enc;
      designs.emplace_back(cfg);
    }
  }
  return designs;
}

/// The canonical small topologies (chain / fork / join) in both encodings.
inline std::vector<flow::Design> systemSuite() {
  std::vector<flow::Design> designs;
  for (sync::Encoding enc :
       {sync::Encoding::OneHot, sync::Encoding::Binary}) {
    designs.emplace_back(sync::chainSpec(3, 1, enc));
    designs.emplace_back(sync::forkSpec(enc));
    designs.emplace_back(sync::joinSpec(enc));
  }
  return designs;
}

/// Mesh/pipeline scaling sweep: 16 → 100 pearls, the sizes that expose
/// superlinear synthesis or mapping cost before it reaches production
/// scale. Binary encoding (consistently the smaller/faster one on the
/// matrix above) keeps the sweep wall time on one axis: topology size.
inline std::vector<flow::Design> sweepSuite() {
  const sync::Encoding enc = sync::Encoding::Binary;
  std::vector<flow::Design> designs;
  designs.emplace_back(sync::pipelineSpec(16, 1, enc));
  designs.emplace_back(sync::pipelineSpec(32, 1, enc));
  designs.emplace_back(sync::pipelineSpec(64, 1, enc));
  designs.emplace_back(sync::meshSpec(4, 4, 1, enc));
  designs.emplace_back(sync::meshSpec(6, 6, 1, enc));
  designs.emplace_back(sync::meshSpec(8, 8, 1, enc));
  designs.emplace_back(sync::meshSpec(10, 10, 1, enc));
  return designs;
}

/// Production-scale suite behind `--suite scale` / `--suite full`: the
/// topologies an SoC-sized pearl network actually has. These sizes are
/// what the parallel elaboration, the synthesis cache and the flat cut
/// store exist for; the sweep above stops at 100 pearls so the default
/// bench stays fast. Binary encoding for the same reason as sweepSuite.
inline std::vector<flow::Design> scaleSuite() {
  const sync::Encoding enc = sync::Encoding::Binary;
  std::vector<flow::Design> designs;
  designs.emplace_back(sync::pipelineSpec(256, 1, enc));
  designs.emplace_back(sync::pipelineSpec(1024, 1, enc));
  designs.emplace_back(sync::meshSpec(16, 16, 1, enc));
  designs.emplace_back(sync::meshSpec(32, 32, 1, enc));
  return designs;
}

/// Cosim budget for the scale suite: 1280 cycles per shard, so every
/// from-reset shard outlasts pipe1024's fill latency (its first token
/// leaves at cycle 1026-1029 at the default traffic mix) and every output
/// delivers tokens; the gate fails a scale row whose
/// cosim.min_tokens_per_output is 0.
inline constexpr std::uint64_t kScaleCosimCycles = kCosimShards * 1280;

/// The full bench pipeline: synth → map → sta → encoding proof → sharded
/// cosim. One Pipeline instance is reusable across suites and runs.
inline flow::Pipeline standardPasses(std::uint64_t cosimCycles) {
  sync::CosimOptions cosim;
  cosim.cycles = cosimCycles;
  cosim.shards = kCosimShards;
  flow::Pipeline pipe;
  pipe.synthesizeControl().mapLuts(4).sta().proveEncodingEquiv().cosim(
      cosim);
  return pipe;
}

/// Robustness suite: the acceptance-critical fault-injection targets — the
/// 3x1 wrapper in both encodings and the 4x4 mesh in both encodings.
inline std::vector<flow::Design> faultSuite() {
  std::vector<flow::Design> designs;
  for (sync::Encoding enc :
       {sync::Encoding::OneHot, sync::Encoding::Binary}) {
    sync::WrapperConfig cfg;
    cfg.numInputs = 3;
    cfg.numOutputs = 1;
    cfg.relayDepth = 2;
    cfg.encoding = enc;
    designs.emplace_back(cfg);
  }
  for (sync::Encoding enc :
       {sync::Encoding::OneHot, sync::Encoding::Binary}) {
    designs.emplace_back(sync::meshSpec(4, 4, 1, enc));
  }
  return designs;
}

/// Campaign shape for the bench's fault suite: 32 control-register SEUs
/// (the acceptance-gated pool), 8 data-register SEUs, 8 gate stuck-ats and
/// 4 channel faults per design, all from fixed seeds — byte-identical at
/// any job count.
inline fault::CampaignOptions faultCampaignOptions() {
  fault::CampaignOptions o;
  o.controlSeuCount = 32;
  o.dataSeuCount = 8;
  o.stuckCount = 8;
  o.channelCount = 4;
  return o;
}

/// The robustness pipeline: synthesis, then the seeded injection campaign.
inline flow::Pipeline faultPasses() {
  flow::Pipeline pipe;
  pipe.synthesizeControl().faultCampaign(faultCampaignOptions());
  return pipe;
}

/// SAT verification suite: the chain/fork/join/ring acceptance topologies
/// in both encodings — the designs the bench's sat rows prove invariants
/// on and sweep.
inline std::vector<flow::Design> satSuite() {
  std::vector<flow::Design> designs;
  for (sync::Encoding enc :
       {sync::Encoding::OneHot, sync::Encoding::Binary}) {
    designs.emplace_back(sync::chainSpec(3, 1, enc));
    designs.emplace_back(sync::forkSpec(enc));
    designs.emplace_back(sync::joinSpec(enc));
    designs.emplace_back(sync::ringSpec(enc));
  }
  return designs;
}

/// The BMC depth the bench's sat rows prove invariants to; gated by
/// tools/check_bench_regression.py.
inline constexpr unsigned kSatBmcDepth = 20;

/// The SAT verification pipeline: synth → SAT-sweep (merges proven
/// against the synthesized netlist) → protocol-invariant BMC to
/// kSatBmcDepth → unbounded proofs (PDR/IC3), both with the capacity
/// bound derived from each design's spec. The BMC pass stays even though
/// the unbounded pass subsumes it: kSatBmcDepth is the floor the
/// regression gate can always fall back to when a budget degrades the
/// unbounded verdict.
inline flow::Pipeline satPasses() {
  sat::BmcOptions bmc;
  bmc.depth = kSatBmcDepth;
  flow::Pipeline pipe;
  pipe.synthesizeControl().satSweep().checkInvariants(bmc).proveUnbounded();
  return pipe;
}

/// Fixed knobs of the bench's optimize-pipeline twins (the *_opt suites):
/// the AIG effort and the iterated-mapping configuration the optimized
/// side is measured at. The unoptimized side is standardPasses' greedy
/// mapLuts(4).
inline constexpr unsigned kOptEffort = 2;
inline constexpr unsigned kOptMapRounds = 3;

inline techmap::MapOptions optMapOptions() {
  techmap::MapOptions options;
  options.k = 4;
  options.rounds = kOptMapRounds;
  return options;
}

/// The optimization pipeline the bench's *_opt suites run: synth → AIG
/// rewrite/balance (proven equivalent through the sequential envelope —
/// a failed proof aborts the bench) → priority-cut mapping with area
/// recovery → timing.
inline flow::Pipeline optPasses() {
  flow::Pipeline pipe;
  pipe.synthesizeControl()
      .optimizeAig(kOptEffort, /*prove=*/true)
      .mapLuts(4, kOptMapRounds)
      .sta();
  return pipe;
}

} // namespace lis::bench
