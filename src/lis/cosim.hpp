#pragma once
// Co-simulation oracles: drive a synthesized netlist and its compiled
// behavioural network (sync::Oracle) in lockstep under seeded random
// traffic, and check cycle-accurate agreement of every protocol output.
// The per-cycle discipline (persistent LIS sources, Moore stops read
// before offering, random sink stalls) lives once in sync::Lockstep
// (lis/lockstep.hpp); this file adds shards, cancellation and token
// counting. Each shard is one Lockstep lane on its own BitSim: the shards
// already fan out over the executor's threads, and packing them into one
// word would put a whole design's cosim on one thread.
//
// Two entry points:
//   cosimWrapper  the single buildWrapper composition (shell + one relay
//                 station per output channel)
//   cosimSystem   any SystemSpec topology, checked against the compiled
//                 behavioural reference network of the spec (sync::Oracle:
//                 one shell and pearl stub per pearl, one ring per relay
//                 station), with per-channel randomized offers and stalls

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "support/cancellation.hpp"

namespace lis::sync {

struct CosimOptions {
  std::uint64_t cycles = 1500;
  std::uint64_t seed = 0xC0517;
  unsigned offerPercent = 70; // P(source offers a token), per channel/cycle
  unsigned stallPercent = 30; // P(sink asserts stop), per channel/cycle
  /// Split the run into this many independent from-reset simulations
  /// ("shards"). Shard i gets cycles/shards of the cycle budget (early
  /// shards take the remainder) and the i-th SplitMix64 fork of `seed`,
  /// so the joined result is a pure function of the options — identical
  /// whether the shards run serially, in any order, or concurrently.
  /// shards == 1 is the classic single continuous run.
  unsigned shards = 1;
  /// Parallel-for hook for the shard fan-out: runner(n, f) must call
  /// f(0), ..., f(n-1) (in any order, possibly concurrently) and return
  /// once all have finished. Null runs the shards serially in index
  /// order; either way shard results are joined by index, so the output
  /// is byte-identical. The flow Cosim pass points this at its Executor.
  std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
      runner;
  /// Cooperative cancellation (per-pass deadline): polled every 128
  /// cycles; a tripped token ends the run early with ok == false,
  /// cancelled == true and the counters accumulated so far. Polling
  /// consumes no randomness, so an untripped token never changes results.
  const support::CancellationToken* cancel = nullptr;
};

struct CosimResult {
  bool ok = false;
  std::uint64_t cyclesRun = 0;
  std::uint64_t fires = 0;  // pearl activations (behavioural count, summed)
  std::uint64_t tokens = 0; // tokens delivered across all output channels
  std::vector<std::uint64_t> tokensPerOutput; // per external output channel
  std::string mismatch;     // first disagreement, empty when ok
  bool cancelled = false;   // ended early by a tripped CancellationToken
};

/// Build the wrapper for `cfg` and co-simulate it against the behavioural
/// models for opts.cycles cycles.
CosimResult cosimWrapper(const WrapperConfig& cfg,
                         const CosimOptions& opts = {});

/// Same oracle over an already-built wrapper (must match `cfg`) — callers
/// holding a synthesized netlist (flow::Design) skip the rebuild.
CosimResult cosimWrapper(const Wrapper& w, const WrapperConfig& cfg,
                         const CosimOptions& opts = {});

/// Build the system for `spec` and co-simulate it against the behavioural
/// reference network for opts.cycles cycles.
CosimResult cosimSystem(const SystemSpec& spec, const CosimOptions& opts = {});

/// Same oracle over an already-built system (must match `spec`).
CosimResult cosimSystem(const System& sys, const SystemSpec& spec,
                        const CosimOptions& opts = {});

} // namespace lis::sync
