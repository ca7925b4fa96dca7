#include "lis/cosim.hpp"

#include <utility>
#include <vector>

#include "lis/lockstep.hpp"
#include "lis/oracle.hpp"
#include "support/rng.hpp"

namespace lis::sync {

namespace {

/// Options of the i-th of base.shards independent from-reset runs: an even
/// slice of the cycle budget (early shards absorb the remainder), the i-th
/// SplitMix64 fork of the seed, shards = 1, runner cleared.
CosimOptions cosimShardOptions(const CosimOptions& base, std::size_t shard) {
  // Forking, not offsetting, keeps the shard streams decorrelated and —
  // crucially — independent of how the other shards consume theirs.
  CosimOptions o = base;
  const std::uint64_t whole = base.cycles / base.shards;
  const std::uint64_t extra = base.cycles % base.shards;
  o.cycles = whole + (shard < extra ? 1 : 0);
  o.seed = support::SplitMix64(base.seed).forkSeed(shard);
  o.shards = 1;
  o.runner = nullptr;
  return o;
}

/// Join shard results in index order: counters accumulate up to and
/// including the first failing shard (what a serial stop-at-first-failure
/// loop would report); later shards are discarded. Execution order cannot
/// leak into the result.
CosimResult cosimMergeShards(std::vector<CosimResult> parts) {
  CosimResult total;
  if (!parts.empty()) {
    total.tokensPerOutput.assign(parts.front().tokensPerOutput.size(), 0);
  }
  total.ok = true;
  for (CosimResult& p : parts) {
    total.cyclesRun += p.cyclesRun;
    total.fires += p.fires;
    total.tokens += p.tokens;
    for (std::size_t j = 0;
         j < p.tokensPerOutput.size() && j < total.tokensPerOutput.size();
         ++j) {
      total.tokensPerOutput[j] += p.tokensPerOutput[j];
    }
    if (!p.ok) {
      total.ok = false;
      total.cancelled = p.cancelled;
      total.mismatch = std::move(p.mismatch);
      break;
    }
  }
  return total;
}

/// One continuous run: a one-lane Lockstep under RandomTraffic, plus
/// cancellation and token counting.
CosimResult driveCosim(const netlist::Netlist& nl, const PortView& ports,
                       Oracle& beh, const CosimOptions& opts) {
  Lockstep ls(nl, ports, {&beh});
  RandomTraffic traffic(opts.seed, opts.offerPercent, opts.stallPercent,
                        ls.numInputs(), ls.numOutputs(), beh.dataWidth());
  CosimResult result;
  result.tokensPerOutput.assign(ls.numOutputs(), 0);
  for (std::uint64_t cycle = 0; cycle < opts.cycles; ++cycle) {
    if (opts.cancel != nullptr && (cycle & 127u) == 0 &&
        opts.cancel->cancelled()) {
      result.cancelled = true;
      result.mismatch =
          "cycle " + std::to_string(cycle) + ": cancelled (deadline exceeded)";
      return result;
    }
    if (!ls.readStops(cycle)) break;
    ls.drive(0, traffic.draw());
    if (!ls.settle(cycle)) break;
    traffic.retire(ls.accepted(0));
    for (std::size_t j = 0; j < ls.numOutputs(); ++j) {
      if (ls.delivered(0)[j] != 0) {
        ++result.tokens;
        ++result.tokensPerOutput[j];
      }
    }
    ls.clock();
    ++result.cyclesRun;
  }
  result.mismatch = ls.mismatch(0);
  result.ok = ls.agrees(0);
  if (result.ok) result.fires = beh.fires();
  return result;
}

/// Both entry points: shard fan-out, or one run against a fresh oracle.
template <class Spec>
CosimResult cosim(const netlist::Netlist& nl, const PortView& ports,
                  const Spec& spec, const CosimOptions& opts) {
  if (opts.shards > 1) {
    std::vector<CosimResult> parts(opts.shards);
    const auto body = [&](std::size_t i) {
      parts[i] = cosim(nl, ports, spec, cosimShardOptions(opts, i));
    };
    if (opts.runner) {
      opts.runner(opts.shards, body);
    } else {
      for (std::size_t i = 0; i < opts.shards; ++i) body(i);
    }
    return cosimMergeShards(std::move(parts));
  }
  Oracle beh(spec);
  return driveCosim(nl, ports, beh, opts);
}

} // namespace

CosimResult cosimWrapper(const WrapperConfig& cfg, const CosimOptions& opts) {
  return cosimWrapper(buildWrapper(cfg), cfg, opts);
}

CosimResult cosimWrapper(const Wrapper& w, const WrapperConfig& cfg,
                         const CosimOptions& opts) {
  return cosim(w.netlist, portView(w.ports), cfg, opts);
}

CosimResult cosimSystem(const SystemSpec& spec, const CosimOptions& opts) {
  return cosimSystem(buildSystem(spec), spec, opts);
}

CosimResult cosimSystem(const System& sys, const SystemSpec& spec,
                        const CosimOptions& opts) {
  return cosim(sys.netlist, portView(sys.ports), spec, opts);
}

} // namespace lis::sync
