#pragma once
// Bounded model checking of the LIS protocol invariants.
//
// checkInvariants instruments a wrapper/system netlist with the protocol
// monitor PDR uses too (sat/monitor.hpp), whose three fail flags are:
//
//   token conservation   some delivered_j exceeds every accepted_i by
//                        more than the design's storage bound B — the
//                        design invented tokens;
//   buffer occupancy     some accepted_i exceeds every delivered_j by
//                        more than B — the design absorbed more tokens
//                        than it can hold (lost or duplicated-stalled);
//   deadlock watchdog    under the maximal-progress environment (all
//                        inValid forced 1, all outStop forced 0) the
//                        system makes no handshake at all for
//                        `watchdogWindow` consecutive cycles.
//
// The shared monitor builds the handshake events, the watchdog and its
// environment. BMC's own part is the counting behind the first two
// flags: per external input channel a counter of accepted tokens
// (inValid & !inStop), per external output channel a counter of
// delivered tokens (outValid & !outStop), both sized to the unrolling
// horizon, and comparators with slack B.
//
// The cone of influence of the fail flags (netlist::extractCone) is
// unrolled frame by frame into one incremental SAT solver — the
// synthesized control network and the monitor, without the pearls'
// datapath, which no handshake reads. The watchdog runs on a second
// unrolling of its own cone because its environment constraint would
// weaken the other two properties. Each fail flag is queried per frame
// under an assumption. UNSAT at every frame up to `depth` proves the
// invariant to that bound; SAT pinpoints the exact violation depth. B is
// the capacity bound: total seed tokens plus relay storage plus
// shell/pearl buffering — capacityBound() computes a sound (generous)
// value from the spec.
//
// The unbounded proofs (sat/pdr.hpp) subsume these verdicts; BMC stays as
// the depth-20 floor the bench gate and flowbench's prove judge read
// whatever a budget does to the unbounded verdict.

#include <cstdint>
#include <string>
#include <vector>

#include "lis/oracle.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "support/cancellation.hpp"

namespace lis::sat {

struct BmcOptions {
  unsigned depth = 20;
  unsigned watchdogWindow = 8;
  /// Storage bound B (see header); capacityBound() derives it from a
  /// spec. Too small produces spurious violations, too large weakens
  /// the invariant — never unsoundness.
  unsigned capacityBound = 8;
  /// Whole-run solver budgets, absolute (0 = unlimited).
  std::uint64_t conflictBudget = 1u << 22;
  std::uint64_t propagationBudget = 0;
  bool tokenConservation = true;
  bool occupancyBound = true;
  bool deadlockWatchdog = true;
  std::uint64_t seed = 0xb3c5eedULL;
  const support::CancellationToken* cancel = nullptr;
};

struct BmcPropertyResult {
  std::string name;
  bool violated = false;
  unsigned failDepth = 0;    // first violating frame (valid when violated)
  unsigned depthReached = 0; // deepest frame proven clean
  bool degraded = false;     // budget/cancellation stopped before `depth`
};

struct BmcResult {
  std::vector<BmcPropertyResult> properties;
  SolverStats stats; // summed over the unrollings

  /// Vacuously true with zero enabled properties — pair with
  /// minDepthReached() == 0 so an all-disabled BmcOptions reads as "0
  /// properties proven to depth 0", never as an unbounded proof.
  bool allHold() const {
    for (const BmcPropertyResult& p : properties) {
      if (p.violated) return false;
    }
    return true;
  }
  /// Deepest frame every property is proven clean to; 0 (not ~0u) when
  /// no property was enabled.
  unsigned minDepthReached() const {
    if (properties.empty()) return 0;
    unsigned d = ~0u;
    for (const BmcPropertyResult& p : properties) {
      d = p.depthReached < d ? p.depthReached : d;
    }
    return d;
  }
  bool anyDegraded() const {
    for (const BmcPropertyResult& p : properties) {
      if (p.degraded) return true;
    }
    return false;
  }
};

/// Check the protocol invariants on `nl` seen through `ports`.
BmcResult checkInvariants(const netlist::Netlist& nl,
                          const sync::PortView& ports,
                          const BmcOptions& opts = {});

/// Sound storage bounds for the canned constructions. A wrapper's bound
/// is that of its one-pearl system, sync::wrapperSpec(cfg).
unsigned capacityBound(const sync::SystemSpec& spec);
unsigned capacityBound(const sync::WrapperConfig& cfg);

} // namespace lis::sat
