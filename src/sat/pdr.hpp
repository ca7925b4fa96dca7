#pragma once
// Unbounded proofs of the LIS protocol invariants: PDR/IC3 over the
// incremental CDCL core.
//
// proveUnbounded answers the question checkInvariants (sat/bmc.hpp) can
// only bound: do token conservation, the buffer-occupancy bound and the
// deadlock watchdog hold for *all* time? Both engines instrument the
// design with the one protocol monitor of sat/monitor.hpp — the same
// handshake events, stall watchdog and maximal-progress environment —
// and differ only in how they count tokens. BMC's token counters are
// sized to the unrolling horizon and wrap past it, so they cannot carry
// an unbounded argument. Here every (input i, output j) channel pair
// gets one finite saturating difference register, offset-encoded so
// diff == accepted_i − delivered_j + 1 lives in [0, B+2]: the low rail
// means some output delivered a token every input still owes it (token
// conservation — reset sits one step above this rail, so the first
// excess delivery is caught immediately), the high rail means some input
// out-ran every output by more than B (occupancy). Updates are ±1 per
// cycle and a rail is only ever *reached* exactly, so saturation never
// masks the first violation of either G-property.
//
// The engine, per property, is PDR/IC3: a frame-relative clause
// trapezoid F_1 ⊇ F_2 ⊇ … over a one-step transition relation (a
// free-initial-state Unroller with a single frame), a proof-obligation
// priority queue, inductive generalization driven by the solver's unsat
// cores over the assumption literals, clause pushing after every new
// frame, and fixpoint detection (some frame's delta empties) → proved
// for all time. An obligation cube that meets the reset state closes a
// concrete counterexample: a bad reset state is reported at depth 0
// with a one-frame trace.
//
// Each property runs on its own cone of influence: the monitor is built
// once over the whole design, then the engine unrolls only the sequential
// cone of that property's fail output (netlist::extractCone: transitive
// fanin through gates and DFF data/enable pins). Shells and relay
// stations compute valid/stop from their control state alone, so the
// pearls' datapath never reaches a fail output. The cone is exact —
// verdicts and counterexample depths are those of the whole netlist —
// and only the size of every SAT query shrinks.
//
// The enabled properties are independent: each builds its own cone and
// owns its solver, and only reads the shared monitor. proveUnbounded
// fans them out through PdrOptions::runner (the flow's ProveUnbounded
// pass points it at its Executor), so they may run concurrently; their
// results and solver totals are joined in property order, so the
// PdrResult is the same with or without a runner.
//
// Counterexamples come back as multi-frame input traces over the cone's
// free inputs. replayTrace re-simulates the trace cycle-accurately on
// the *design* netlist with an independent software mirror of the
// monitor's saturating-offset property semantics. It runs the frames
// through sync::Lockstep, as cosim and fault injection do;
// given a behavioural oracle (sync::Oracle) it also compares the netlist
// with it in lockstep — the cosim cross-validation of the monitor.
// A budget/cancellation/frame-cap stop degrades to a bounded result
// (`degraded = true`, depthReached = the deepest frame PDR cleared of
// bad states, 0 when it cleared none), never to `proved`.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lis/oracle.hpp"
#include "netlist/netlist.hpp"
#include "sat/bmc.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "support/cancellation.hpp"

namespace lis::sat {

struct PdrOptions {
  /// Storage bound B and watchdog window, as in BmcOptions.
  unsigned capacityBound = 8;
  unsigned watchdogWindow = 8;
  /// PDR frame cap — a trapezoid this tall without a fixpoint degrades.
  unsigned maxFrames = 128;
  /// Literal-drop attempts per inductive generalization beyond the
  /// unsat-core shrink (0 = core only).
  unsigned micAttempts = 24;
  /// Whole-run solver budgets per property, absolute (0 = unlimited).
  std::uint64_t conflictBudget = 1u << 22;
  std::uint64_t propagationBudget = 0;
  bool tokenConservation = true;
  bool occupancyBound = true;
  bool deadlockWatchdog = true;
  std::uint64_t seed = 0x9d2feedULL;
  const support::CancellationToken* cancel = nullptr;
  /// Parallel-for hook for the property fan-out, shaped like
  /// sync::CosimOptions::runner: runner(n, f) must call f(0), ..., f(n-1)
  /// (in any order, possibly concurrently) and return once all have
  /// finished. Null proves the properties one after another; either way
  /// the results are joined in property order.
  std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
      runner;
};

/// A counterexample as multi-frame input assignments. frames[f][i] is
/// the value of inputs[i] at cycle f; `inputs` are the free inputs of the
/// property's cone, as node ids of the netlist the caller passed (an
/// input outside the cone cannot change the verdict, and replay drives
/// unlisted inputs to 0). `forced` is the caller's full list of pinned
/// environment inputs (the watchdog's maximal-progress environment). The
/// violation is observable at cycle frames.size() - 1.
struct PdrTrace {
  std::vector<netlist::NodeId> inputs;
  std::vector<ForcedInput> forced;
  std::vector<std::vector<bool>> frames;
};

/// The kinds of SAT query a property's proof issues, for the solver work
/// split in PdrEngineStats::work.
enum class PdrQuery : std::uint8_t {
  Frame,       // PDR's bad-state query on the top frame
  Lift,        // shrinking a model's state to a cube (bad or predecessor)
  Consecution, // an obligation's relative-induction query
  Mic,         // one MIC literal-drop attempt
  Forward,     // pushing a just-learned clause forward, after a block
  Push,        // the push phase after a new frame
};
inline constexpr std::size_t kPdrQueryKinds = 6;

/// "frame", "lift", "consecution", "mic", "forward", "push".
const char* pdrQueryName(PdrQuery q);

struct PdrQueryWork {
  std::uint64_t solves = 0;
  std::uint64_t propagations = 0;
};

/// Aggregate engine counters of one property's proof.
struct PdrEngineStats {
  std::uint64_t obligations = 0;     // proof obligations dequeued
  std::uint64_t cubesBlocked = 0;    // clauses learned into the trapezoid
  std::uint64_t coreShrunkLits = 0;  // cube literals dropped via unsat cores
  std::uint64_t micDroppedLits = 0;  // further literals dropped by MIC passes
  std::uint64_t pushedClauses = 0;   // clauses propagated forward a frame
  std::uint64_t liftedLits = 0;      // literals dropped lifting model cubes
  /// Solver work per query kind, indexed by PdrQuery. Work done between
  /// queries (encoding the transition relation, adding clauses) is charged
  /// to the query that follows it, and any after the last query to that
  /// one. The kinds sum to the property's share of PdrResult::stats.solves
  /// and .propagations.
  std::array<PdrQueryWork, kPdrQueryKinds> work{};

  PdrQueryWork& at(PdrQuery q) { return work[static_cast<std::size_t>(q)]; }
  const PdrQueryWork& at(PdrQuery q) const {
    return work[static_cast<std::size_t>(q)];
  }
};

struct PdrPropertyResult {
  std::string name;
  bool provedUnbounded = false;
  bool violated = false;
  bool degraded = false;       // budget/cancel/frame-cap stop: bounded only
  unsigned frames = 0;         // PDR trapezoid height at exit
  unsigned clauses = 0;        // live trapezoid clauses at exit
  unsigned failDepth = 0;      // first violating cycle (valid when violated)
  unsigned depthReached = 0;   // deepest frame PDR cleared of bad states:
                               // no cycle up to it is bad (0: none cleared)
  unsigned coneDffs = 0;       // DFFs in the fail output's cone (see header)
  PdrTrace trace;              // non-empty when violated
  PdrEngineStats engine;
};

struct PdrResult {
  std::vector<PdrPropertyResult> properties;
  SolverStats stats; // summed over the properties' solvers

  /// Vacuously true with zero enabled properties (same contract as
  /// BmcResult::allHold / minDepthReached: never reads as a proof).
  bool allProved() const {
    if (properties.empty()) return false;
    for (const PdrPropertyResult& p : properties) {
      if (!p.provedUnbounded) return false;
    }
    return true;
  }
  bool anyViolated() const {
    for (const PdrPropertyResult& p : properties) {
      if (p.violated) return true;
    }
    return false;
  }
  bool anyDegraded() const {
    for (const PdrPropertyResult& p : properties) {
      if (p.degraded) return true;
    }
    return false;
  }
  /// Bounded clean depth over the non-proved properties; ~0u ("all
  /// time") when every enabled property is proved, 0 when none enabled.
  unsigned minDepthReached() const {
    if (properties.empty()) return 0;
    unsigned d = ~0u;
    for (const PdrPropertyResult& p : properties) {
      if (p.provedUnbounded) continue;
      d = p.depthReached < d ? p.depthReached : d;
    }
    return d;
  }
  unsigned totalFrames() const {
    unsigned f = 0;
    for (const PdrPropertyResult& p : properties) f += p.frames;
    return f;
  }
  unsigned totalClauses() const {
    unsigned c = 0;
    for (const PdrPropertyResult& p : properties) c += p.clauses;
    return c;
  }
};

/// Prove the protocol invariants on `nl` seen through `ports` for all
/// time (or find counterexample traces / degrade to a bound). The enabled
/// properties run through `opts.runner` when one is set; the result lists
/// them in the order token_conservation, occupancy_bound,
/// deadlock_watchdog either way.
PdrResult proveUnbounded(const netlist::Netlist& nl,
                         const sync::PortView& ports,
                         const PdrOptions& opts = {});

/// Generic single-property entry: prove output `badOutput` of `nl` can
/// never assert, with `forced` inputs pinned every cycle, on the cone of
/// `badOutput`. Used by the protocol driver above and directly
/// unit-testable on hand-built state machines. `statsOut` accumulates
/// the solver totals.
PdrPropertyResult provePropertyUnbounded(const netlist::Netlist& nl,
                                         netlist::NodeId badOutput,
                                         std::vector<ForcedInput> forced,
                                         const PdrOptions& opts,
                                         SolverStats& statsOut);

struct ReplayOptions {
  unsigned capacityBound = 8;
  unsigned watchdogWindow = 8;
};

struct ReplayResult {
  bool reproduced = false;     // property condition observed in replay
  unsigned violationCycle = 0; // first cycle the condition held
  std::string detail;          // human-readable account / mismatch
  bool oracleChecked = false;  // lockstep oracle comparison ran
  bool oracleAgrees = false;   // netlist and behavioural outputs matched
};

/// Replay `trace` on the design netlist with exact token accounting,
/// independent of the SAT monitor (property is the result's name:
/// "token_conservation" | "occupancy_bound" | "deadlock_watchdog"; any
/// other name throws std::invalid_argument before the replay). The
/// frames drive the channel ports through sync::Lockstep;
/// inputs outside `ports` are not driven. With `oracle`, the behavioural
/// network runs in lockstep and the netlist's stop/valid/data ports are
/// compared with it every cycle (the cosim oracle cross-validation).
ReplayResult replayTrace(const netlist::Netlist& nl,
                         const sync::PortView& ports,
                         const std::string& property, const PdrTrace& trace,
                         const ReplayOptions& opts,
                         sync::Oracle* oracle = nullptr);

} // namespace lis::sat
