#pragma once
// Fault models on sequential LIS netlists, the robustness counterpart of
// co-simulation: where cosim asks "does the synthesized design match the
// behavioural oracle?", fault injection asks "when the design misbehaves,
// does the protocol *tell* us?".
//
// Models:
//   StuckAt0/StuckAt1  a gate or register output pinned to a constant
//                      (BitSim force instrumentation), optionally bounded
//   SeuFlip            transient single-event upset: one DFF state bit is
//                      inverted at one cycle, then evolves normally
//   ChannelStall       a forced stall burst on an external output channel
//                      — an environment fault probing latency-insensitivity
//   ChannelGlitch      a one-cycle spurious valid pulse with corrupted
//                      payload on an external input of the faulted design
//
// Experiments run in batches on the one per-cycle LIS traffic loop,
// sync::Lockstep (lis/lockstep.hpp), the classic parallel fault
// simulation recipe: each BitSim lane carries one faulty machine. In a
// batch of n, lane l (l < n) is experiment l's faulted netlist, compared
// with its own behavioural oracle under its own sync::RandomTraffic; lane
// n+l is its fault-free golden twin, driven alike in the same word. The
// experiment adds only the fault itself, on its own lane (lane-masked
// force or poke before the stops are read, the stall-burst override of
// its stimulus, the glitch on the faulted lane after driving), and the
// checkers. An experiment that concludes drops out of the Lockstep (its
// oracle stops stepping); the batch ends when all have concluded or at
// the horizon. injectOne is a batch of one, so there is one engine.
// Invariant checkers (output agreement with the oracle, token
// conservation, a deadlock watchdog over the recorded handshakes)
// classify each run:
//   Detected          an observable protocol output diverged from the
//                     oracle, or an invariant tripped
//   Recovered         horizon reached, outputs always agreed, and the
//                     faulted register state re-converged with the twin —
//                     post-recovery data integrity holds by construction
//                     (the oracle comparison never stopped)
//   SilentCorruption  outputs always agreed but latent state still differs
//                     from the twin at the horizon
//   Hang              no gate-side handshake for a full watchdog window
//                     while an offer was held (with a lockstep oracle most
//                     liveness failures surface as Detected divergence
//                     first; the watchdog is the total-standstill backstop)

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lis/oracle.hpp"
#include "netlist/netlist.hpp"
#include "support/cancellation.hpp"

namespace lis::fault {

enum class FaultKind : std::uint8_t {
  StuckAt0,
  StuckAt1,
  SeuFlip,
  ChannelStall,
  ChannelGlitch,
};
const char* faultKindName(FaultKind k);

struct FaultSite {
  FaultKind kind = FaultKind::SeuFlip;
  netlist::NodeId node = 0;   // StuckAt* / SeuFlip target
  std::size_t channel = 0;    // ChannelStall: ext output; Glitch: ext input
  std::uint64_t cycle = 0;    // injection cycle
  std::uint64_t duration = 1; // StuckAt*/ChannelStall span; 0 = to horizon
  bool controlTarget = false; // drawn from the control-register pool
  std::string label;
};

enum class Outcome : std::uint8_t {
  Detected,
  Recovered,
  SilentCorruption,
  Hang,
};
const char* outcomeName(Outcome o);

struct FaultResult {
  FaultSite site;
  Outcome outcome = Outcome::SilentCorruption;
  std::uint64_t atCycle = 0; // detection/hang cycle; horizon otherwise
  std::string detail;
};

/// What a fault experiment runs against: the synthesized netlist with its
/// channel ports, and the spec it was built from, which builds the
/// behavioural oracle. The netlist must outlive the Target (flow::Design
/// guarantees this for the campaign pass).
struct Target {
  const netlist::Netlist* netlist = nullptr;
  sync::PortView ports;
  sync::SystemSpec spec;
};

Target targetOf(const sync::System& s, const sync::SystemSpec& spec);
/// targetOf(s, sync::wrapperSpec(cfg)). Kept for flowbench; the library
/// itself builds every target from a SystemSpec.
Target targetOf(const sync::System& s, const sync::WrapperConfig& cfg);

/// DFFs holding FSM state: registerBus names state bits "<prefix>_s_<i>"
/// (shell and relay-station controllers both synthesize through it), so
/// control registers are exactly the DFFs matching that suffix pattern.
std::vector<netlist::NodeId> controlRegisters(const netlist::Netlist& nl);
/// Every other DFF: datapath buffers, accumulators, relay data slots.
std::vector<netlist::NodeId> dataRegisters(const netlist::Netlist& nl);
/// Combinational gate outputs (And/Or/Xor/Not/Mux) — stuck-at targets.
std::vector<netlist::NodeId> gateNodes(const netlist::Netlist& nl);

struct InjectionOptions {
  std::uint64_t cycles = 400; // horizon per experiment
  std::uint64_t seed = 0xFA517;
  unsigned offerPercent = 70;
  unsigned stallPercent = 30;
  /// Hang window: cycles without any gate-side handshake (accept or
  /// delivery) after injection, while a source held a pending offer.
  std::uint64_t watchdogCycles = 64;
};

/// Run one seeded fault experiment and classify it (see header comment):
/// a batch of one with traffic seed opts.seed. Throws
/// std::invalid_argument, naming the field, for a site that cannot fire:
/// a node fault on a node outside the netlist, an SeuFlip on a non-DFF (a
/// poke on a gate is overwritten by the next settle), a
/// ChannelStall/ChannelGlitch channel outside the output/input channels,
/// or an injection cycle at or beyond opts.cycles.
FaultResult injectOne(const Target& target, const FaultSite& site,
                      const InjectionOptions& opts);

/// Run sites.size() experiments side by side in one Lockstep pass:
/// experiment i injects sites[i] under traffic seed seeds[i] (opts.seed is
/// not read), and its result equals injectOne's for that site and seed.
/// `cancel` is polled every 128 cycles; a tripped token ends the batch
/// with no results. Throws as injectOne does, and std::invalid_argument
/// for a seed count that differs from the site count or for a batch
/// outside 1..32 sites (each takes two of the word's 64 gate lanes).
std::vector<FaultResult> injectBatch(
    const Target& target, std::span<const FaultSite> sites,
    std::span<const std::uint64_t> seeds, const InjectionOptions& opts,
    const support::CancellationToken* cancel = nullptr);

} // namespace lis::fault
