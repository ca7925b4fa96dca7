#pragma once
// The protocol monitor both invariant engines instrument a design with.
//
// buildMonitor copies the design (node ids in the PortView stay valid in
// the copy) and adds, over its external channel ports: one handshake
// event per channel (accepted_i = inValid_i & !inStop_i, delivered_j =
// outValid_j & !outStop_j); the engine's own token counting over those
// events, which adds the token-conservation and occupancy fail outputs
// (horizon-sized counters for BMC, saturating offset pairs for PDR); and
// the deadlock watchdog, a stall counter cleared by any handshake whose
// fail output fires once `watchdogWindow` cycles pass without one. The
// watchdog is checked under the maximal-progress environment the monitor
// lists (every inValid held at 1, every outStop at 0), which would weaken
// the other two properties, so only the watchdog's unrolling forces it.

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "lis/oracle.hpp"
#include "netlist/netlist.hpp"
#include "sat/cnf.hpp"

namespace lis::sat {

/// The instrumented netlist: the design plus the monitor's three fail
/// outputs and the watchdog's environment.
struct Monitor {
  netlist::Netlist nl;
  netlist::NodeId tokenOut = netlist::kNoNode;
  netlist::NodeId occOut = netlist::kNoNode;
  netlist::NodeId wdOut = netlist::kNoNode;
  std::vector<ForcedInput> maximalEnv; // inValid := 1, outStop := 0
};

/// An engine's token counting: builds the token-conservation and
/// occupancy fail flags over the accepted and delivered events in `m` and
/// returns the two outputs it added, in that order.
using TokenCounting =
    std::function<std::pair<netlist::NodeId, netlist::NodeId>(
        netlist::Netlist& m, const std::vector<netlist::NodeId>& accepted,
        const std::vector<netlist::NodeId>& delivered)>;

/// Instrument `design` seen through `ports`: the handshake events, then
/// `counting`'s fail outputs, then the watchdog over `watchdogWindow`
/// (at least 1) stalled cycles, in that node order.
Monitor buildMonitor(const netlist::Netlist& design,
                     const sync::PortView& ports, unsigned watchdogWindow,
                     const TokenCounting& counting);

/// a + c over an LSB-first bus, constant c; one bit wider than `a` (the
/// carry out last).
std::vector<netlist::NodeId> addConst(netlist::Netlist& m,
                                      std::span<const netlist::NodeId> a,
                                      std::uint64_t c);

/// a == c over an LSB-first bus, constant c.
netlist::NodeId eqConst(netlist::Netlist& m,
                        std::span<const netlist::NodeId> a, std::uint64_t c);

} // namespace lis::sat
