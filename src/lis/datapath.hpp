#pragma once
// Datapath construction helpers of the system elaborator (system.cpp):
// the shell's input buffers + pearl stub, and the relay station's
// shift-FIFO slots.
//
// Relay slots are split into a create phase (registers only, so the head
// bus exists before the relay FSM is elaborated — system composition needs
// the head as a downstream shell's operand) and a connect phase (muxes and
// enables, once the FSM's pop/we Mealy outputs exist).

#include <string>
#include <vector>

#include "lis/synth.hpp"
#include "netlist/buses.hpp"
#include "netlist/netlist.hpp"

namespace lis::sync {

/// Input buffers + pearl stub for a shell with `numInputs` channels.
/// Returns the pearl result bus (`base`): sum of the selected per-channel
/// operands plus the clock-gated accumulator. Register names are prefixed
/// so several shells can share one netlist. `ctl` must be elaborated.
netlist::Bus shellDatapath(netlist::BusBuilder& bb, unsigned numInputs,
                           unsigned dataWidth, const FsmInstance& ctl,
                           const std::vector<netlist::Bus>& inData,
                           const std::string& prefix);

/// Phase 1 of a relay station's data slots: the registers alone. The head
/// of the FIFO is slots[0]; callers may feed it onward before the slots are
/// connected.
std::vector<netlist::Bus> makeRelaySlots(netlist::BusBuilder& bb,
                                         unsigned width, unsigned depth,
                                         const std::string& prefix);

/// Phase 2: wire the shift-FIFO behaviour. The FSM's pop output shifts
/// toward the head, we<k> writes the incoming token into slot k; slots are
/// clock-gated when neither applies. `rs` must be elaborated.
void connectRelaySlots(netlist::BusBuilder& bb,
                       const std::vector<netlist::Bus>& slots,
                       const FsmInstance& rs, const netlist::Bus& din);

} // namespace lis::sync
