#pragma once
// Gate-level synchronization-wrapper construction: shells, relay stations,
// and the composed wrapper (shell + one relay station per output channel),
// all emitted as plain netlists through the FSM synthesizer and BusBuilder.
//
// Channel protocol (LIS valid/stop, all stop outputs Moore):
//   in<i>_valid, in<i>_data_*  token offered to input channel i
//   in<i>_stop                 wrapper output: channel i's one-place buffer
//                              is full, upstream must hold
//   out<j>_valid, out<j>_data_*  token emitted on output channel j
//   out<j>_stop                downstream stall into the wrapper
//
// The embedded pearl stub is deterministic and stateful so co-simulation
// checks clock gating for real: it sums its per-channel operands into an
// accumulator enabled by `fire`, and output channel j carries sum ^ j.

#include <cstdint>
#include <string_view>
#include <vector>

#include "lis/synth.hpp"
#include "netlist/buses.hpp"
#include "netlist/netlist.hpp"

namespace lis::sync {

struct WrapperConfig {
  unsigned numInputs = 1;
  unsigned numOutputs = 1;
  unsigned dataWidth = 8;
  unsigned relayDepth = 2; // capacity of each output relay station
  Encoding encoding = Encoding::Binary;
};

/// Port nodes of a built wrapper. inValid/inData/outStop are Input nodes
/// (drive them); inStop/outValid/outData are Output nodes (read them).
/// Data buses are LSB first.
struct WrapperPorts {
  std::vector<netlist::NodeId> inValid;
  std::vector<netlist::Bus> inData;
  std::vector<netlist::NodeId> inStop;
  std::vector<netlist::NodeId> outValid;
  std::vector<netlist::Bus> outData;
  std::vector<netlist::NodeId> outStop;
};

struct Wrapper {
  netlist::Netlist netlist;
  WrapperPorts ports;
  FsmSynthStats control; // aggregated FSM minimization stats
};

/// Validate a WrapperConfig: numInputs in 1..4, numOutputs in 1..8,
/// dataWidth in 1..64, output tags that fit the bus (checkOutputTags), and
/// (when `needsRelay`) relayDepth in 1..8. Throws std::invalid_argument
/// naming the offending field and value. All builders call this; it is
/// exposed so spec-level callers (flow passes) can reject a bad config
/// before synthesis starts.
void checkWrapperConfig(const WrapperConfig& cfg, bool needsRelay);

/// Output channel j of a shell carries its pearl's result ^ j, truncated
/// to the data bus by both the gate-level datapath and the oracle, so a
/// bus narrower than the tags would alias outputs without any oracle
/// noticing. Throws std::invalid_argument, its message prefixed by
/// `owner` and `name`, when the tag numOutputs - 1 does not fit dataWidth
/// bits. The one rule for wrappers and SystemSpec pearls alike.
void checkOutputTags(unsigned numOutputs, unsigned dataWidth,
                     std::string_view owner, std::string_view name = {});

/// Shell alone: control FSM, input buffers, pearl stub. Output channels are
/// driven combinationally (valid = fire).
Wrapper buildShell(const WrapperConfig& cfg);

/// Stand-alone relay station of the given capacity, as a 1-in/1-out channel
/// (ports in_valid/in_data_*/in_stop and out_valid/out_data_*/out_stop).
Wrapper buildRelayStation(unsigned dataWidth, unsigned depth, Encoding enc);

/// The full synchronization wrapper: shell plus a relay station of
/// cfg.relayDepth on every output channel, composed in one netlist.
Wrapper buildWrapper(const WrapperConfig& cfg);

} // namespace lis::sync
