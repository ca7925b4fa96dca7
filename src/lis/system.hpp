#pragma once
// System-topology specification and elaboration: whole networks of IP
// pearls connected by latency-insensitive channels with relay-station
// chains — the paper's actual subject. The paper's synchronization wrapper
// (one shell plus a relay station on every output channel) is the
// one-pearl system, wrapperSpec(cfg), and elaborates here like any other.
//
// A SystemSpec is a graph: pearls (each wrapped in a shell of the standard
// shape, with the deterministic accumulator pearl stub) and channels. A
// channel connects a pearl output port (or an external source) to a pearl
// input port (or an external sink) through a chain of `relays` relay
// stations — the explicit d-cycle channel latency of the LIS literature.
// Channels on feedback loops can carry `initialTokens` seed tokens (one per
// station, zero-valued), which is what makes back-pressure rings live.
//
// buildSystem elaborates the whole spec into ONE composed netlist, in one
// serial pass: every FSM's registers and Moore logic first, then each
// shell's transition logic and datapath, then each relay chain's, then the
// ports. All cross-module stall/valid signals are Moore except the shell
// fire strobe, so elaboration only needs a topological order of the pearls
// over relay-free channels; validate() rejects relay-free cycles (they
// would be combinational fire loops in hardware too).
//
// Channel protocol at the boundary (LIS valid/stop, all stop outputs Moore):
//   in<k>_valid, in<k>_data_*    token offered on external input k
//   in<k>_stop                   output: the first relay station (or
//                                shell buffer) of input k is full,
//                                upstream must hold
//   out<k>_valid, out<k>_data_*  token emitted on external output k
//   out<k>_stop                  downstream stall into the system
//
// The embedded pearl stub is deterministic and stateful so co-simulation
// checks clock gating for real: it sums its per-channel operands into an
// accumulator enabled by `fire`, and output channel j carries sum ^ j.

#include <cstdint>
#include <string>
#include <vector>

#include "lis/synth.hpp"
#include "netlist/buses.hpp"
#include "netlist/netlist.hpp"

namespace lis::sync {

/// The paper's synchronization wrapper: one shell of numInputs x
/// numOutputs channels and a relay station of relayDepth on every output.
/// wrapperSpec(cfg) is its one-pearl system.
struct WrapperConfig {
  unsigned numInputs = 1;
  unsigned numOutputs = 1;
  unsigned dataWidth = 8;
  unsigned relayDepth = 2; // capacity of each output relay station
  Encoding encoding = Encoding::Binary;
};

/// One IP pearl and the shape of its synchronization shell.
struct PearlSpec {
  std::string name;        // unique; used as the netlist name prefix
  unsigned numInputs = 1;  // 1..4 (shellFsm bound)
  unsigned numOutputs = 1; // 1..8
};

/// One latency-insensitive channel. Endpoint pearl index kExternal means
/// the channel crosses the system boundary (an external source or sink).
struct ChannelSpec {
  static constexpr int kExternal = -1;

  int fromPearl = kExternal;
  unsigned fromPort = 0;
  int toPearl = kExternal;
  unsigned toPort = 0;

  unsigned relays = 1;        // chain length d (0 = direct connection)
  unsigned relayDepth = 2;    // capacity of each station (2 = full rate)
  unsigned initialTokens = 0; // stations pre-loaded with a zero token
};

struct SystemSpec {
  std::string name = "system";
  unsigned dataWidth = 8;
  Encoding encoding = Encoding::Binary;
  std::vector<PearlSpec> pearls;
  std::vector<ChannelSpec> channels;

  /// Structural well-formedness: dataWidth in 1..64, every pearl's
  /// numInputs in 1..4 and numOutputs in 1..8, endpoint/port indices in
  /// range, every pearl port connected to exactly one channel, relayDepth
  /// in 1..8 on a channel with relays, initialTokens <= relays,
  /// no cycle of relay-free channels, and every pearl's output-channel
  /// tags representable in dataWidth bits (output j carries data ^ j; a
  /// too-narrow bus would silently alias the tags on both the gate and
  /// behavioural side — rejected here, with the pearl named, instead of
  /// elaborating an unsound netlist). Throws std::invalid_argument with
  /// the offending pearl/channel and field named.
  void validate() const;

  /// Channel indices crossing the boundary, in spec order. External input
  /// channel k owns ports in<k>_*; external output channel k owns out<k>_*.
  std::vector<std::size_t> externalInputs() const;
  std::vector<std::size_t> externalOutputs() const;
};

/// Port nodes of a built system, indexed by external-channel order (see
/// SystemSpec::externalInputs/externalOutputs). inValid/inData/outStop are
/// Input nodes (drive them); inStop/outValid/outData are Output nodes (read
/// them). Data buses are LSB first.
struct SystemPorts {
  std::vector<netlist::NodeId> inValid;
  std::vector<netlist::Bus> inData;
  std::vector<netlist::NodeId> inStop;
  std::vector<netlist::NodeId> outValid;
  std::vector<netlist::Bus> outData;
  std::vector<netlist::NodeId> outStop;
};

/// Kept for flowbench, which names a wrapper design's ports this way.
using WrapperPorts = SystemPorts;

struct System {
  netlist::Netlist netlist;
  SystemPorts ports;
  FsmSynthStats control;       // aggregated over all shells and relays
  std::size_t relayStations = 0;
};

/// Kahn topological order of the pearls over relay-free pearl-to-pearl
/// channels: the only edges along which one shell's outputs depend on
/// another's in the same cycle (everything else crosses a Moore relay
/// output). Throws std::invalid_argument on a relay-free cycle. Expects
/// the endpoints in range (validate() checks them first).
std::vector<unsigned> pearlTopoOrder(const SystemSpec& spec);

/// Elaborate the whole topology into one netlist, in one serial pass.
System buildSystem(const SystemSpec& spec);

// --- canonical topologies (the bench and test scenarios) -----------------

/// The synchronization wrapper as a one-pearl system named
/// "wrapper_n<i>m<o>d<d>": cfg.numInputs relay-free external inputs into
/// pearl "pearl", and one relay station of cfg.relayDepth on each of its
/// cfg.numOutputs external outputs. Builds whatever cfg says; validate()
/// (and so buildSystem and the oracle) rejects a bad field by name.
SystemSpec wrapperSpec(const WrapperConfig& cfg);

/// numPearls 1-in/1-out pearls in a row, `relaysPerChannel` stations on
/// every channel (including the external ones).
SystemSpec chainSpec(unsigned numPearls, unsigned relaysPerChannel,
                     Encoding enc, unsigned dataWidth = 8);

/// 1→2 fork: one 1-in/2-out pearl feeding two 1-in/1-out pearls, all
/// channels one relay station.
SystemSpec forkSpec(Encoding enc, unsigned dataWidth = 8);

/// 2→1 join: two 1-in/1-out pearls feeding one 2-in/1-out pearl.
SystemSpec joinSpec(Encoding enc, unsigned dataWidth = 8);

/// Cyclic back-pressure ring: a 2-in/2-out pearl whose second output loops
/// through a 1-in/1-out pearl back to its second input. Both loop channels
/// carry one relay station and the feedback one holds one seed token, so
/// the ring is live with a loop latency of two cycles.
SystemSpec ringSpec(Encoding enc, unsigned dataWidth = 8);

// --- parameterized sweep topologies (mesh-scale benchmarking) ------------

/// Linear pipeline of `numPearls` 1-in/1-out pearls with
/// `relaysPerChannel` stations on every channel — chainSpec under the
/// sweep's naming scheme ("pipe<n>_d<d>"), the knob for depth scaling.
SystemSpec pipelineSpec(unsigned numPearls, unsigned relaysPerChannel,
                        Encoding enc, unsigned dataWidth = 8);

/// rows x cols feed-forward mesh of 2-in/2-out pearls ("r<r>c<c>"): every
/// pearl takes tokens from the west and north and emits east and south,
/// with `relaysPerChannel` stations on every channel; the west/north edges
/// of the grid are external sources and the east/south edges external
/// sinks. The knob for width x depth scaling — rows*cols pearls,
/// rows*(cols+1) + cols*(rows+1) channels. Throws std::invalid_argument
/// (precise, before any elaboration) for zero dimensions or a spec whose
/// counts would trip the netlist bus-width guards.
SystemSpec meshSpec(unsigned rows, unsigned cols, unsigned relaysPerChannel,
                    Encoding enc, unsigned dataWidth = 8);

} // namespace lis::sync
