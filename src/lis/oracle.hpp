#pragma once
// sync::Oracle — the behavioural reference network of a SystemSpec
// topology (a wrapper is the one-pearl system wrapperSpec(cfg)), so that
// co-simulation, the fault-injection campaigns (src/fault/) and
// counterexample replay (src/sat/pdr) share one oracle with one port
// addressing scheme. It is compiled from the spec, never from
// the netlist, so a levelization error on either side shows up as a cosim
// mismatch.
//
// The spec is compiled once into plain arrays:
//   stages  a channel with d relay stations has d+1 stages (stage 0 at the
//           source, stage d at the sink), each with one valid, one data and
//           one stop slot; a relay-free channel is one stage shared by both
//           ends
//   shells  per input a one-place buffer, per pearl the accumulator stub:
//           result = (acc + operands) mod 2^w, output j carries result ^ j,
//           and acc <= result when the shell fires
//   relays  a ring of relayDepth slots; a seeded station resets holding one
//           zero token
//
// Every stop, and every relay station's valid and data, is a Moore output:
// reset() and step() recompute them from state, so inStop() is readable
// right after either. The one combinational path between models is a
// shell's fire strobe across a relay-free channel, and SystemSpec::validate
// rejects relay-free cycles, so settle() evaluates each shell exactly once,
// in pearlTopoOrder.
//
// The external interface is uniform: input channel i has a Moore stop
// readable via inStop(i) and is driven with driveInput(i, valid, data);
// output channel j is stalled with driveOutStop(j) and observed via
// outValid/outData after settle(); step() latches what the last settle()
// computed. That per-cycle discipline — read stops → drive → settle() →
// compare → step() — belongs to sync::Lockstep (lis/lockstep.hpp), the only
// caller of the drive methods.
//
// PortView is the matching channel-indexed view of the *netlist* side
// (portView(SystemPorts)); Lockstep indexes channels the same way on both.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "lis/system.hpp"

namespace lis::sync {

/// Value mask for a channel of the given width. Shared by the oracle and
/// the traffic drivers so the two can never diverge.
inline std::uint64_t widthMask(unsigned dataWidth) {
  if (dataWidth == 0 || dataWidth > 64) {
    throw std::invalid_argument("widthMask: dataWidth must be in 1..64");
  }
  return dataWidth == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << dataWidth) - 1;
}

/// Channel-indexed view of a netlist's LIS ports (SystemPorts, or a
/// hand-built circuit's).
struct PortView {
  std::vector<netlist::NodeId> inValid;
  std::vector<netlist::Bus> inData;
  std::vector<netlist::NodeId> inStop;
  std::vector<netlist::NodeId> outValid;
  std::vector<netlist::Bus> outData;
  std::vector<netlist::NodeId> outStop;
};

PortView portView(const SystemPorts& p);

class Oracle {
public:
  /// The network of a SystemSpec topology. Throws std::invalid_argument
  /// for a spec SystemSpec::validate rejects.
  explicit Oracle(const SystemSpec& spec);

  std::size_t numInputs() const { return extIn_.size(); }
  std::size_t numOutputs() const { return extOut_.size(); }
  unsigned dataWidth() const { return dataWidth_; }

  void reset();
  void settle();
  void step();

  bool inStop(std::size_t i) const { return stop_[extIn_[i]] != 0; }
  void driveInput(std::size_t i, bool valid, std::uint64_t data) {
    valid_[extIn_[i]] = valid ? 1 : 0;
    data_[extIn_[i]] = data;
  }
  void driveOutStop(std::size_t j, bool stall) {
    stop_[extOut_[j]] = stall ? 1 : 0;
  }
  bool outValid(std::size_t j) const { return valid_[extOut_[j]] != 0; }
  std::uint64_t outData(std::size_t j) const { return data_[extOut_[j]]; }

  /// Pearl activations, summed over every shell.
  std::uint64_t fires() const { return fires_; }

private:
  struct Shell {
    std::size_t in, numIn;   // its slots in inStage_/bufValid_/bufData_
    std::size_t out, numOut; // its slots in outStage_
    std::uint64_t acc = 0;    // pearl accumulator
    std::uint64_t result = 0; // settled (acc + operands) & mask
    bool fire = false;        // settled fire strobe
  };
  struct Relay {
    std::size_t stage; // input stage; the output stage is stage + 1
    std::size_t ring;  // first of its depth slots in ring_
    unsigned depth;
    unsigned initialTokens;
    unsigned head = 0;  // oldest token
    unsigned count = 0; // tokens held
  };

  void mooreOutputs();

  unsigned dataWidth_ = 0;
  std::uint64_t mask_ = 0;
  // One slot per channel stage.
  std::vector<char> valid_;
  std::vector<std::uint64_t> data_;
  std::vector<char> stop_;
  std::vector<Shell> shells_; // in pearlTopoOrder
  // Per shell input: its channel's sink stage and the one-place buffer.
  std::vector<std::size_t> inStage_;
  std::vector<char> bufValid_;
  std::vector<std::uint64_t> bufData_;
  // Per shell output: its channel's source stage.
  std::vector<std::size_t> outStage_;
  std::vector<Relay> relays_;
  std::vector<std::uint64_t> ring_;
  // Per external channel: the stage its port reads and drives.
  std::vector<std::size_t> extIn_;
  std::vector<std::size_t> extOut_;
  std::uint64_t fires_ = 0;
};

} // namespace lis::sync
