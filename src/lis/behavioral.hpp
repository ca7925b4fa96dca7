#pragma once
// Behavioural reference models for the wrapper flow, as modules of the
// two-phase cycle simulator: a pearl stub, the shell, and the relay
// station. These are the oracles the synthesized netlists are co-simulated
// against; they implement the same token semantics in plain C++ (buffers as
// member state, clock gating as guarded clockEdge updates).
//
// Modules do not own their ports: all wires are created by the caller and
// passed in as pointers/references, so a shell's output-valid wire can
// simply *be* the downstream relay station's input-valid wire.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/module.hpp"
#include "sim/wire.hpp"

namespace lis::sync {

/// Value mask for a channel of the given width. Shared by the behavioural
/// models and the co-simulation driver so the two can never diverge.
inline std::uint64_t widthMask(unsigned dataWidth) {
  if (dataWidth == 0 || dataWidth > 64) {
    throw std::invalid_argument("widthMask: dataWidth must be in 1..64");
  }
  return dataWidth == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << dataWidth) - 1;
}

/// Pearl stub: combinational sum of its operands plus a registered
/// accumulator, clock-enabled by `fire`. out = (acc + sum(in)) mod 2^w;
/// on fire, acc <= out.
class PearlModel : public sim::Module {
public:
  PearlModel(std::string name, unsigned dataWidth, sim::Wire<bool>& fire,
             std::vector<sim::Wire<std::uint64_t>*> dataIn,
             sim::Wire<std::uint64_t>& dataOut);

  void evaluate() override;
  void clockEdge() override;
  void reset() override;

  std::uint64_t accumulator() const { return acc_; }

private:
  std::uint64_t mask_;
  sim::Wire<bool>* fire_;
  std::vector<sim::Wire<std::uint64_t>*> in_;
  sim::Wire<std::uint64_t>* out_;
  std::uint64_t acc_ = 0;
};

/// Shell synchronization behaviour: one-place buffer per input channel,
/// fire when every channel has a token and no output is stalled. Drives
/// the pearl's operand/fire wires and tags the pearl result with the
/// output-channel index (data_j = pearlOut ^ j), mirroring the netlist.
class ShellModel : public sim::Module {
public:
  struct Io {
    std::vector<sim::Wire<bool>*> inValid;          // read
    std::vector<sim::Wire<std::uint64_t>*> inData;  // read
    std::vector<sim::Wire<bool>*> inStop;           // written (Moore)
    std::vector<sim::Wire<bool>*> outValid;         // written
    std::vector<sim::Wire<std::uint64_t>*> outData; // written
    std::vector<sim::Wire<bool>*> outStop;          // read
    sim::Wire<bool>* pearlFire = nullptr;           // written
    std::vector<sim::Wire<std::uint64_t>*> pearlIn; // written
    sim::Wire<std::uint64_t>* pearlOut = nullptr;   // read
  };

  ShellModel(std::string name, unsigned dataWidth, Io io);

  void evaluate() override;
  void clockEdge() override;
  void reset() override;

  std::uint64_t fires() const { return fires_; }

private:
  bool fireNow() const;

  unsigned numIn_;
  unsigned numOut_;
  std::uint64_t mask_;
  Io io_;
  std::vector<std::uint64_t> bufData_;
  std::vector<bool> bufValid_;
  std::uint64_t fires_ = 0;
};

/// Relay station of the given capacity: a FIFO with Moore valid/stop.
/// `initialTokens` slots start occupied with zero-valued tokens after
/// reset — the seed tokens that make cyclic (back-pressure ring) systems
/// live. Mirrors a synthesized relay whose FSM resets to occupancy
/// `initialTokens` with cleared data slots.
class RelayStationModel : public sim::Module {
public:
  RelayStationModel(std::string name, unsigned depth,
                    sim::Wire<bool>& inValid,
                    sim::Wire<std::uint64_t>& inData,
                    sim::Wire<bool>& inStop,   // written (Moore)
                    sim::Wire<bool>& outValid, // written (Moore)
                    sim::Wire<std::uint64_t>& outData, // written
                    sim::Wire<bool>& outStop,  // read
                    unsigned initialTokens = 0);

  void evaluate() override;
  void clockEdge() override;
  void reset() override;

  std::size_t occupancy() const { return count_; }

private:
  unsigned depth_;
  unsigned initialTokens_;
  sim::Wire<bool>* inValid_;
  sim::Wire<std::uint64_t>* inData_;
  sim::Wire<bool>* inStop_;
  sim::Wire<bool>* outValid_;
  sim::Wire<std::uint64_t>* outData_;
  sim::Wire<bool>* outStop_;
  // FIFO as a fixed ring of `depth` slots: clockEdge pushes only below
  // capacity, so it never needs to grow.
  std::vector<std::uint64_t> ring_;
  std::size_t head_ = 0;  // oldest token
  std::size_t count_ = 0; // tokens held
};

} // namespace lis::sync
