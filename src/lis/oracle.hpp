#pragma once
// sync::Oracle — the behavioural reference fleet (shell/pearl/relay-station
// models over one Simulator) that mirrors a wrapper or a whole SystemSpec
// topology, so that co-simulation, the fault-injection campaigns
// (src/fault/) and counterexample replay (src/sat/pdr) share one oracle
// with one port addressing scheme.
//
// The external interface is uniform: input channel i has a Moore stop
// output readable via inStop(i) and is driven with driveInput(i, valid,
// data); output channel j is stalled with driveOutStop(j) and observed via
// outValid/outData. The per-cycle discipline — settle() → read stops →
// drive → settle() → compare → step() — belongs to sync::Lockstep
// (lis/lockstep.hpp), the only caller of the drive methods.
//
// PortView is the matching uniform view of the *netlist* side:
// WrapperPorts and SystemPorts are structurally identical, and Lockstep
// indexes channels the same way on both.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "lis/system.hpp"
#include "lis/wrapper.hpp"

namespace lis::sim {
class Simulator;
}

namespace lis::sync {

/// Uniform channel-indexed view of WrapperPorts/SystemPorts.
struct PortView {
  std::vector<netlist::NodeId> inValid;
  std::vector<netlist::Bus> inData;
  std::vector<netlist::NodeId> inStop;
  std::vector<netlist::NodeId> outValid;
  std::vector<netlist::Bus> outData;
  std::vector<netlist::NodeId> outStop;
};

PortView portView(const WrapperPorts& p);
PortView portView(const SystemPorts& p);

class Oracle {
public:
  /// Fleet for the single buildWrapper composition (shell + one relay
  /// station per output channel).
  explicit Oracle(const WrapperConfig& cfg);
  /// Fleet mirroring a SystemSpec topology (one ShellModel + PearlModel
  /// per pearl, one RelayStationModel per relay station).
  explicit Oracle(const SystemSpec& spec);
  ~Oracle();

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  std::size_t numInputs() const;
  std::size_t numOutputs() const;
  unsigned dataWidth() const;

  void reset();
  void settle();
  void step();

  bool inStop(std::size_t i) const;
  void driveInput(std::size_t i, bool valid, std::uint64_t data);
  void driveOutStop(std::size_t j, bool stall);
  bool outValid(std::size_t j) const;
  std::uint64_t outData(std::size_t j) const;

  /// Pearl activations, summed over every shell in the fleet.
  std::uint64_t fires() const;

  /// The underlying simulator — exposed for VCD attachment.
  sim::Simulator& simulator();

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

} // namespace lis::sync
