#pragma once
// NetlistSim: cycle-accurate scalar simulator for the gate-level IR — one
// input pattern at a time, for directed tests and counterexample checks.
// (The LIS traffic loop, sync::Lockstep, drives BitSim lanes directly.)
//
// Since the 64-way engine landed, this is a thin single-pattern view over
// lane 0 of a one-word BitSim: same semantics as the historical scalar
// evaluator, one implementation to maintain.

#include <cstdint>
#include <span>
#include <string>

#include "netlist/bitsim.hpp"
#include "netlist/netlist.hpp"

namespace lis::netlist {

class NetlistSim {
public:
  explicit NetlistSim(const Netlist& nl) : bits_(nl, 1) {}

  /// Load DFF reset values and settle.
  void reset() { bits_.reset(); }

  void setInput(NodeId input, bool value) { bits_.setInputAll(input, value); }
  /// Throws std::invalid_argument for buses wider than 64 bits.
  void setInputBus(std::span<const NodeId> bus, std::uint64_t value);

  /// Re-evaluate combinational logic (topological order, single pass).
  void settle() { bits_.settle(); }

  /// Latch all DFFs from the settled values, then settle again.
  void clock() { bits_.clock(); }

  bool value(NodeId node) const { return bits_.lane(node, 0); }
  /// Throws std::invalid_argument for buses wider than 64 bits.
  std::uint64_t busValue(std::span<const NodeId> bus) const {
    return bits_.busValue(bus, 0);
  }

  /// Value of the named output; throws if absent.
  bool outputValue(const std::string& name) const;

private:
  BitSim bits_;
};

} // namespace lis::netlist
