#pragma once
// BusBuilder: word-level construction helpers over the bit-level netlist.
// Buses are vectors of NodeId, LSB first. These are the building blocks the
// FSM synthesizer, the shell and relay-station datapaths and the netlist
// generators use: ports, registers with enables, muxes, constant
// comparators and ripple-carry arithmetic.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace lis::netlist {

using Bus = std::vector<NodeId>;

class BusBuilder {
public:
  explicit BusBuilder(Netlist& nl) : nl_(&nl) {}

  Netlist& netlist() { return *nl_; }

  /// Constant bus of the given width.
  Bus constant(std::uint64_t value, unsigned width);

  /// Named input/output port buses (name_0, name_1, ...). outputBus returns
  /// the created Output nodes so callers can read the bus back out of a
  /// simulation.
  Bus inputBus(const std::string& name, unsigned width);
  Bus outputBus(const std::string& name, std::span<const NodeId> bus);

  /// A bank of DFFs sharing an enable; data inputs are wired later with
  /// connectRegister (sequential loops need the Q values first).
  Bus registerBus(unsigned width, std::uint64_t resetValue,
                  const std::string& name);
  void connectRegister(std::span<const NodeId> regs,
                       std::span<const NodeId> data, NodeId enable = kNoNode);

  // Element-wise logic.
  Bus xorBus(std::span<const NodeId> a, std::span<const NodeId> b);
  Bus mux(NodeId sel, std::span<const NodeId> a0, std::span<const NodeId> a1);

  /// 1 exactly when bus `a` holds `value`.
  NodeId eqConst(std::span<const NodeId> a, std::uint64_t value);

  // Arithmetic (ripple-carry; the control counters here are narrow).
  Bus adder(std::span<const NodeId> a, std::span<const NodeId> b,
            NodeId carryIn = kNoNode);
  Bus incrementer(std::span<const NodeId> a);

  /// Number of bits needed to count 0..maxValue.
  static unsigned bitsFor(std::uint64_t maxValue);

private:
  Netlist* nl_;
};

} // namespace lis::netlist
