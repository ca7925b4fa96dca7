#include "lis/datapath.hpp"

namespace lis::sync {

using netlist::Bus;
using netlist::BusBuilder;
using netlist::NodeId;

Bus shellDatapath(BusBuilder& bb, unsigned numInputs, unsigned dataWidth,
                  const FsmInstance& ctl, const std::vector<Bus>& inData,
                  const std::string& prefix) {
  Bus sum;
  for (unsigned i = 0; i < numInputs; ++i) {
    Bus buf = bb.registerBus(dataWidth, 0, prefix + "buf" + std::to_string(i));
    bb.connectRegister(buf, inData[i], ctl.mealy("cap" + std::to_string(i)));
    // The buffer-occupied state bit doubles as the operand select: a full
    // buffer holds the token the pearl must consume this fire.
    const NodeId sel = ctl.moore("stopo" + std::to_string(i));
    const Bus operand = bb.mux(sel, inData[i], buf);
    sum = i == 0 ? operand : bb.adder(sum, operand);
  }
  Bus acc = bb.registerBus(dataWidth, 0, prefix + "acc");
  const Bus base = bb.adder(acc, sum);
  bb.connectRegister(acc, base, ctl.mealy("fire"));
  return base;
}

std::vector<Bus> makeRelaySlots(BusBuilder& bb, unsigned width, unsigned depth,
                                const std::string& prefix) {
  std::vector<Bus> slots(depth);
  for (unsigned k = 0; k < depth; ++k) {
    slots[k] = bb.registerBus(width, 0, prefix + "_q" + std::to_string(k));
  }
  return slots;
}

void connectRelaySlots(BusBuilder& bb, const std::vector<Bus>& slots,
                       const FsmInstance& rs, const Bus& din) {
  const unsigned depth = static_cast<unsigned>(slots.size());
  const NodeId pop = rs.mealy("pop");
  for (unsigned k = 0; k < depth; ++k) {
    const Bus shifted =
        k + 1 < depth ? bb.mux(pop, slots[k], slots[k + 1]) : slots[k];
    const NodeId we = rs.mealy("we" + std::to_string(k));
    const Bus next = bb.mux(we, shifted, din);
    bb.connectRegister(slots[k], next, bb.netlist().mkOr(we, pop));
  }
}

} // namespace lis::sync
