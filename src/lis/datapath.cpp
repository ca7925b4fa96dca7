#include "lis/datapath.hpp"

namespace lis::sync {

using netlist::Bus;
using netlist::BusBuilder;
using netlist::Netlist;
using netlist::NodeId;

Bus shellDatapath(BusBuilder& bb, unsigned numInputs, unsigned dataWidth,
                  FsmInstance& ctl, const std::vector<Bus>& inData,
                  const std::string& prefix, netlist::Fragment& frag) {
  Bus sum;
  for (unsigned i = 0; i < numInputs; ++i) {
    Bus buf = bb.registerBus(dataWidth, 0, prefix + "buf" + std::to_string(i));
    bb.connectRegister(buf, inData[i], ctl.mealy("cap" + std::to_string(i)));
    // The buffer-occupied state bit doubles as the operand select: a full
    // buffer holds the token the pearl must consume this fire. The select
    // is a parent Moore node and needs a local proxy.
    const NodeId sel = frag.import(ctl.moore("stopo" + std::to_string(i)));
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

void connectRelaySlots(netlist::Fragment& frag, const std::vector<Bus>& slots,
                       FsmInstance& rs, const Bus& din) {
  Netlist& lnl = frag.netlist();
  BusBuilder bb(lnl);
  const unsigned depth = static_cast<unsigned>(slots.size());
  const NodeId pop = rs.mealy("pop");
  const Bus dinLocal = frag.importAll(din);
  std::vector<Bus> slotsLocal;
  slotsLocal.reserve(depth);
  for (const Bus& slot : slots) slotsLocal.push_back(frag.importAll(slot));
  for (unsigned k = 0; k < depth; ++k) {
    const Bus shifted = k + 1 < depth
                            ? bb.mux(pop, slotsLocal[k], slotsLocal[k + 1])
                            : slotsLocal[k];
    const NodeId we = rs.mealy("we" + std::to_string(k));
    const Bus next = bb.mux(we, shifted, dinLocal);
    const NodeId enable = lnl.mkOr(we, pop);
    for (std::size_t i = 0; i < next.size(); ++i) {
      frag.patchDff(slots[k][i], next[i], enable);
    }
  }
}

} // namespace lis::sync
