#include "netlist/buses.hpp"

#include <stdexcept>

namespace lis::netlist {

Bus BusBuilder::constant(std::uint64_t value, unsigned width) {
  Bus bus(width);
  for (unsigned i = 0; i < width; ++i) {
    bus[i] = nl_->constant(((value >> i) & 1u) != 0);
  }
  return bus;
}

Bus BusBuilder::inputBus(const std::string& name, unsigned width) {
  Bus bus(width);
  for (unsigned i = 0; i < width; ++i) {
    bus[i] = nl_->addInput(name + "_" + std::to_string(i));
  }
  return bus;
}

Bus BusBuilder::outputBus(const std::string& name,
                          std::span<const NodeId> bus) {
  Bus out(bus.size());
  for (std::size_t i = 0; i < bus.size(); ++i) {
    out[i] = nl_->addOutput(name + "_" + std::to_string(i), bus[i]);
  }
  return out;
}

Bus BusBuilder::registerBus(unsigned width, std::uint64_t resetValue,
                            const std::string& name) {
  Bus regs(width);
  for (unsigned i = 0; i < width; ++i) {
    const bool rv = ((resetValue >> i) & 1u) != 0;
    // Placeholder data input: own output (hold). connectRegister rewires.
    regs[i] = nl_->mkDff(kNoNode, kNoNode, rv, name + "_" + std::to_string(i));
    nl_->setDffInputs(regs[i], regs[i]);
  }
  return regs;
}

void BusBuilder::connectRegister(std::span<const NodeId> regs,
                                 std::span<const NodeId> data, NodeId enable) {
  if (regs.size() != data.size()) {
    throw std::invalid_argument("connectRegister: width mismatch");
  }
  for (std::size_t i = 0; i < regs.size(); ++i) {
    nl_->setDffInputs(regs[i], data[i], enable);
  }
}

namespace {
void checkWidths(std::span<const NodeId> a, std::span<const NodeId> b,
                 const char* what) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string(what) + ": width mismatch");
  }
}
} // namespace

Bus BusBuilder::xorBus(std::span<const NodeId> a, std::span<const NodeId> b) {
  checkWidths(a, b, "xorBus");
  Bus out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = nl_->mkXor(a[i], b[i]);
  return out;
}

Bus BusBuilder::mux(NodeId sel, std::span<const NodeId> a0,
                    std::span<const NodeId> a1) {
  checkWidths(a0, a1, "mux");
  Bus out(a0.size());
  for (std::size_t i = 0; i < a0.size(); ++i) {
    out[i] = nl_->mkMux(sel, a0[i], a1[i]);
  }
  return out;
}

NodeId BusBuilder::eqConst(std::span<const NodeId> a, std::uint64_t value) {
  std::vector<NodeId> terms(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool bit = ((value >> i) & 1u) != 0;
    terms[i] = bit ? a[i] : nl_->mkNot(a[i]);
  }
  return nl_->andTree(terms);
}

Bus BusBuilder::adder(std::span<const NodeId> a, std::span<const NodeId> b,
                      NodeId carryIn) {
  checkWidths(a, b, "adder");
  Bus sum(a.size());
  NodeId carry = carryIn == kNoNode ? nl_->constant(false) : carryIn;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NodeId axb = nl_->mkXor(a[i], b[i]);
    sum[i] = nl_->mkXor(axb, carry);
    carry = nl_->mkOr(nl_->mkAnd(a[i], b[i]), nl_->mkAnd(axb, carry));
  }
  return sum;
}

Bus BusBuilder::incrementer(std::span<const NodeId> a) {
  Bus sum(a.size());
  NodeId carry = nl_->constant(true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum[i] = nl_->mkXor(a[i], carry);
    carry = nl_->mkAnd(a[i], carry);
  }
  return sum;
}

unsigned BusBuilder::bitsFor(std::uint64_t maxValue) {
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) <= maxValue && bits < 64) ++bits;
  return bits;
}

} // namespace lis::netlist
