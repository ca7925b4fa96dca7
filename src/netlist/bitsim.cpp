#include "netlist/bitsim.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace lis::netlist {

namespace {
/// Addresses a RomBit can actually present: limited both by the ROM depth
/// and by the number of address bits wired to it.
std::uint64_t reachableDepth(std::uint64_t depth, std::size_t addrBits) {
  if (addrBits >= 64) return depth;
  return std::min<std::uint64_t>(depth, std::uint64_t{1} << addrBits);
}
} // namespace

BitSim::BitSim(const Netlist& nl, unsigned numWords)
    : nl_(&nl), numWords_(numWords) {
  if (numWords == 0) {
    throw std::invalid_argument("BitSim: numWords must be >= 1");
  }
  values_.assign(nl.nodeCount() * std::size_t{numWords_}, 0);
  dffNext_.assign(nl.dffs().size() * std::size_t{numWords_}, 0);
  latches_.reserve(nl.dffs().size());
  for (NodeId id : nl.dffs()) {
    const Node& n = nl.node(id);
    latches_.push_back({id, n.fanin[0], n.hasEnable ? n.fanin[1] : id,
                        n.hasEnable});
  }

  // A node is in the input cone when an Input reaches it combinationally;
  // the state cone (everything else) goes first. The partition is stable,
  // so both segments keep the topological order.
  inputCone_.assign(nl.nodeCount(), false);
  for (NodeId id : nl.inputs()) inputCone_[id] = true;
  std::vector<NodeId> comb;
  for (NodeId id : nl.topoOrder()) {
    const Node& n = nl.node(id);
    if (n.op == Op::Input || n.op == Op::Dff || n.op == Op::Const0 ||
        n.op == Op::Const1) {
      continue; // sources: driven externally, latched, or set at reset
    }
    for (NodeId f : n.fanin) {
      if (inputCone_[f]) inputCone_[id] = true;
    }
    comb.push_back(id);
  }
  stateEnd_ = static_cast<std::size_t>(
      std::stable_partition(comb.begin(), comb.end(),
                            [&](NodeId id) { return !inputCone_[id]; }) -
      comb.begin());

  instrs_.reserve(comb.size());
  ops_.reserve(comb.size());
  for (NodeId id : comb) {
    const Node& n = nl.node(id);
    const auto operand = [&n](std::size_t k) {
      return k < n.fanin.size() ? n.fanin[k] : NodeId{0};
    };
    if (n.op == Op::RomBit) {
      // Shallow ROMs: bit-sliced minterm OR beats a 64-iteration lane
      // gather; deep ROMs: the other way round.
      instrs_.push_back({id, static_cast<NodeId>(roms_.size()), 0, 0});
      roms_.push_back(
          {static_cast<std::uint32_t>(romAddr_.size()),
           static_cast<std::uint32_t>(n.fanin.size()), n.romId, n.romBit,
           reachableDepth(nl.rom(n.romId).words.size(), n.fanin.size()) <=
               64});
      romAddr_.insert(romAddr_.end(), n.fanin.begin(), n.fanin.end());
    } else {
      instrs_.push_back({id, operand(0), operand(1), operand(2)});
    }
    ops_.push_back(n.op);
  }
  reset();
}

void BitSim::reset() {
  std::fill(values_.begin(), values_.end(), 0);
  for (NodeId id = 0; id < static_cast<NodeId>(nl_->nodeCount()); ++id) {
    if (nl_->node(id).op == Op::Const1) {
      std::fill_n(val(id), numWords_, kAllLanes);
    }
  }
  for (NodeId id : nl_->dffs()) {
    if (nl_->node(id).resetValue) std::fill_n(val(id), numWords_, kAllLanes);
  }
  settle();
}

void BitSim::checkInput(NodeId input) const {
  if (nl_->node(input).op != Op::Input) {
    throw std::invalid_argument("BitSim::setInput: not an input node");
  }
}

void BitSim::setInputWord(NodeId input, unsigned word, std::uint64_t lanes) {
  checkInput(input);
  if (word >= numWords_) {
    throw std::out_of_range("BitSim::setInputWord: word index");
  }
  val(input)[word] = lanes;
}

void BitSim::setInput(NodeId input, std::span<const std::uint64_t> words) {
  checkInput(input);
  if (words.size() != numWords_) {
    throw std::invalid_argument("BitSim::setInput: word count mismatch");
  }
  std::copy(words.begin(), words.end(), val(input));
}

void BitSim::setInputAll(NodeId input, bool value) {
  checkInput(input);
  std::fill_n(val(input), numWords_, value ? kAllLanes : 0);
}

void BitSim::setInputLanes(NodeId input, std::uint64_t lanes, bool value) {
  checkInput(input);
  writeLanes(input, lanes, value);
}

void BitSim::writeLanes(NodeId node, std::uint64_t lanes, bool value) {
  std::uint64_t* v = val(node);
  const std::uint64_t set = value ? lanes : 0;
  for (unsigned w = 0; w < numWords_; ++w) v[w] = (v[w] & ~lanes) | set;
}

void BitSim::setForce(NodeId node, bool value, std::uint64_t lanes) {
  if (node >= nl_->nodeCount()) {
    throw std::out_of_range("BitSim::setForce: node id");
  }
  if (forced_.empty()) forced_.assign(nl_->nodeCount(), 0);
  auto it = std::find_if(forces_.begin(), forces_.end(),
                         [&](const Force& f) { return f.node == node; });
  if (it == forces_.end()) {
    forces_.push_back({node, 0, 0});
    it = forces_.end() - 1;
    forced_[node] = 1;
  }
  it->lanes |= lanes;
  it->ones = (it->ones & ~lanes) | (value ? lanes : 0);
  pin(node);
}

void BitSim::clearForce(NodeId node, std::uint64_t lanes) {
  const auto it = std::find_if(forces_.begin(), forces_.end(),
                               [&](const Force& f) { return f.node == node; });
  if (it == forces_.end()) return;
  it->lanes &= ~lanes;
  it->ones &= ~lanes;
  if (it->lanes == 0) {
    forced_[node] = 0;
    forces_.erase(it);
  }
}

void BitSim::clearForces() {
  for (const Force& f : forces_) forced_[f.node] = 0;
  forces_.clear();
}

void BitSim::poke(NodeId node, bool value, std::uint64_t lanes) {
  if (node >= nl_->nodeCount()) {
    throw std::out_of_range("BitSim::poke: node id");
  }
  writeLanes(node, lanes, value);
}

void BitSim::pin(NodeId node) {
  for (const Force& f : forces_) {
    if (f.node != node) continue;
    std::uint64_t* v = val(node);
    for (unsigned w = 0; w < numWords_; ++w) {
      v[w] = (v[w] & ~f.lanes) | f.ones;
    }
    return;
  }
}

void BitSim::evalRom(const RomRef& r, std::uint64_t* dst) const {
  const Rom& rom = nl_->rom(r.romId);
  const NodeId* f = romAddr_.data() + r.addrBegin;
  const unsigned W = numWords_;
  const unsigned abits = r.addrCount;
  const std::uint64_t depth = rom.words.size();
  if (r.bitSliced) {
    // out = OR over set addresses of AND_i (addr bit i ? v_i : ~v_i).
    const std::uint64_t reach = reachableDepth(depth, abits);
    for (unsigned w = 0; w < W; ++w) {
      std::uint64_t out = 0;
      for (std::uint64_t addr = 0; addr < reach; ++addr) {
        if (((rom.words[addr] >> r.bit) & 1u) == 0) continue;
        std::uint64_t m = kAllLanes;
        for (unsigned i = 0; i < abits && m != 0; ++i) {
          const std::uint64_t vi = val(f[i])[w];
          m &= ((addr >> i) & 1u) != 0 ? vi : ~vi;
        }
        out |= m;
      }
      dst[w] = out;
    }
  } else {
    // Gather each lane's address; out-of-range addresses read as 0.
    for (unsigned w = 0; w < W; ++w) {
      std::uint64_t out = 0;
      for (unsigned l = 0; l < 64; ++l) {
        std::uint64_t addr = 0;
        for (unsigned i = 0; i < abits; ++i) {
          addr |= ((val(f[i])[w] >> l) & 1u) << i;
        }
        if (addr < depth) {
          out |= ((rom.words[addr] >> r.bit) & std::uint64_t{1}) << l;
        }
      }
      dst[w] = out;
    }
  }
}

BitSim::~BitSim() {
  obs::Registry& global = obs::Registry::global();
  global.add("bitsim.settle_passes", static_cast<double>(settlePasses_));
  global.add("bitsim.patterns_settled",
             static_cast<double>(settlePasses_) *
                 static_cast<double>(numPatterns()));
}

template <unsigned kWords>
void BitSim::evalRange(std::size_t begin, std::size_t end) {
  const unsigned W = kWords != 0 ? kWords : numWords_;
  std::uint64_t* const v = values_.data();
  const auto at = [v, W](NodeId id) { return v + std::size_t{id} * W; };
  const bool faulted = !forces_.empty();
  for (std::size_t k = begin; k < end; ++k) {
    const Instr& ins = instrs_[k];
    std::uint64_t* dst = at(ins.dst);
    switch (ops_[k]) {
      case Op::Not: {
        const std::uint64_t* a = at(ins.a);
        for (unsigned w = 0; w < W; ++w) dst[w] = ~a[w];
        break;
      }
      case Op::And: {
        const std::uint64_t* a = at(ins.a);
        const std::uint64_t* b = at(ins.b);
        for (unsigned w = 0; w < W; ++w) dst[w] = a[w] & b[w];
        break;
      }
      case Op::Or: {
        const std::uint64_t* a = at(ins.a);
        const std::uint64_t* b = at(ins.b);
        for (unsigned w = 0; w < W; ++w) dst[w] = a[w] | b[w];
        break;
      }
      case Op::Xor: {
        const std::uint64_t* a = at(ins.a);
        const std::uint64_t* b = at(ins.b);
        for (unsigned w = 0; w < W; ++w) dst[w] = a[w] ^ b[w];
        break;
      }
      case Op::Mux: {
        const std::uint64_t* s = at(ins.a);
        const std::uint64_t* a0 = at(ins.b);
        const std::uint64_t* a1 = at(ins.c);
        for (unsigned w = 0; w < W; ++w) {
          dst[w] = (s[w] & a1[w]) | (~s[w] & a0[w]);
        }
        break;
      }
      case Op::Output: {
        const std::uint64_t* a = at(ins.a);
        for (unsigned w = 0; w < W; ++w) dst[w] = a[w];
        break;
      }
      case Op::RomBit:
        evalRom(roms_[ins.a], dst);
        break;
      default:
        break; // sources never enter the instruction stream
    }
    if (faulted && forced_[ins.dst] != 0) pin(ins.dst);
  }
}

void BitSim::evaluate(std::size_t begin, std::size_t end) {
  // Source nodes (inputs, DFF state, constants) are not in the
  // instruction stream, so every forced node is pinned up front; forced
  // combinational nodes are pinned again right after their evaluation.
  for (const Force& f : forces_) pin(f.node);
  if (numWords_ == 1) {
    evalRange<1>(begin, end);
  } else {
    evalRange<0>(begin, end);
  }
}

void BitSim::settle() {
  ++settlePasses_;
  evaluate(0, instrs_.size());
}

void BitSim::settleInputCone() {
  ++settlePasses_;
  evaluate(stateEnd_, instrs_.size());
}

void BitSim::latch() {
  const unsigned W = numWords_;
  for (std::size_t k = 0; k < latches_.size(); ++k) {
    const Latch& l = latches_[k];
    const std::uint64_t* d = val(l.d);
    std::uint64_t* next = dffNext_.data() + k * W;
    if (l.hasEnable) {
      const std::uint64_t* q = val(l.q);
      const std::uint64_t* en = val(l.enable);
      for (unsigned w = 0; w < W; ++w) {
        next[w] = (d[w] & en[w]) | (q[w] & ~en[w]);
      }
    } else {
      std::copy_n(d, W, next);
    }
  }
  for (std::size_t k = 0; k < latches_.size(); ++k) {
    std::copy_n(dffNext_.data() + k * W, W, val(latches_[k].q));
  }
}

void BitSim::clock() {
  latch();
  settle();
}

void BitSim::clockStateCone() {
  latch();
  evaluate(0, stateEnd_);
}

std::uint64_t BitSim::busValue(std::span<const NodeId> bus,
                               std::size_t laneIdx) const {
  if (bus.size() > 64) {
    throw std::invalid_argument("BitSim::busValue: bus wider than 64 bits");
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (lane(bus[i], laneIdx)) v |= std::uint64_t{1} << i;
  }
  return v;
}

} // namespace lis::netlist
