#pragma once
// BitSim: 64-way bit-parallel simulator for the gate-level IR.
//
// Where NetlistSim evaluates one input pattern per settle pass, BitSim packs
// 64 independent patterns into every uint64_t ("lanes") and, with
// numWords > 1, simulates 64*numWords patterns per pass. At construction the
// netlist is flattened into an instruction stream in topological order:
// 16-byte {dst, a, b, c} records (three operand ids, enough for a Mux) with
// the op codes in a parallel byte array. A RomBit's `a` indexes a side
// table holding its address slice, ROM id, bit and eval strategy. The
// settle loop is one template, instantiated for a compile-time word count
// of 1 (NetlistSim, every sync::Lockstep) and for the runtime count.
//
// The stream is two segments, each topological:
//
//   state cone  combinational nodes with no Input in their fanin, i.e.
//               functions of DFF state and constants only (closed under
//               fanin, so it never reads the input cone)
//   input cone  every other combinational node
//
// settle() and clock() evaluate both. A clocked cycle that reads Moore
// signals before it drives the inputs needs each cone once:
// clockStateCone() latches and settles the state cone, settleInputCone()
// settles the input cone after the inputs are set. A state-cone pass
// followed by an input-cone pass counts as one bitsim.settle_passes.
//
// Value layout is node-major: values_[node * numWords + w] holds lanes
// [w*64, (w+1)*64) of `node`, so a gate's word loop streams through
// consecutive memory. DFF clocking honours per-lane enables and reads a
// flat {q, d, enable} latch table built with the instruction stream. ROM
// bits are evaluated bit-sliced (OR of address minterms over whole words)
// when the ROM is shallow, or lane-serial (gather each lane's address) when
// deep.
//
// Lanes never interact, so each may carry a different machine: forces,
// pokes and input writes take a lane mask, which is how sync::Lockstep
// runs a batch of fault experiments beside their fault-free twins in one
// settle pass.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace lis::netlist {

class BitSim {
public:
  explicit BitSim(const Netlist& nl, unsigned numWords = 1);
  /// Flushes settle-pass / pattern counts into the process-wide
  /// obs::Registry ("bitsim.*" counters).
  ~BitSim();

  const Netlist& netlist() const { return *nl_; }
  unsigned numWords() const { return numWords_; }
  /// Patterns simulated per settle pass (64 * numWords).
  std::size_t numPatterns() const { return std::size_t{64} * numWords_; }

  /// Load DFF reset values into every lane, then settle.
  void reset();

  /// Every lane of a word, for the lane-masked calls below.
  static constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

  /// Set one 64-lane word of an input. Throws std::invalid_argument if the
  /// node is not an Input, std::out_of_range if word >= numWords().
  void setInputWord(NodeId input, unsigned word, std::uint64_t lanes);
  /// Set all words of an input; words.size() must equal numWords().
  void setInput(NodeId input, std::span<const std::uint64_t> words);
  /// Broadcast a scalar value into every lane of an input.
  void setInputAll(NodeId input, bool value);
  /// Set an input to `value` in the lanes of `lanes` (of every word),
  /// leaving the other lanes as they are.
  void setInputLanes(NodeId input, std::uint64_t lanes, bool value);

  /// Re-evaluate combinational logic (topological order, single pass over
  /// both cones).
  void settle();

  /// Latch all DFFs from the settled values (per-lane enables), then settle.
  void clock();

  /// The split cycle (see the header comment): clockStateCone() latches
  /// like clock() but settles only the state cone, leaving the input cone
  /// stale; settleInputCone() then settles only the input cone. Together
  /// they leave every node as clock() + settle() would. Both pin the active
  /// forces, but neither re-evaluates the other cone: after a force, a
  /// clear or a poke, call settle().
  void clockStateCone();
  void settleInputCone();
  /// True for an Input and for a combinational node an Input reaches
  /// combinationally; false for DFFs, constants and the state cone.
  bool inInputCone(NodeId node) const { return inputCone_[node]; }

  /// Pin a node to a constant in the lanes of `lanes` (of every word; the
  /// default is every lane) — the stuck-at fault model. The force persists
  /// across settle()/clock() until cleared: source nodes (inputs, DFFs,
  /// constants) are overwritten at the start of every settle pass,
  /// combinational nodes immediately after their own evaluation. Unforced
  /// lanes of a forced node evaluate normally. Zero cost on the hot path
  /// while no force is active.
  void setForce(NodeId node, bool value, std::uint64_t lanes = kAllLanes);
  /// Release the force in the lanes of `lanes`; other lanes keep theirs.
  void clearForce(NodeId node, std::uint64_t lanes = kAllLanes);
  void clearForces();

  /// Overwrite a node's current value in the lanes of `lanes` without
  /// registering a persistent force — the transient-SEU model: poke a
  /// DFF's state, then settle() to propagate; the next clock() overwrites
  /// it normally.
  void poke(NodeId node, bool value, std::uint64_t lanes = kAllLanes);

  std::uint64_t word(NodeId node, unsigned w) const {
    return values_[std::size_t{node} * numWords_ + w];
  }
  bool lane(NodeId node, std::size_t laneIdx) const {
    return ((word(node, static_cast<unsigned>(laneIdx / 64)) >>
             (laneIdx % 64)) &
            1u) != 0;
  }
  /// Bus value seen by one lane (LSB-first). Throws std::invalid_argument
  /// for buses wider than 64 bits.
  std::uint64_t busValue(std::span<const NodeId> bus, std::size_t laneIdx) const;

private:
  struct Force {
    NodeId node;
    std::uint64_t lanes; // forced lanes of every word
    std::uint64_t ones;  // the forced-to-1 subset of `lanes`
  };
  struct Latch {
    NodeId q;
    NodeId d;
    NodeId enable; // meaningful only when hasEnable
    bool hasEnable;
  };
  struct Instr { // 16 bytes; the op code sits in ops_
    NodeId dst;
    NodeId a, b, c; // operands (Mux: sel, a0, a1); RomBit: a = roms_ index
  };
  static_assert(sizeof(Instr) == 16);
  struct RomRef {
    std::uint32_t addrBegin; // slice [addrBegin, addrBegin+addrCount)
    std::uint32_t addrCount; // of romAddr_
    std::uint32_t romId;
    std::uint32_t bit;
    bool bitSliced; // eval strategy
  };

  std::uint64_t* val(NodeId id) {
    return values_.data() + std::size_t{id} * numWords_;
  }
  const std::uint64_t* val(NodeId id) const {
    return values_.data() + std::size_t{id} * numWords_;
  }
  void checkInput(NodeId input) const;
  void writeLanes(NodeId node, std::uint64_t lanes, bool value);
  void evalRom(const RomRef& r, std::uint64_t* dst) const;
  void pin(NodeId node);
  void latch();
  /// Pin the forces, then evaluate instrs_[begin, end).
  void evaluate(std::size_t begin, std::size_t end);
  /// The settle loop; kWords == 0 reads the word count at run time.
  template <unsigned kWords>
  void evalRange(std::size_t begin, std::size_t end);

  const Netlist* nl_;
  unsigned numWords_;
  std::vector<Instr> instrs_;    // state cone, then input cone
  std::vector<Op> ops_;          // parallel to instrs_
  std::size_t stateEnd_ = 0;     // instrs_[0, stateEnd_) is the state cone
  std::vector<RomRef> roms_;     // one per RomBit instruction
  std::vector<NodeId> romAddr_;  // flat RomBit address bits
  std::vector<bool> inputCone_;  // per node, see inInputCone()
  std::vector<std::uint64_t> values_;  // node-major, numWords_ per node
  std::vector<Latch> latches_;         // dffs() order
  std::vector<std::uint64_t> dffNext_; // dffs().size() * numWords_
  std::vector<Force> forces_;          // one entry per forced node
  std::vector<std::uint8_t> forced_;   // per node: 1 while in forces_
  std::uint64_t settlePasses_ = 0;     // lifetime count, flushed by ~BitSim
};

} // namespace lis::netlist
