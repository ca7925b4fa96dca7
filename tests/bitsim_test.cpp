#include "netlist/bitsim.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "lis/oracle.hpp"
#include "lis/system.hpp"
#include "netlist/cone.hpp"
#include "netlist/generate.hpp"
#include "netlist/netlist_sim.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

using namespace lis::netlist;
using lis::support::SplitMix64;

namespace {

// Independent scalar oracle: a direct re-implementation of the historical
// one-bit-per-node evaluator, kept here so BitSim (and the BitSim-backed
// NetlistSim) are checked against something that shares none of their code.
class RefSim {
public:
  explicit RefSim(const Netlist& nl)
      : nl_(&nl), order_(nl.topoOrder()), values_(nl.nodeCount(), 0),
        dffNext_(nl.nodeCount(), 0) {
    reset();
  }

  void reset() {
    std::fill(values_.begin(), values_.end(), char{0});
    for (NodeId id : nl_->dffs()) {
      values_[id] = nl_->node(id).resetValue ? 1 : 0;
    }
    settle();
  }

  void setInput(NodeId id, bool v) { values_[id] = v ? 1 : 0; }

  void settle() {
    for (NodeId id : order_) {
      const Node& n = nl_->node(id);
      switch (n.op) {
        case Op::Input:
        case Op::Dff:
          break;
        case Op::Const0:
          values_[id] = 0;
          break;
        case Op::Const1:
          values_[id] = 1;
          break;
        case Op::Not:
          values_[id] = values_[n.fanin[0]] != 0 ? 0 : 1;
          break;
        case Op::And:
          values_[id] = (values_[n.fanin[0]] & values_[n.fanin[1]]) != 0;
          break;
        case Op::Or:
          values_[id] = (values_[n.fanin[0]] | values_[n.fanin[1]]) != 0;
          break;
        case Op::Xor:
          values_[id] = (values_[n.fanin[0]] ^ values_[n.fanin[1]]) != 0;
          break;
        case Op::Mux:
          values_[id] = values_[n.fanin[0]] != 0 ? values_[n.fanin[2]]
                                                 : values_[n.fanin[1]];
          break;
        case Op::Output:
          values_[id] = values_[n.fanin[0]];
          break;
        case Op::RomBit: {
          std::uint64_t addr = 0;
          for (std::size_t i = 0; i < n.fanin.size(); ++i) {
            if (values_[n.fanin[i]] != 0) addr |= std::uint64_t{1} << i;
          }
          const Rom& rom = nl_->rom(n.romId);
          const std::uint64_t word =
              addr < rom.words.size() ? rom.words[addr] : 0;
          values_[id] = ((word >> n.romBit) & 1u) != 0;
          break;
        }
      }
    }
  }

  void clock() {
    for (NodeId id : nl_->dffs()) {
      const Node& n = nl_->node(id);
      const bool enabled = !n.hasEnable || values_[n.fanin[1]] != 0;
      dffNext_[id] = enabled ? values_[n.fanin[0]] : values_[id];
    }
    for (NodeId id : nl_->dffs()) values_[id] = dffNext_[id];
    settle();
  }

  bool value(NodeId id) const { return values_[id] != 0; }

private:
  const Netlist* nl_;
  std::vector<NodeId> order_;
  std::vector<char> values_;
  std::vector<char> dffNext_;
};

/// Every lane of a multi-word BitSim must match the oracle re-run pattern by
/// pattern; lane 0 doubles as the NetlistSim contract.
void checkCombParity(const Netlist& nl, std::uint64_t seed) {
  const unsigned words = 2;
  BitSim bits(nl, words);
  RefSim ref(nl);
  NetlistSim scalar(nl);
  SplitMix64 rng(seed);

  int mismatches = 0;
  const unsigned chunks = 8; // 8 * 128 = 1024 patterns
  std::vector<std::vector<std::uint64_t>> stimulus(nl.inputs().size());
  for (unsigned chunk = 0; chunk < chunks; ++chunk) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      stimulus[i].assign(words, 0);
      for (unsigned w = 0; w < words; ++w) stimulus[i][w] = rng.next();
      bits.setInput(nl.inputs()[i], stimulus[i]);
    }
    bits.settle();
    for (std::size_t lane = 0; lane < bits.numPatterns(); ++lane) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        const bool v = ((stimulus[i][lane / 64] >> (lane % 64)) & 1u) != 0;
        ref.setInput(nl.inputs()[i], v);
        if (lane == 0) scalar.setInput(nl.inputs()[i], v);
      }
      ref.settle();
      if (lane == 0) scalar.settle();
      for (NodeId id = 0; id < static_cast<NodeId>(nl.nodeCount()); ++id) {
        if (bits.lane(id, lane) != ref.value(id)) ++mismatches;
        if (lane == 0 && scalar.value(id) != ref.value(id)) ++mismatches;
      }
    }
  }
  CHECK_EQ(mismatches, 0);
}

void testCombParity() {
  for (std::uint64_t seed : {1, 2, 3}) {
    checkCombParity(gen::randomDag(8, 120, 6, seed), seed * 17 + 5);
  }
  checkCombParity(gen::muxTree(3, gen::MuxStyle::Tree), 11);
  checkCombParity(gen::muxTree(3, gen::MuxStyle::SumOfProducts), 12);
  checkCombParity(gen::romReader(4, 8, 7), 13);
  checkCombParity(gen::romReader(8, 4, 7), 14); // deep ROM: lane-serial path
}

void testSequentialParity() {
  for (std::uint64_t seed : {4, 5}) {
    const Netlist nl = gen::randomSeq(6, 80, 10, 5, seed);
    BitSim bits(nl, 1);
    RefSim ref(nl);
    SplitMix64 rng(seed + 100);

    int mismatches = 0;
    for (unsigned cycle = 0; cycle < 200; ++cycle) {
      for (NodeId in : nl.inputs()) {
        const bool v = rng.flip();
        bits.setInputAll(in, v);
        ref.setInput(in, v);
      }
      bits.settle();
      ref.settle();
      for (NodeId id = 0; id < static_cast<NodeId>(nl.nodeCount()); ++id) {
        if (bits.lane(id, 0) != ref.value(id)) ++mismatches;
      }
      bits.clock();
      ref.clock();
    }
    CHECK_EQ(mismatches, 0);

    bits.reset();
    ref.reset();
    for (NodeId id : nl.dffs()) CHECK_EQ(bits.lane(id, 0), ref.value(id));
  }
}

/// The cone is exact: simulated beside its source from reset under the
/// same random input words, it gives every root the source's value on
/// every cycle, in all 64 lanes.
void checkConeMatchesSource(const Netlist& nl, const std::vector<NodeId>& roots,
                            std::uint64_t seed) {
  const Cone cone = extractCone(nl, roots);
  const Netlist& sub = cone.netlist;
  BitSim full(nl, 1);
  BitSim part(sub, 1);
  full.reset();
  part.reset();
  SplitMix64 rng(seed);
  int mismatches = 0;
  for (unsigned cycle = 0; cycle < 96; ++cycle) {
    for (NodeId in : nl.inputs()) {
      const std::uint64_t w = rng.next();
      full.setInputWord(in, 0, w);
      if (cone.toCone[in] != kNoNode) part.setInputWord(cone.toCone[in], 0, w);
    }
    full.settle();
    part.settle();
    for (NodeId r : roots) {
      if (full.word(r, 0) != part.word(cone.toCone[r], 0)) ++mismatches;
    }
    full.clock();
    part.clock();
  }
  CHECK_EQ(mismatches, 0);

  // The maps agree both ways, and sources keep their order, names and
  // resets; the root outputs are the only outputs.
  for (NodeId r : roots) CHECK_EQ(cone.toSource[cone.toCone[r]], r);
  std::size_t rootOutputs = 0;
  for (NodeId o : nl.outputs()) {
    rootOutputs += std::find(roots.begin(), roots.end(), o) != roots.end();
  }
  CHECK_EQ(sub.outputs().size(), rootOutputs);
  for (const auto* sources : {&sub.inputs(), &sub.dffs()}) {
    for (std::size_t i = 0; i < sources->size(); ++i) {
      const Node& copy = sub.node((*sources)[i]);
      const NodeId src = cone.toSource[(*sources)[i]];
      CHECK(i == 0 || src > cone.toSource[(*sources)[i - 1]]);
      CHECK(nl.node(src).op == copy.op);
      CHECK(nl.node(src).name == copy.name);
      CHECK_EQ(nl.node(src).resetValue, copy.resetValue);
    }
  }
}

void testConeOfInfluence() {
  for (std::uint64_t seed : {6, 7, 8, 9}) {
    const Netlist nl = gen::randomSeq(6, 80, 12, 5, seed);
    const std::vector<std::vector<NodeId>> subsets = {
        {nl.outputs()[0]},
        {nl.outputs()[1], nl.outputs()[3]},
        {nl.outputs()[4], nl.dffs()[2], nl.inputs()[5]}, // internal roots
        nl.outputs(),
    };
    for (std::size_t k = 0; k < subsets.size(); ++k) {
      checkConeMatchesSource(nl, subsets[k], seed * 131 + k);
    }
  }

  // A ROM inside a cone is rejected, as the Unroller rejects it.
  const Netlist rom = gen::romReader(4, 8, 7);
  CHECK_THROWS(extractCone(rom, rom.outputs()), std::invalid_argument);

  // The control/data separation the proof engines rely on: on a
  // two-pearl chain the handshake signals read no data input and fewer
  // than a quarter of the registers (8 of 88).
  namespace lsync = lis::sync;
  const lsync::System sys = lsync::buildSystem(
      lsync::chainSpec(2, 1, lsync::Encoding::Binary));
  const lsync::PortView view = lsync::portView(sys.ports);
  std::vector<NodeId> handshakes;
  for (const auto* side :
       {&view.inValid, &view.inStop, &view.outValid, &view.outStop}) {
    handshakes.insert(handshakes.end(), side->begin(), side->end());
  }
  CHECK(!handshakes.empty());
  const Cone control = extractCone(sys.netlist, handshakes);
  for (const Bus& bus : view.inData) {
    for (NodeId bit : bus) CHECK(control.toCone[bit] == kNoNode);
  }
  CHECK(!control.netlist.dffs().empty());
  CHECK(control.netlist.dffs().size() * 4 < sys.netlist.dffs().size());
  checkConeMatchesSource(sys.netlist, handshakes, 17);
}

void testApi() {
  const Netlist nl = gen::randomDag(4, 10, 2, 1);
  CHECK_THROWS(BitSim(nl, 0), std::invalid_argument);

  BitSim bits(nl, 3);
  CHECK_EQ(bits.numWords(), 3u);
  CHECK_EQ(bits.numPatterns(), 192u);

  const NodeId in0 = nl.inputs()[0];
  const std::vector<std::uint64_t> tooFew(2, 0);
  CHECK_THROWS(bits.setInput(in0, tooFew), std::invalid_argument);
  CHECK_THROWS(bits.setInputWord(in0, 3, 0), std::out_of_range);
  CHECK_THROWS(bits.setInputWord(nl.outputs()[0], 0, 0),
               std::invalid_argument);

  bits.setInputWord(in0, 2, 0x5ull);
  CHECK_EQ(bits.word(in0, 2), 0x5ull);
  CHECK(bits.lane(in0, 128));
  CHECK(!bits.lane(in0, 129));
  CHECK(bits.lane(in0, 130));

  const std::vector<NodeId> tooWide(65, in0);
  CHECK_THROWS(bits.busValue(tooWide, 0), std::invalid_argument);
}

} // namespace

int main() {
  testCombParity();
  testSequentialParity();
  testConeOfInfluence();
  testApi();
  return testExit();
}
