#include "techmap/lutmap.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "aig/cuts.hpp"

namespace lis::techmap {

using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::Op;

namespace {

bool isGate(Op op) {
  return op == Op::Not || op == Op::And || op == Op::Or || op == Op::Xor ||
         op == Op::Mux;
}

/// Row-parallel truth table of the cone rooted at `root` with frontier
/// `leafIndex`: each node's function over the <=6 leaf variables is one
/// 64-bit word (bit r = value under leaf assignment r), computed bottom-up
/// with bitwise ops. `memo` maps cone-interior nodes to their words.
std::uint64_t coneTable(const Netlist& nl, NodeId root, unsigned vars,
                        const std::unordered_map<NodeId, unsigned>& leafIndex,
                        std::unordered_map<NodeId, std::uint64_t>& memo) {
  auto leafIt = leafIndex.find(root);
  if (leafIt != leafIndex.end()) {
    return logic::TruthTable::identity(vars, leafIt->second).bits();
  }
  auto memoIt = memo.find(root);
  if (memoIt != memo.end()) return memoIt->second;

  const std::uint64_t used =
      vars == 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1u << vars)) - 1;
  const Node& n = nl.node(root);
  std::uint64_t v = 0;
  switch (n.op) {
    case Op::Const0: v = 0; break;
    case Op::Const1: v = used; break;
    case Op::Not:
      v = ~coneTable(nl, n.fanin[0], vars, leafIndex, memo) & used;
      break;
    case Op::And:
      v = coneTable(nl, n.fanin[0], vars, leafIndex, memo) &
          coneTable(nl, n.fanin[1], vars, leafIndex, memo);
      break;
    case Op::Or:
      v = coneTable(nl, n.fanin[0], vars, leafIndex, memo) |
          coneTable(nl, n.fanin[1], vars, leafIndex, memo);
      break;
    case Op::Xor:
      v = coneTable(nl, n.fanin[0], vars, leafIndex, memo) ^
          coneTable(nl, n.fanin[1], vars, leafIndex, memo);
      break;
    case Op::Mux: {
      const std::uint64_t s = coneTable(nl, n.fanin[0], vars, leafIndex, memo);
      const std::uint64_t a0 = coneTable(nl, n.fanin[1], vars, leafIndex, memo);
      const std::uint64_t a1 = coneTable(nl, n.fanin[2], vars, leafIndex, memo);
      v = (s & a1) | (~s & a0 & used);
      break;
    }
    default:
      throw std::logic_error("coneTable: non-gate interior node");
  }
  memo[root] = v;
  return v;
}

void checkK(unsigned k) {
  if (k < 2 || k > logic::TruthTable::kMaxVars) {
    throw std::invalid_argument("mapToLuts: k must be in [2,6]");
  }
}

MappedNetlist mapGreedy(const Netlist& nl, unsigned k);

// ---------------------------------------------------------------------------
// Priority-cut mapper (rounds >= 1)
// ---------------------------------------------------------------------------

constexpr unsigned kInfDepth = std::numeric_limits<unsigned>::max();

class CutMapper {
public:
  CutMapper(const Netlist& nl, const MapOptions& options)
      : nl_(nl), options_(options), fanout_(nl.fanoutCounts()),
        cutStore_(nl.nodeCount(), options.cutsPerNode),
        chosen_(nl.nodeCount()), arrival_(nl.nodeCount(), 0),
        areaFlow_(nl.nodeCount(), 0.0f), refs_(nl.nodeCount(), 0),
        required_(nl.nodeCount(), kInfDepth) {}

  MappedNetlist run() {
    collectSinks();
    enumerateAndMapDepth();
    computeCover();
    for (unsigned round = 1; round < options_.rounds; ++round) {
      computeRequired();
      if (round == 1) {
        reselectAreaFlow();
      } else {
        reselectExactArea();
      }
      computeCover();
    }
    return extract();
  }

private:
  // --- sinks: the cover's roots -----------------------------------------
  void collectSinks() {
    for (NodeId id = 0; id < nl_.nodeCount(); ++id) {
      const Node& n = nl_.node(id);
      if (n.op == Op::Output || n.op == Op::Dff) {
        for (NodeId f : n.fanin) {
          if (isGate(nl_.node(f).op)) sinks_.push_back(f);
        }
      }
    }
    std::sort(sinks_.begin(), sinks_.end());
    sinks_.erase(std::unique(sinks_.begin(), sinks_.end()), sinks_.end());
  }

  // --- cut enumeration + depth-optimal first round ----------------------
  float flowOf(NodeId leaf) const {
    if (!isGate(nl_.node(leaf).op)) return 0.0f;
    return areaFlow_[leaf] /
           static_cast<float>(std::max<std::uint32_t>(1, fanout_[leaf]));
  }

  void costCut(aig::Cut& cut) const {
    unsigned depth = 0;
    float flow = 1.0f;
    for (std::uint8_t i = 0; i < cut.size; ++i) {
      depth = std::max(depth, arrival_[cut.leaves[i]]);
      flow += flowOf(cut.leaves[i]);
    }
    cut.depth = depth + 1;
    cut.areaFlow = flow;
  }

  /// Visit the child cut list of a fanin in storage order: its priority
  /// cuts when it is a gate, then always the trivial cut (the fanin itself
  /// as a leaf). A visitor instead of a returned vector keeps the
  /// enumeration loops allocation-free — the former by-value child lists
  /// were the mapper's dominant heap traffic.
  template <class Fn>
  void forChildCuts(NodeId f, Fn&& fn) const {
    if (isGate(nl_.node(f).op)) {
      for (const aig::Cut& c : cutStore_.at(f)) fn(c);
    }
    aig::Cut triv;
    triv.leaves[0] = f;
    triv.size = 1;
    triv.function = logic::TruthTable::identity(1, 0);
    fn(triv);
  }

  void enumerateNode(NodeId id) {
    const Node& n = nl_.node(id);
    const auto better = [](const aig::Cut& a, const aig::Cut& b) {
      if (a.depth != b.depth) return a.depth < b.depth;
      if (a.areaFlow != b.areaFlow) return a.areaFlow < b.areaFlow;
      return a.size < b.size;
    };

    if (n.op == Op::Not) {
      forChildCuts(n.fanin[0], [&](const aig::Cut& a) {
        aig::Cut m = a;
        m.function = ~a.function;
        costCut(m);
        cutStore_.insert(id, m, better);
      });
    } else if (n.op == Op::Mux) {
      forChildCuts(n.fanin[0], [&](const aig::Cut& s) {
        forChildCuts(n.fanin[1], [&](const aig::Cut& a0) {
          aig::Cut sa;
          if (!aig::mergeLeaves(s, a0, options_.k, sa)) return;
          forChildCuts(n.fanin[2], [&](const aig::Cut& a1) {
            aig::Cut m;
            if (!aig::mergeLeaves(sa, a1, options_.k, m)) return;
            const logic::TruthTable ts = aig::expandFunction(s.function, s, m);
            const logic::TruthTable t0 =
                aig::expandFunction(a0.function, a0, m);
            const logic::TruthTable t1 =
                aig::expandFunction(a1.function, a1, m);
            m.function = (ts & t1) | (~ts & t0);
            costCut(m);
            cutStore_.insert(id, m, better);
          });
        });
      });
    } else {
      forChildCuts(n.fanin[0], [&](const aig::Cut& a) {
        forChildCuts(n.fanin[1], [&](const aig::Cut& b) {
          aig::Cut m;
          if (!aig::mergeLeaves(a, b, options_.k, m)) return;
          const logic::TruthTable ta = aig::expandFunction(a.function, a, m);
          const logic::TruthTable tb = aig::expandFunction(b.function, b, m);
          switch (n.op) {
            case Op::And: m.function = ta & tb; break;
            case Op::Or: m.function = ta | tb; break;
            case Op::Xor: m.function = ta ^ tb; break;
            default: break;
          }
          costCut(m);
          cutStore_.insert(id, m, better);
        });
      });
    }
    if (cutStore_.empty(id)) {
      throw std::invalid_argument(
          "mapToLuts: cone rooted at " + std::string(opName(n.op)) + " (n" +
          std::to_string(id) + ") needs more than k inputs");
    }
    // Depth-optimal first round: the list is sorted by (depth, flow).
    chosen_[id] = cutStore_.at(id).front();
    arrival_[id] = chosen_[id].depth;
    areaFlow_[id] = chosen_[id].areaFlow;
  }

  void enumerateAndMapDepth() {
    // Level-synchronous: nodes of one structural level have disjoint,
    // already-satisfied dependencies, so a level fans out on the runner.
    std::vector<unsigned> level(nl_.nodeCount(), 0);
    unsigned maxLevel = 0;
    const auto order = nl_.topoOrder();
    for (NodeId id : order) {
      const Node& n = nl_.node(id);
      if (!isGate(n.op)) continue;
      unsigned lvl = 0;
      for (NodeId f : n.fanin) lvl = std::max(lvl, level[f]);
      level[id] = lvl + 1;
      maxLevel = std::max(maxLevel, level[id]);
    }
    std::vector<std::vector<NodeId>> byLevel(maxLevel + 1);
    for (NodeId id : order) {
      const Node& n = nl_.node(id);
      if (isGate(n.op)) byLevel[level[id]].push_back(id);
    }
    for (const std::vector<NodeId>& nodes : byLevel) {
      if (options_.runner && nodes.size() > 1) {
        options_.runner(nodes.size(),
                        [&](std::size_t i) { enumerateNode(nodes[i]); });
      } else {
        for (NodeId id : nodes) enumerateNode(id);
      }
    }
  }

  // --- cover + required times -------------------------------------------
  void computeCover() {
    std::fill(refs_.begin(), refs_.end(), 0u);
    for (NodeId s : sinks_) ++refs_[s];
    // Roots before leaves: walk ids descending (chosen cut leaves always
    // precede their root in any topological numbering of gates — cut
    // leaves come from fanin frontiers — so descending NodeId works for
    // netlists built bottom-up, which topoOrder guarantees transitively).
    for (NodeId id = static_cast<NodeId>(nl_.nodeCount()); id-- > 0;) {
      if (!isGate(nl_.node(id).op) || refs_[id] == 0) continue;
      for (std::uint8_t i = 0; i < chosen_[id].size; ++i) {
        const NodeId leaf = chosen_[id].leaves[i];
        if (isGate(nl_.node(leaf).op)) ++refs_[leaf];
      }
    }
  }

  void computeRequired() {
    std::fill(required_.begin(), required_.end(), kInfDepth);
    unsigned target = 0;
    for (NodeId s : sinks_) target = std::max(target, arrival_[s]);
    const auto relax = [this](NodeId id, unsigned req) {
      if (req < required_[id]) required_[id] = req;
    };
    for (NodeId s : sinks_) relax(s, target);
    for (NodeId id = static_cast<NodeId>(nl_.nodeCount()); id-- > 0;) {
      const Node& n = nl_.node(id);
      if (!isGate(n.op) || refs_[id] == 0 || required_[id] == kInfDepth) {
        continue;
      }
      for (std::uint8_t i = 0; i < chosen_[id].size; ++i) {
        relax(chosen_[id].leaves[i], required_[id] - 1);
      }
    }
  }

  // --- area recovery ----------------------------------------------------
  unsigned cutDepthNow(const aig::Cut& cut) const {
    unsigned d = 0;
    for (std::uint8_t i = 0; i < cut.size; ++i) {
      d = std::max(d, arrival_[cut.leaves[i]]);
    }
    return d + 1;
  }

  void reselectAreaFlow() {
    for (NodeId id = 0; id < nl_.nodeCount(); ++id) {
      if (!isGate(nl_.node(id).op)) continue;
      const std::span<const aig::Cut> set = cutStore_.at(id);
      int bestIdx = -1;
      float bestFlow = 0.0f;
      unsigned bestDepth = 0;
      for (std::size_t i = 0; i < set.size(); ++i) {
        const aig::Cut& cut = set[i];
        const unsigned depth = cutDepthNow(cut);
        if (depth > required_[id]) continue;
        float flow = 1.0f;
        for (std::uint8_t l = 0; l < cut.size; ++l) {
          flow += flowOf(cut.leaves[l]);
        }
        if (bestIdx < 0 || flow < bestFlow ||
            (flow == bestFlow && depth < bestDepth)) {
          bestIdx = static_cast<int>(i);
          bestFlow = flow;
          bestDepth = depth;
        }
      }
      if (bestIdx >= 0) {
        chosen_[id] = set[bestIdx];
        arrival_[id] = bestDepth;
        areaFlow_[id] = bestFlow;
      } else {
        // No stored cut meets the requirement (can only happen through
        // arrival drift); keep the current choice and refresh its arrival.
        arrival_[id] = cutDepthNow(chosen_[id]);
      }
    }
  }

  /// Reference a cut: bump every gate leaf, recursing into leaves newly
  /// brought into the cover. Returns the number of LUTs added.
  unsigned refCut(const aig::Cut& cut) {
    unsigned area = 1;
    for (std::uint8_t i = 0; i < cut.size; ++i) {
      const NodeId leaf = cut.leaves[i];
      if (!isGate(nl_.node(leaf).op)) continue;
      if (refs_[leaf]++ == 0) area += refCut(chosen_[leaf]);
    }
    return area;
  }

  /// Inverse of refCut. Returns the number of LUTs freed.
  unsigned derefCut(const aig::Cut& cut) {
    unsigned area = 1;
    for (std::uint8_t i = 0; i < cut.size; ++i) {
      const NodeId leaf = cut.leaves[i];
      if (!isGate(nl_.node(leaf).op)) continue;
      if (--refs_[leaf] == 0) area += derefCut(chosen_[leaf]);
    }
    return area;
  }

  /// Exact local area of adopting `cut` under the current references,
  /// measured by a ref/deref probe (state restored).
  unsigned exactAreaOf(const aig::Cut& cut) {
    const unsigned area = refCut(cut);
    derefCut(cut);
    return area;
  }

  void reselectExactArea() {
    for (NodeId id = 0; id < nl_.nodeCount(); ++id) {
      if (!isGate(nl_.node(id).op)) continue;
      const bool inCover = refs_[id] > 0;
      if (inCover) derefCut(chosen_[id]);
      const std::span<const aig::Cut> set = cutStore_.at(id);
      int bestIdx = -1;
      unsigned bestArea = 0;
      unsigned bestDepth = 0;
      for (std::size_t i = 0; i < set.size(); ++i) {
        const aig::Cut& cut = set[i];
        const unsigned depth = cutDepthNow(cut);
        if (depth > required_[id]) continue;
        const unsigned area = exactAreaOf(cut);
        if (bestIdx < 0 || area < bestArea ||
            (area == bestArea && depth < bestDepth)) {
          bestIdx = static_cast<int>(i);
          bestArea = area;
          bestDepth = depth;
        }
      }
      if (bestIdx >= 0) {
        chosen_[id] = set[bestIdx];
        arrival_[id] = bestDepth;
      } else {
        arrival_[id] = cutDepthNow(chosen_[id]);
      }
      if (inCover) refCut(chosen_[id]);
    }
  }

  // --- result -----------------------------------------------------------
  MappedNetlist extract() {
    MappedNetlist mapped;
    mapped.source = &nl_;
    mapped.k = options_.k;
    mapped.ffCount = nl_.dffs().size();
    std::vector<unsigned> level(nl_.nodeCount(), 0);
    for (NodeId id : nl_.topoOrder()) {
      if (!isGate(nl_.node(id).op) || refs_[id] == 0) continue;
      Lut lut;
      lut.root = id;
      lut.leaves.assign(chosen_[id].leafSpan().begin(),
                        chosen_[id].leafSpan().end());
      lut.function = chosen_[id].function;
      unsigned lvl = 0;
      for (NodeId leaf : lut.leaves) lvl = std::max(lvl, level[leaf]);
      lut.level = lvl + 1;
      level[id] = lut.level;
      mapped.depth = std::max(mapped.depth, lut.level);
      mapped.lutOfRoot[id] = mapped.luts.size();
      mapped.luts.push_back(std::move(lut));
    }
    return mapped;
  }

  const Netlist& nl_;
  MapOptions options_;
  std::vector<std::uint32_t> fanout_;
  aig::CutStore cutStore_;
  std::vector<aig::Cut> chosen_;
  std::vector<unsigned> arrival_;
  std::vector<float> areaFlow_;
  std::vector<std::uint32_t> refs_;
  std::vector<unsigned> required_;
  std::vector<NodeId> sinks_;
};

} // namespace

MappedNetlist mapToLuts(const Netlist& nl, const MapOptions& options) {
  checkK(options.k);
  if (options.rounds == 0) return mapGreedy(nl, options.k);
  return CutMapper(nl, options).run();
}

MappedNetlist mapToLuts(const Netlist& nl, unsigned k) {
  checkK(k);
  return mapGreedy(nl, k);
}

namespace {

MappedNetlist mapGreedy(const Netlist& nl, unsigned k) {
  MappedNetlist mapped;
  mapped.source = &nl;
  mapped.k = k;
  mapped.ffCount = nl.dffs().size();

  const auto fanout = nl.fanoutCounts();
  const auto order = nl.topoOrder();

  // cut[i]: frontier of the LUT cone currently rooted at gate i.
  std::vector<std::vector<NodeId>> cut(nl.nodeCount());
  std::vector<char> absorbed(nl.nodeCount(), 0);

  for (NodeId id : order) {
    const Node& n = nl.node(id);
    if (!isGate(n.op)) continue;

    // The mandatory frontier is every distinct fanin; then collapse
    // single-fanout gate fanins (absorbing them duplicates nothing) by
    // replacing the fanin with its own frontier, but only while the cut
    // stays within k — collapsing first and appending later fanins could
    // silently overflow the LUT input bound.
    std::vector<NodeId> leaves;
    for (NodeId f : n.fanin) {
      if (std::find(leaves.begin(), leaves.end(), f) == leaves.end()) {
        leaves.push_back(f);
      }
    }
    for (NodeId f : n.fanin) {
      const bool mergeable =
          isGate(nl.node(f).op) && fanout[f] == 1 && !cut[f].empty();
      if (!mergeable) continue;
      if (std::find(leaves.begin(), leaves.end(), f) == leaves.end()) {
        continue; // duplicate fanin, already merged
      }
      std::vector<NodeId> candidate;
      candidate.reserve(leaves.size() + cut[f].size());
      for (NodeId leaf : leaves) {
        if (leaf != f) candidate.push_back(leaf);
      }
      for (NodeId leaf : cut[f]) {
        if (std::find(candidate.begin(), candidate.end(), leaf) ==
            candidate.end()) {
          candidate.push_back(leaf);
        }
      }
      if (candidate.size() <= k) {
        leaves = std::move(candidate);
        absorbed[f] = 1;
      }
    }
    if (leaves.size() > k) {
      // Only possible when the gate's own distinct-fanin frontier exceeds
      // k and no merge shrank it (a 3-input Mux at k=2 whose cones share
      // no support); refuse rather than emit an oversized LUT.
      throw std::invalid_argument(
          "mapToLuts: cone rooted at " + std::string(opName(n.op)) + " (n" +
          std::to_string(id) + ") needs more than k inputs");
    }
    cut[id] = std::move(leaves);
  }

  // LUT roots: gates not absorbed into a consumer.
  // First compute levels for sources.
  std::vector<unsigned> level(nl.nodeCount(), 0);

  for (NodeId id : order) {
    const Node& n = nl.node(id);
    if (!isGate(n.op)) {
      if (n.op == Op::Output) level[id] = level[n.fanin[0]];
      continue;
    }
    if (absorbed[id]) continue;

    Lut lut;
    lut.root = id;
    lut.leaves = cut[id];

    // Truth table over the leaves.
    std::unordered_map<NodeId, unsigned> leafIndex;
    for (unsigned i = 0; i < lut.leaves.size(); ++i) {
      leafIndex[lut.leaves[i]] = i;
    }
    const unsigned vars = static_cast<unsigned>(lut.leaves.size());
    std::unordered_map<NodeId, std::uint64_t> memo;
    const std::uint64_t bits = coneTable(nl, id, vars, leafIndex, memo);
    lut.function = logic::TruthTable(vars, bits);

    unsigned lvl = 0;
    for (NodeId leaf : lut.leaves) lvl = std::max(lvl, level[leaf]);
    lut.level = lvl + 1;
    level[id] = lut.level;
    mapped.depth = std::max(mapped.depth, lut.level);

    mapped.lutOfRoot[id] = mapped.luts.size();
    mapped.luts.push_back(std::move(lut));
  }

  return mapped;
}

} // namespace

AreaReport areaOf(const MappedNetlist& mapped) {
  AreaReport a;
  a.luts = mapped.luts.size();
  a.ffs = mapped.ffCount;
  a.slices = std::max((a.luts + 1) / 2, (a.ffs + 1) / 2);
  return a;
}

} // namespace lis::techmap
