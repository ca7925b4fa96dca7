#include "sat/cnf.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lis::sat {

// ---------------------------------------------------------------------------
// AigCnf

AigCnf::AigCnf(Solver& solver, const aig::Aig& aig)
    : solver_(solver), aig_(aig), fanout_(aig.fanoutCounts()),
      litOf_(aig.nodeCount(), kLitUndef) {}

Lit AigCnf::constLit(bool value) {
  if (constFalse_ == kLitUndef) {
    constFalse_ = mkLit(solver_.newVar(), false);
    solver_.addClause({litNeg(constFalse_)});
  }
  return value ? litNeg(constFalse_) : constFalse_;
}

Lit AigCnf::lit(aig::Lit l) {
  const std::uint32_t node = aig::litNode(l);
  if (aig_.isConst(node)) return constLit(aig::litIsCompl(l));
  if (litOf_.size() < aig_.nodeCount()) {
    litOf_.resize(aig_.nodeCount(), kLitUndef);
  }
  if (litOf_[node] == kLitUndef) encodeNode(node);
  return litOf_[node] ^ static_cast<Lit>(l & 1u);
}

void AigCnf::collectConjuncts(std::uint32_t node,
                              std::vector<aig::Lit>& out) {
  out.clear();
  // Worklist of fanin literals still to place; a non-complemented,
  // single-fanout AND fanin dissolves into its own fanins instead of
  // becoming a conjunct of the flattened gate.
  std::vector<aig::Lit> work;
  const aig::Aig::Node& n = aig_.node(node);
  work.push_back(n.fanin1);
  work.push_back(n.fanin0);
  while (!work.empty()) {
    const aig::Lit f = work.back();
    work.pop_back();
    const std::uint32_t fn = aig::litNode(f);
    const bool expandable = !aig::litIsCompl(f) && aig_.isAnd(fn) &&
                            fn < fanout_.size() && fanout_[fn] == 1 &&
                            out.size() + work.size() + 2 <= kMaxFlatten;
    if (expandable) {
      const aig::Aig::Node& fnode = aig_.node(fn);
      work.push_back(fnode.fanin1);
      work.push_back(fnode.fanin0);
    } else {
      out.push_back(f);
    }
  }
}

void AigCnf::encodeNode(std::uint32_t root) {
  std::vector<std::uint32_t> stack{root};
  std::vector<aig::Lit> conjuncts;
  std::vector<Lit> clause;
  while (!stack.empty()) {
    const std::uint32_t node = stack.back();
    if (litOf_[node] != kLitUndef) {
      stack.pop_back();
      continue;
    }
    if (aig_.isPi(node)) {
      litOf_[node] = mkLit(solver_.newVar(), false);
      stack.pop_back();
      continue;
    }
    collectConjuncts(node, conjuncts);
    bool ready = true;
    for (const aig::Lit c : conjuncts) {
      const std::uint32_t cn = aig::litNode(c);
      if (litOf_[cn] == kLitUndef) {
        if (ready) ready = false;
        stack.push_back(cn);
      }
    }
    if (!ready) continue;
    const Lit v = mkLit(solver_.newVar(), false);
    clause.clear();
    clause.push_back(v);
    for (const aig::Lit c : conjuncts) {
      const Lit cl = litOf_[aig::litNode(c)] ^ static_cast<Lit>(c & 1u);
      solver_.addClause({litNeg(v), cl});
      clause.push_back(litNeg(cl));
    }
    solver_.addClause(clause);
    litOf_[node] = v;
    stack.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Unroller

Unroller::Unroller(Solver& solver, const aig::SequentialAig& sa,
                   std::vector<ForcedInput> forced, bool freeInitialState)
    : solver_(solver), sa_(sa), forced_(std::move(forced)) {
  if (!sa_.romBits.empty()) {
    throw std::invalid_argument("sat::Unroller: ROMs are not supported");
  }
  const netlist::Netlist& nl = *sa_.source;
  constTrue_ = mkLit(solver_.newVar(), false);
  solver_.addClause({constTrue_});

  const auto& inputs = nl.inputs();
  for (std::size_t i = 0; i < inputs.size(); i++) inputIndex_[inputs[i]] = i;
  const auto& outputs = nl.outputs();
  for (std::size_t i = 0; i < outputs.size(); i++) {
    outputIndex_[outputs[i]] = i;
  }
  for (const ForcedInput& f : forced_) {
    if (!inputIndex_.contains(f.input)) {
      throw std::invalid_argument("sat::Unroller: forced node is not an input");
    }
  }

  const auto& dffs = nl.dffs();
  std::size_t po = outputs.size();
  dffDataPo_.reserve(dffs.size());
  dffEnablePo_.reserve(dffs.size());
  state_.reserve(dffs.size());
  for (const netlist::NodeId d : dffs) {
    dffDataPo_.push_back(po++);
    dffEnablePo_.push_back(nl.node(d).hasEnable ? po++ : SIZE_MAX);
    if (freeInitialState) {
      state_.push_back(mkLit(solver_.newVar(), false));
    } else {
      state_.push_back(nl.node(d).resetValue ? trueLit() : falseLit());
    }
  }
  initState_ = state_;
}

bool Unroller::resetValue(std::size_t dffIndex) const {
  return sa_.source->node(sa_.source->dffs().at(dffIndex)).resetValue;
}

Unroller::Frame Unroller::encodeFrame(const std::vector<Lit>& piOf) {
  const aig::Aig& g = sa_.aig;
  const Lit lTrue = trueLit();
  const Lit lFalse = falseLit();
  // Per-AIG-node solver literal for this frame; constants stay the
  // shared constant literal, so reset-state cones fold as they unroll.
  std::vector<Lit> val(g.nodeCount(), kLitUndef);
  val[0] = lFalse;
  for (std::size_t i = 0; i < g.numPis(); i++) val[g.piNode(i)] = piOf[i];
  for (std::uint32_t n = 0; n < g.nodeCount(); n++) {
    if (!g.isAnd(n)) continue;
    const aig::Aig::Node& node = g.node(n);
    const Lit a =
        val[aig::litNode(node.fanin0)] ^ static_cast<Lit>(node.fanin0 & 1u);
    const Lit b =
        val[aig::litNode(node.fanin1)] ^ static_cast<Lit>(node.fanin1 & 1u);
    if (a == lFalse || b == lFalse || a == litNeg(b)) {
      val[n] = lFalse;
    } else if (a == lTrue) {
      val[n] = b;
    } else if (b == lTrue || a == b) {
      val[n] = a;
    } else {
      const Lit v = mkLit(solver_.newVar(), false);
      solver_.addClause({litNeg(v), a});
      solver_.addClause({litNeg(v), b});
      solver_.addClause({v, litNeg(a), litNeg(b)});
      val[n] = v;
    }
  }
  const auto poVal = [&](std::size_t i) {
    const aig::Lit l = g.pos()[i];
    return val[aig::litNode(l)] ^ static_cast<Lit>(l & 1u);
  };

  Frame frame;
  frame.inputOf = piOf; // overwritten below for state PIs; see pushFrame
  const std::size_t numOutputs = outputIndex_.size();
  frame.outputOf.reserve(numOutputs);
  for (std::size_t i = 0; i < numOutputs; i++) {
    frame.outputOf.push_back(poVal(i));
  }
  frame.nextState.reserve(state_.size());
  for (std::size_t j = 0; j < state_.size(); j++) {
    const Lit d = poVal(dffDataPo_[j]);
    Lit next;
    if (dffEnablePo_[j] == SIZE_MAX) {
      next = d;
    } else {
      const Lit en = poVal(dffEnablePo_[j]);
      const Lit q = state_[j];
      if (en == lTrue || d == q) {
        next = d;
      } else if (en == lFalse) {
        next = q;
      } else {
        const Lit t = mkLit(solver_.newVar(), false);
        solver_.addClause({litNeg(en), litNeg(d), t});
        solver_.addClause({litNeg(en), d, litNeg(t)});
        solver_.addClause({en, litNeg(q), t});
        solver_.addClause({en, q, litNeg(t)});
        next = t;
      }
    }
    frame.nextState.push_back(next);
  }
  return frame;
}

void Unroller::pushFrame() {
  const netlist::Netlist& nl = *sa_.source;
  const std::size_t numInputs = nl.inputs().size();
  std::vector<Lit> piOf(sa_.piSource.size(), kLitUndef);
  std::vector<Lit> inputOf(numInputs, kLitUndef);
  std::size_t dffIdx = 0;
  for (std::size_t i = 0; i < sa_.piSource.size(); i++) {
    const netlist::NodeId src = sa_.piSource[i];
    if (nl.node(src).op == netlist::Op::Input) {
      Lit l = kLitUndef;
      for (const ForcedInput& f : forced_) {
        if (f.input == src) {
          l = f.value ? trueLit() : falseLit();
          break;
        }
      }
      const bool isForced = l != kLitUndef;
      if (!isForced) l = mkLit(solver_.newVar(), false);
      piOf[i] = l;
      inputOf[inputIndex_.at(src)] = isForced ? kLitUndef : l;
    } else {
      piOf[i] = state_[dffIdx++];
    }
  }
  Frame frame = encodeFrame(piOf);
  frame.inputOf = std::move(inputOf);
  state_ = frame.nextState;
  frames_.push_back(std::move(frame));
}

Lit Unroller::inputLit(unsigned frame, netlist::NodeId id) const {
  const Lit l = frames_.at(frame).inputOf.at(inputIndex_.at(id));
  if (l == kLitUndef) {
    throw std::invalid_argument("sat::Unroller: input is forced");
  }
  return l;
}

Lit Unroller::outputLit(unsigned frame, netlist::NodeId id) const {
  return frames_.at(frame).outputOf.at(outputIndex_.at(id));
}

// ---------------------------------------------------------------------------
// appendCombinational

std::vector<aig::Lit> appendCombinational(
    aig::Aig& aig, const netlist::Netlist& nl,
    const std::function<aig::Lit(netlist::NodeId)>& inputLit) {
  std::vector<aig::Lit> litOf(nl.nodes().size(), aig::kLitFalse);
  for (const netlist::NodeId id : nl.topoOrder()) {
    const netlist::Node& n = nl.node(id);
    switch (n.op) {
    case netlist::Op::Input:
      litOf[id] = inputLit(id);
      break;
    case netlist::Op::Const0:
      litOf[id] = aig::kLitFalse;
      break;
    case netlist::Op::Const1:
      litOf[id] = aig::kLitTrue;
      break;
    case netlist::Op::Not:
      litOf[id] = aig::litNot(litOf[n.fanin[0]]);
      break;
    case netlist::Op::And:
      litOf[id] = aig.addAnd(litOf[n.fanin[0]], litOf[n.fanin[1]]);
      break;
    case netlist::Op::Or:
      litOf[id] = aig.addOr(litOf[n.fanin[0]], litOf[n.fanin[1]]);
      break;
    case netlist::Op::Xor:
      litOf[id] = aig.addXor(litOf[n.fanin[0]], litOf[n.fanin[1]]);
      break;
    case netlist::Op::Mux:
      litOf[id] = aig.addMux(litOf[n.fanin[0]], litOf[n.fanin[1]],
                             litOf[n.fanin[2]]);
      break;
    case netlist::Op::Output:
      litOf[id] = litOf[n.fanin[0]];
      break;
    case netlist::Op::RomBit: {
      // Sum of address minterms; words past what the wired address bits
      // can select read as 0 (same rule as BitSim).
      const netlist::Rom& rom = nl.rom(n.romId);
      std::uint64_t depth = rom.words.size();
      if (n.fanin.size() < 64) {
        depth = std::min(depth, std::uint64_t{1} << n.fanin.size());
      }
      aig::Lit f = aig::kLitFalse;
      for (std::uint64_t addr = 0; addr < depth; ++addr) {
        if (((rom.words[addr] >> n.romBit) & 1u) == 0) continue;
        aig::Lit minterm = aig::kLitTrue;
        for (std::size_t i = 0; i < n.fanin.size(); ++i) {
          const aig::Lit bit = litOf[n.fanin[i]];
          minterm = aig.addAnd(
              minterm, ((addr >> i) & 1u) != 0 ? bit : aig::litNot(bit));
        }
        f = aig.addOr(f, minterm);
      }
      litOf[id] = f;
      break;
    }
    case netlist::Op::Dff:
      throw std::invalid_argument(
          "sat::appendCombinational: sequential netlist (Dff node " +
          std::to_string(id) + ")");
    }
  }
  std::vector<aig::Lit> outs;
  outs.reserve(nl.outputs().size());
  for (const netlist::NodeId o : nl.outputs()) outs.push_back(litOf[o]);
  return outs;
}

} // namespace lis::sat
