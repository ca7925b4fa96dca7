#include "lis/synth.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace lis::sync {

using logic::Cover;
using logic::Cube;
using netlist::Bus;
using netlist::BusBuilder;
using netlist::Netlist;
using netlist::NodeId;

const char* encodingName(Encoding e) {
  return e == Encoding::OneHot ? "onehot" : "binary";
}

unsigned stateBitsFor(const FsmSpec& spec, Encoding enc) {
  if (enc == Encoding::OneHot) return spec.numStates();
  return BusBuilder::bitsFor(spec.numStates() - 1);
}

std::uint64_t stateCode(const FsmSpec& spec, Encoding enc, unsigned state) {
  if (state >= spec.numStates()) {
    throw std::out_of_range("stateCode: state out of range");
  }
  if (enc == Encoding::OneHot) return std::uint64_t{1} << state;
  return state;
}

void FsmSynthStats::accumulate(const logic::MinimizeStats& m) {
  ++functions;
  cubesBefore += m.cubesBefore;
  cubesAfter += m.cubesAfter;
  literalsBefore += m.literalsBefore;
  literalsAfter += m.literalsAfter;
}

void FsmSynthStats::accumulate(const FsmSynthStats& other) {
  functions += other.functions;
  cubesBefore += other.cubesBefore;
  cubesAfter += other.cubesAfter;
  literalsBefore += other.literalsBefore;
  literalsAfter += other.literalsAfter;
}

namespace {

/// Cube fixing the state variables (vars [0, stateBits)) to `code`; all
/// other variables don't-care.
Cube codeCube(std::uint64_t code, unsigned stateBits, unsigned totalVars) {
  Cube c(totalVars);
  for (unsigned b = 0; b < stateBits; ++b) {
    c.setLiteral(b, ((code >> b) & 1u) != 0 ? Cube::Literal::Pos
                                            : Cube::Literal::Neg);
  }
  return c;
}

/// Don't-care set: every state-variable assignment that is not the code of
/// any state. One-hot: the all-zero word plus every word with >= 2 bits set
/// (covered pairwise). Binary: the unused tail of the code space.
Cover invalidCodeCover(const FsmSpec& spec, Encoding enc, unsigned stateBits,
                       unsigned totalVars) {
  Cover dc(totalVars);
  if (enc == Encoding::OneHot) {
    dc.add(codeCube(0, stateBits, totalVars));
    for (unsigned i = 0; i < stateBits; ++i) {
      for (unsigned j = i + 1; j < stateBits; ++j) {
        Cube c(totalVars);
        c.setLiteral(i, Cube::Literal::Pos);
        c.setLiteral(j, Cube::Literal::Pos);
        dc.add(std::move(c));
      }
    }
  } else {
    const std::uint64_t codes = std::uint64_t{1} << stateBits;
    for (std::uint64_t code = spec.numStates(); code < codes; ++code) {
      dc.add(codeCube(code, stateBits, totalVars));
    }
  }
  return dc;
}

/// Emit a minimized cover as sum-of-products gates. `vars[i]` drives cover
/// variable i; `notCache` shares inverters across the functions of one FSM.
NodeId emitSop(Netlist& nl, const Cover& cover, std::span<const NodeId> vars,
               std::vector<NodeId>& notCache) {
  if (cover.empty()) return nl.constant(false);
  std::vector<NodeId> terms;
  terms.reserve(cover.size());
  for (const Cube& cube : cover.cubes()) {
    std::vector<NodeId> lits;
    for (unsigned v = 0; v < cover.numVars(); ++v) {
      switch (cube.literal(v)) {
        case Cube::Literal::Pos:
          lits.push_back(vars[v]);
          break;
        case Cube::Literal::Neg:
          if (notCache[v] == netlist::kNoNode) notCache[v] = nl.mkNot(vars[v]);
          lits.push_back(notCache[v]);
          break;
        default:
          break;
      }
    }
    terms.push_back(lits.empty() ? nl.constant(true) : nl.andTree(lits));
  }
  return nl.orTree(terms);
}

/// Everything one (spec content, encoding) pair derives that is independent
/// of the target netlist: validation plus every minimized cover, in spec
/// output order. Shared across FsmInstances through the process-wide cache.
struct FsmSynthCovers {
  std::once_flag once;
  std::vector<Cover> moore;     // per spec.mooreOutputs entry
  FsmSynthStats mooreStats;     // replayed into buildMooreLogic callers
  std::vector<Cover> nextState; // per state bit
  std::vector<Cover> mealy;     // per spec.mealyOutputs entry
  FsmSynthStats transStats;     // replayed into buildTransitionLogic callers
};

std::mutex& synthCacheMutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, std::shared_ptr<FsmSynthCovers>>& synthCacheMap() {
  static std::map<std::string, std::shared_ptr<FsmSynthCovers>> cache;
  return cache;
}

/// Canonical serialization of the synthesis-relevant spec content. Name and
/// reset state are deliberately excluded: the covers are positional, and
/// reset only affects register initialization (a relay station seeded with
/// an initial token shares the unseeded station's logic).
std::string synthCacheKey(const FsmSpec& spec, Encoding enc) {
  std::string key(enc == Encoding::OneHot ? "o|" : "b|");
  key.reserve(64 + spec.transitions.size() * (8 + spec.numInputs()));
  const auto num = [&key](std::uint64_t v) {
    key += std::to_string(v);
    key += ',';
  };
  num(spec.numStates());
  num(spec.numInputs());
  num(spec.mooreOutputs.size());
  num(spec.mealyOutputs.size());
  key += '|';
  for (std::uint64_t m : spec.moore) num(m);
  key += '|';
  for (const FsmTransition& t : spec.transitions) {
    num(t.from);
    num(t.to);
    num(t.mealy);
    num(t.guard.numVars());
    const unsigned vars = std::min(spec.numInputs(), t.guard.numVars());
    for (unsigned v = 0; v < vars; ++v) {
      switch (t.guard.literal(v)) {
        case Cube::Literal::Pos: key += '1'; break;
        case Cube::Literal::Neg: key += '0'; break;
        case Cube::Literal::DontCare: key += '-'; break;
        default: key += '!'; break;
      }
    }
    key += ';';
  }
  return key;
}

/// Cache lookup + first-touch compute. Validates the spec and minimizes
/// every cover exactly once per distinct key; concurrent first callers
/// block on the entry's once_flag. A throwing compute (invalid spec) leaves
/// the flag unset, so every caller observes the exception.
const FsmSynthCovers& cachedCovers(const FsmSpec& spec, Encoding enc) {
  std::shared_ptr<FsmSynthCovers> entry;
  bool created = false;
  {
    std::lock_guard<std::mutex> lock(synthCacheMutex());
    auto [it, inserted] =
        synthCacheMap().try_emplace(synthCacheKey(spec, enc));
    if (inserted) it->second = std::make_shared<FsmSynthCovers>();
    entry = it->second;
    created = inserted;
  }
  obs::Registry::global().add(created ? "synth.cache_miss"
                                      : "synth.cache_hit");
  std::call_once(entry->once, [&spec, enc, &entry] {
    spec.validate();
    const unsigned stateBits = stateBitsFor(spec, enc);
    std::size_t minimizeRuns = 0;
    const auto minimizeInto = [&minimizeRuns](const Cover& onset,
                                              const Cover& dc,
                                              FsmSynthStats& stats) {
      logic::MinimizeStats ms;
      Cover minimized = logic::minimize(onset, dc, &ms);
      stats.accumulate(ms);
      ++minimizeRuns;
      return minimized;
    };

    // Moore covers: over the state bits only.
    {
      const Cover dc = invalidCodeCover(spec, enc, stateBits, stateBits);
      entry->moore.reserve(spec.mooreOutputs.size());
      for (std::size_t o = 0; o < spec.mooreOutputs.size(); ++o) {
        Cover onset(stateBits);
        for (unsigned s = 0; s < spec.numStates(); ++s) {
          if (((spec.moore[s] >> o) & 1u) != 0) {
            onset.add(
                codeCube(stateCode(spec, enc, s), stateBits, stateBits));
          }
        }
        entry->moore.push_back(minimizeInto(onset, dc, entry->mooreStats));
      }
    }

    // Next-state + Mealy covers: over state bits + condition inputs, one
    // onset each, filled in a single pass over the transitions.
    {
      const unsigned totalVars = stateBits + spec.numInputs();
      const Cover dc = invalidCodeCover(spec, enc, stateBits, totalVars);
      std::vector<Cover> nextOnset(stateBits, Cover(totalVars));
      std::vector<Cover> mealyOnset(spec.mealyOutputs.size(),
                                    Cover(totalVars));
      for (const FsmTransition& t : spec.transitions) {
        Cube c = codeCube(stateCode(spec, enc, t.from), stateBits,
                          totalVars);
        for (unsigned v = 0; v < spec.numInputs(); ++v) {
          c.setLiteral(stateBits + v, t.guard.literal(v));
        }
        const std::uint64_t toCode = stateCode(spec, enc, t.to);
        for (unsigned b = 0; b < stateBits; ++b) {
          if (((toCode >> b) & 1u) != 0) nextOnset[b].add(c);
        }
        for (std::size_t o = 0; o < spec.mealyOutputs.size(); ++o) {
          if (((t.mealy >> o) & 1u) != 0) mealyOnset[o].add(c);
        }
      }
      entry->nextState.reserve(stateBits);
      for (unsigned b = 0; b < stateBits; ++b) {
        entry->nextState.push_back(
            minimizeInto(nextOnset[b], dc, entry->transStats));
      }
      entry->mealy.reserve(spec.mealyOutputs.size());
      for (std::size_t o = 0; o < spec.mealyOutputs.size(); ++o) {
        entry->mealy.push_back(
            minimizeInto(mealyOnset[o], dc, entry->transStats));
      }
    }
    obs::Registry::global().add("synth.minimize_runs",
                                static_cast<double>(minimizeRuns));
  });
  return *entry;
}

} // namespace

void synthCacheClear() {
  std::lock_guard<std::mutex> lock(synthCacheMutex());
  synthCacheMap().clear();
}

std::size_t synthCacheSize() {
  std::lock_guard<std::mutex> lock(synthCacheMutex());
  return synthCacheMap().size();
}

std::unordered_map<std::string, NodeId> buildMooreLogic(
    const FsmSpec& spec, Encoding enc, Netlist& nl,
    std::span<const NodeId> stateCodeNodes, FsmSynthStats* stats) {
  const FsmSynthCovers& covers = cachedCovers(spec, enc);
  const unsigned stateBits = stateBitsFor(spec, enc);
  if (stateCodeNodes.size() != stateBits) {
    throw std::invalid_argument("buildMooreLogic: state-code width mismatch");
  }
  if (stats != nullptr) stats->accumulate(covers.mooreStats);
  std::vector<NodeId> notCache(stateBits, netlist::kNoNode);

  std::unordered_map<std::string, NodeId> out;
  for (std::size_t o = 0; o < spec.mooreOutputs.size(); ++o) {
    out[spec.mooreOutputs[o]] =
        emitSop(nl, covers.moore[o], stateCodeNodes, notCache);
  }
  return out;
}

TransitionLogic buildTransitionLogic(const FsmSpec& spec, Encoding enc,
                                     Netlist& nl,
                                     std::span<const NodeId> stateCodeNodes,
                                     std::span<const NodeId> inputNodes,
                                     FsmSynthStats* stats) {
  const FsmSynthCovers& covers = cachedCovers(spec, enc);
  const unsigned stateBits = stateBitsFor(spec, enc);
  if (stateCodeNodes.size() != stateBits ||
      inputNodes.size() != spec.inputs.size()) {
    throw std::invalid_argument("buildTransitionLogic: node span mismatch");
  }
  if (stats != nullptr) stats->accumulate(covers.transStats);
  const unsigned totalVars = stateBits + spec.numInputs();

  std::vector<NodeId> vars(stateCodeNodes.begin(), stateCodeNodes.end());
  vars.insert(vars.end(), inputNodes.begin(), inputNodes.end());
  std::vector<NodeId> notCache(totalVars, netlist::kNoNode);

  TransitionLogic out;
  out.nextState.resize(stateBits);
  for (unsigned b = 0; b < stateBits; ++b) {
    out.nextState[b] = emitSop(nl, covers.nextState[b], vars, notCache);
  }
  for (std::size_t o = 0; o < spec.mealyOutputs.size(); ++o) {
    out.mealy[spec.mealyOutputs[o]] =
        emitSop(nl, covers.mealy[o], vars, notCache);
  }
  return out;
}

FsmInstance::FsmInstance(const FsmSpec& spec, Encoding enc, Netlist& nl,
                         std::string prefix)
    : spec_(&spec), enc_(enc), nl_(&nl) {
  // Full structural validation runs once per distinct spec content inside
  // the synthesis cache (the key excludes resetState, so the one field that
  // varies between otherwise-identical specs is re-checked here).
  if (spec.states.empty()) {
    throw std::invalid_argument(spec.name + ": no states");
  }
  if (spec.resetState >= spec.numStates()) {
    throw std::invalid_argument(spec.name + ": reset state out of range");
  }
  cachedCovers(spec, enc);
  BusBuilder bb(nl);
  regs_ = bb.registerBus(stateBitsFor(spec, enc),
                         stateCode(spec, enc, spec.resetState),
                         prefix + "_s");
  moore_ = buildMooreLogic(spec, enc, nl, regs_, &stats_);
}

void FsmInstance::elaborate(std::span<const NodeId> inputNodes) {
  if (elaborated_) throw std::logic_error("FsmInstance: already elaborated");
  TransitionLogic t =
      buildTransitionLogic(*spec_, enc_, *nl_, regs_, inputNodes, &stats_);
  BusBuilder bb(*nl_);
  bb.connectRegister(regs_, t.nextState);
  mealy_ = std::move(t.mealy);
  elaborated_ = true;
}

NodeId FsmInstance::moore(const std::string& name) const {
  auto it = moore_.find(name);
  if (it == moore_.end()) {
    throw std::invalid_argument("FsmInstance: unknown Moore output " + name);
  }
  return it->second;
}

NodeId FsmInstance::mealy(const std::string& name) const {
  if (!elaborated_) {
    throw std::logic_error("FsmInstance: mealy() before elaborate()");
  }
  auto it = mealy_.find(name);
  if (it == mealy_.end()) {
    throw std::invalid_argument("FsmInstance: unknown Mealy output " + name);
  }
  return it->second;
}

Netlist fsmTransitionNetlist(const FsmSpec& spec, Encoding enc) {
  cachedCovers(spec, enc); // validates once per distinct spec content
  Netlist nl(spec.name + "_trans_" + encodingName(enc));
  BusBuilder bb(nl);

  const unsigned indexBits = BusBuilder::bitsFor(spec.numStates() - 1);
  const Bus index = bb.inputBus("s", indexBits);
  Bus inputs(spec.numInputs());
  for (unsigned v = 0; v < spec.numInputs(); ++v) {
    inputs[v] = nl.addInput(spec.inputs[v]);
  }

  // Decode the abstract index into this encoding's state code, and remember
  // which indices name a real state.
  const unsigned stateBits = stateBitsFor(spec, enc);
  std::vector<NodeId> isState(spec.numStates());
  for (unsigned s = 0; s < spec.numStates(); ++s) {
    isState[s] = bb.eqConst(index, s);
  }
  const NodeId valid = nl.orTree(isState);
  Bus code(stateBits);
  if (enc == Encoding::Binary) {
    code = index; // binary code == abstract index, same width
  } else {
    for (unsigned s = 0; s < spec.numStates(); ++s) code[s] = isState[s];
  }

  auto moore = buildMooreLogic(spec, enc, nl, code, nullptr);
  TransitionLogic trans =
      buildTransitionLogic(spec, enc, nl, code, inputs, nullptr);

  // Re-encode the next state as an abstract index. Binary: the code is the
  // index. One-hot: index bit b = OR of the one-hot bits of states with bit
  // b set in their index.
  Bus nextIndex(indexBits);
  if (enc == Encoding::Binary) {
    nextIndex = trans.nextState;
  } else {
    for (unsigned b = 0; b < indexBits; ++b) {
      std::vector<NodeId> terms;
      for (unsigned s = 0; s < spec.numStates(); ++s) {
        if (((s >> b) & 1u) != 0) terms.push_back(trans.nextState[s]);
      }
      nextIndex[b] = terms.empty() ? nl.constant(false) : nl.orTree(terms);
    }
  }

  // Out-of-range indices would exercise the don't-care logic, which differs
  // between encodings by construction; force everything to 0 there so the
  // two netlists agree on the full Boolean input space.
  for (unsigned b = 0; b < indexBits; ++b) {
    nl.addOutput("ns_" + std::to_string(b), nl.mkAnd(valid, nextIndex[b]));
  }
  for (const std::string& name : spec.mooreOutputs) {
    nl.addOutput("o_" + name, nl.mkAnd(valid, moore.at(name)));
  }
  for (const std::string& name : spec.mealyOutputs) {
    nl.addOutput("o_" + name, nl.mkAnd(valid, trans.mealy.at(name)));
  }
  return nl;
}

} // namespace lis::sync
