#pragma once
// FSM encoding and synthesis: lower an FsmSpec to gate-level logic in
// either one-hot or binary state encoding.
//
// Every next-state bit, Moore output and Mealy output becomes a sum of
// products over {state bits} ∪ {condition inputs}, minimized through
// logic/minimize with a don't-care set of the invalid state codes (the
// non-one-hot codes, or the unused tail of the binary code space). This is
// exactly where the two encodings trade area for logic depth — the numbers
// lis_bench's wrapper rows track (synth.sop_cubes, synth.sop_literals,
// map.slices, sta.fmax_mhz).
//
// Two consumers:
//   FsmInstance             registered instance inside a system netlist
//                           (buildSystem builds every shell and relay
//                           station as one, in place).
//                           Phase 1 (constructor) creates the state
//                           registers and the Moore logic; phase 2
//                           (elaborate) builds transition + Mealy logic
//                           once the condition-input nodes exist. The split
//                           lets shells and relay stations — whose stop
//                           outputs feed each other's condition inputs —
//                           compose without construction-order cycles
//                           (all cross-module signals are Moore).
//   fsmTransitionNetlist    a purely combinational netlist of the complete
//                           transition function over the *abstract* state
//                           index, identical in interface for both
//                           encodings, so checkCombEquivalence can prove
//                           the one-hot and binary control logic equal.

#include <span>
#include <string>
#include <unordered_map>

#include "lis/fsm.hpp"
#include "logic/minimize.hpp"
#include "netlist/buses.hpp"
#include "netlist/netlist.hpp"

namespace lis::sync {

enum class Encoding { OneHot, Binary };

const char* encodingName(Encoding e);

/// Process-wide FSM synthesis cache. buildMooreLogic/buildTransitionLogic
/// key on the spec's *content* (states, Moore words, transitions — not its
/// name or reset state) plus the encoding, so the hundreds of identical
/// shellFsm/relayFsm instances in a large system minimize each function
/// exactly once; later instances replay the cached covers (and validation)
/// into their own netlist. logic::minimize is deterministic, so cached
/// emission is gate-identical to a fresh run. Thread-safe, since runMany
/// elaborates designs concurrently: concurrent first-touch of one spec
/// blocks all but one computing thread.
/// Registry::global() counters: synth.cache_miss / synth.cache_hit /
/// synth.minimize_runs.
void synthCacheClear();
std::size_t synthCacheSize();

unsigned stateBitsFor(const FsmSpec& spec, Encoding enc);
std::uint64_t stateCode(const FsmSpec& spec, Encoding enc, unsigned state);

struct FsmSynthStats {
  std::size_t functions = 0; // minimized SOP functions emitted
  std::size_t cubesBefore = 0;
  std::size_t cubesAfter = 0;
  std::size_t literalsBefore = 0;
  std::size_t literalsAfter = 0;

  void accumulate(const logic::MinimizeStats& m);
  void accumulate(const FsmSynthStats& other);
};

/// Minimized Moore-output logic over explicit state-code nodes.
std::unordered_map<std::string, netlist::NodeId> buildMooreLogic(
    const FsmSpec& spec, Encoding enc, netlist::Netlist& nl,
    std::span<const netlist::NodeId> stateCode, FsmSynthStats* stats);

struct TransitionLogic {
  netlist::Bus nextState; // stateBitsFor() wide
  std::unordered_map<std::string, netlist::NodeId> mealy;
};

/// Minimized next-state and Mealy-output logic over explicit state-code and
/// condition-input nodes (inputNodes in FsmSpec::inputs order).
TransitionLogic buildTransitionLogic(const FsmSpec& spec, Encoding enc,
                                     netlist::Netlist& nl,
                                     std::span<const netlist::NodeId> stateCode,
                                     std::span<const netlist::NodeId> inputNodes,
                                     FsmSynthStats* stats);

/// A registered FSM inside a system netlist. The spec must outlive the
/// instance (it is consulted again by elaborate()).
class FsmInstance {
public:
  /// Phase 1: validate the spec, create the state registers (named
  /// `<prefix>_s*`, reset to the reset state's code) and the Moore logic.
  FsmInstance(const FsmSpec& spec, Encoding enc, netlist::Netlist& nl,
              std::string prefix);

  /// Phase 2: build transition + Mealy logic over the condition inputs
  /// (FsmSpec::inputs order) and close the state-register feedback loop.
  void elaborate(std::span<const netlist::NodeId> inputNodes);

  Encoding encoding() const { return enc_; }
  const netlist::Bus& stateRegs() const { return regs_; }
  /// Available from phase 1 / phase 2 respectively; throws on unknown name
  /// or (for mealy) before elaborate().
  netlist::NodeId moore(const std::string& name) const;
  netlist::NodeId mealy(const std::string& name) const;
  const FsmSynthStats& stats() const { return stats_; }

private:
  const FsmSpec* spec_;
  Encoding enc_;
  netlist::Netlist* nl_;
  netlist::Bus regs_;
  std::unordered_map<std::string, netlist::NodeId> moore_;
  std::unordered_map<std::string, netlist::NodeId> mealy_;
  FsmSynthStats stats_;
  bool elaborated_ = false;
};

/// Purely combinational transition-function netlist over the abstract state
/// index, for cross-encoding equivalence proofs. Inputs: s_* (binary state
/// index, LSB first) and the spec's condition inputs by name. Outputs:
/// ns_* (binary next-state index) and o_<name> for every Moore and Mealy
/// output. For out-of-range indices every output is forced to 0, so two
/// encodings of the same spec are equivalent on the full input space.
netlist::Netlist fsmTransitionNetlist(const FsmSpec& spec, Encoding enc);

} // namespace lis::sync
