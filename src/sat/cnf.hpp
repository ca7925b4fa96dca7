#pragma once
// AIG-aware CNF encoding.
//
// AigCnf is a lazy Tseitin encoder of one aig::Aig into a sat::Solver:
// lit(l) returns the solver literal computing AIG literal `l`, encoding
// the cone below it on first use. The encoding exploits the AIG
// representation directly — shared AND nodes get exactly one variable,
// complemented edges are free literal negations, and single-fanout
// chains of non-complemented AND fanins are flattened into one k-input
// AND gate (2 clauses per conjunct + one wide clause, instead of 3
// clauses per 2-input node), so the strashed sharing the optimizer
// worked for carries straight into the CNF. Constants lazily allocate a
// single unit-forced variable. The Aig may keep growing after
// construction (the sweep engine encodes the graph it is rebuilding,
// the equivalence checker appends output miters); nodes unseen at
// construction simply don't participate in flattening.
//
// Unroller is the sequential companion: it encodes frame after frame of
// an aig::SequentialAig (the fromNetlist lift of a sequential netlist),
// linking each DFF's frame-k data pin to its frame-k+1 output and
// seeding frame 0 from the reset values. Frame-0 constants propagate
// eagerly: the per-frame encoding folds constant fanins while cloning
// the transition function, so the cone reachable from reset state
// shrinks as it is unrolled instead of being encoded blindly. Inputs
// can be forced to constants across all frames (the BMC watchdog's
// "sink never stalls" environment). ROMs are not supported.
//
// ConeAig is what the proof engines unroll: the sequential cone of the
// properties' fail outputs (netlist::extractCone), lifted to an AIG, so
// logic no property reads never becomes solver variables.
//
// appendCombinational lowers the combinational logic of a netlist into
// an existing Aig — the shared front-end for SAT equivalence miters
// (two netlists lowered into one Aig over shared inputs).

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/bridge.hpp"
#include "netlist/cone.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace lis::sat {

class AigCnf {
public:
  /// Conjuncts folded into one flattened AND gate, at most.
  static constexpr std::size_t kMaxFlatten = 16;

  AigCnf(Solver& solver, const aig::Aig& aig);

  /// Solver literal computing AIG literal `l` (cone encoded on demand).
  Lit lit(aig::Lit l);

  /// Solver literal of AIG PI `i`; encodes nothing else.
  Lit piLit(std::size_t i) { return lit(aig::makeLit(aig_.piNode(i), false)); }

  Solver& solver() { return solver_; }

private:
  Lit constLit(bool value);
  void encodeNode(std::uint32_t node);
  /// Flatten `node`'s AND tree into conjunct literals (see header).
  void collectConjuncts(std::uint32_t node, std::vector<aig::Lit>& out);

  Solver& solver_;
  const aig::Aig& aig_;
  std::vector<std::uint32_t> fanout_; // at construction; 0 past the end
  std::vector<Lit> litOf_;            // per node; kLitUndef = not encoded
  Lit constFalse_ = kLitUndef;
};

/// Force an input to a constant in every unrolled frame.
struct ForcedInput {
  netlist::NodeId input = netlist::kNoNode;
  bool value = false;
};

class Unroller {
public:
  /// `sa` (and its source netlist) must outlive the unroller. Throws
  /// std::invalid_argument when the design has ROMs. With
  /// `freeInitialState` frame 0 starts from a fresh unconstrained
  /// variable per DFF instead of the reset values — the transition
  /// relation form the induction step and PDR consecution queries need
  /// (reset-constant folding is then disabled for frame 0).
  Unroller(Solver& solver, const aig::SequentialAig& sa,
           std::vector<ForcedInput> forced = {},
           bool freeInitialState = false);

  unsigned frames() const { return static_cast<unsigned>(frames_.size()); }

  /// Encode the next frame's transition function into the solver.
  void pushFrame();

  /// Solver literal of primary input `id` at `frame` (throws when the
  /// input is forced — a forced input has no variable to branch on).
  Lit inputLit(unsigned frame, netlist::NodeId id) const;

  /// Solver literal of primary output `id` at `frame`.
  Lit outputLit(unsigned frame, netlist::NodeId id) const;

  std::size_t numDffs() const { return initState_.size(); }

  /// Solver literal of DFF `dffIndex`'s state entering `frame` (frame 0
  /// is the initial state — reset constants, or fresh variables with
  /// freeInitialState). `frame == frames()` names the state the last
  /// pushed frame transitions into.
  Lit stateLit(unsigned frame, std::size_t dffIndex) const {
    return frame == 0 ? initState_.at(dffIndex)
                      : frames_.at(frame - 1).nextState.at(dffIndex);
  }

  /// Reset value of DFF `dffIndex` in the source netlist.
  bool resetValue(std::size_t dffIndex) const;

  /// Constant literals shared by all frames.
  Lit trueLit() const { return constTrue_; }
  Lit falseLit() const { return litNeg(constTrue_); }

private:
  struct Frame {
    std::vector<Lit> inputOf;  // per netlist input index; kLitUndef = forced
    std::vector<Lit> outputOf; // per netlist output index
    std::vector<Lit> nextState; // per DFF index: literal of frame+1 state
  };

  Frame encodeFrame(const std::vector<Lit>& piOf);

  Solver& solver_;
  const aig::SequentialAig& sa_;
  std::vector<ForcedInput> forced_;
  std::vector<Frame> frames_;
  std::vector<Lit> state_;     // per DFF index: current-frame state literal
  std::vector<Lit> initState_; // per DFF index: frame-0 state literal
  Lit constTrue_ = kLitUndef;
  std::unordered_map<netlist::NodeId, std::size_t> inputIndex_;
  std::unordered_map<netlist::NodeId, std::size_t> outputIndex_;
  // PO index of each DFF's data (and enable) pin in sa_.aig.pos().
  std::vector<std::size_t> dffDataPo_;
  std::vector<std::size_t> dffEnablePo_; // SIZE_MAX = no enable
};

/// One unrolling's model: the cone of `roots` in `nl`, its AIG, and the
/// `forced` inputs that fall inside the cone, translated to cone ids (an
/// input outside the cone cannot influence the roots, and the Unroller
/// rejects a node that is not one of its inputs). Throws
/// std::invalid_argument when a forced node is not an input of `nl`.
/// Pinned in memory: `sa.source` points at `cone.netlist`.
struct ConeAig {
  ConeAig(const netlist::Netlist& nl, std::span<const netlist::NodeId> roots,
          std::span<const ForcedInput> forced = {});
  ConeAig(const ConeAig&) = delete;
  ConeAig& operator=(const ConeAig&) = delete;

  netlist::Cone cone;
  aig::SequentialAig sa;
  std::vector<ForcedInput> forced;
};

/// Lower the combinational logic of `nl` into `aig`: `inputLit(id)`
/// supplies the AIG literal of each primary input; the returned vector
/// holds one AIG literal per nl.outputs() entry. DFFs are rejected
/// (lift sequential designs through aig::fromNetlist instead); RomBits
/// are expanded into their address-minterm form, reading words past what
/// the wired address bits can select as 0, as BitSim does.
std::vector<aig::Lit> appendCombinational(
    aig::Aig& aig, const netlist::Netlist& nl,
    const std::function<aig::Lit(netlist::NodeId)>& inputLit);

} // namespace lis::sat
