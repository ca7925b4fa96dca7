#pragma once
// Sequential cone of influence: the part of a netlist that can affect a
// set of root nodes at any cycle.
//
// The cone is the transitive fanin of the roots through gates and through
// the data and enable pins of every DFF it reaches. It is closed under the
// transition relation, so simulating or unrolling the cone alone gives
// every root the value it has in the whole netlist, cycle for cycle, under
// the same inputs from reset. The proof engines run on cones: a LIS shell
// or relay station computes valid/stop from its own control state, so the
// pearls' datapath registers fall outside the protocol monitors' cones.

#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace lis::netlist {

struct Cone {
  /// The copy: named like the source; inputs and DFFs in source order,
  /// with their names and DFF reset values; the roots that are Output
  /// nodes are its only outputs (source order).
  Netlist netlist;
  /// Per source node: its copy, kNoNode outside the cone.
  std::vector<NodeId> toCone;
  /// Per cone node: the source node it copies (the lowest id when
  /// constant folding merged several), kNoNode for a constant the copy
  /// made itself.
  std::vector<NodeId> toSource;
};

/// Copy the sequential cone of `roots` out of `nl`. A root may be any
/// node; a non-root Output reached as a fanin reads through to its
/// driver. Throws std::out_of_range on a bad root.
Cone extractCone(const Netlist& nl, std::span<const NodeId> roots);

} // namespace lis::netlist
