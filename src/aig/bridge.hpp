#pragma once
// Netlist <-> AIG bridges for sequential designs.
//
// fromNetlist lifts the combinational logic of a netlist into one Aig,
// treating the registers as the boundary: primary inputs and DFF outputs
// become AIG PIs; primary outputs and DFF data/enable pins become AIG POs.
// The PI/PO orders are fixed and recorded, so any restructured Aig with the
// same shape (rewrite/balance preserve it) can be lowered back with
// toNetlist, which rebuilds the original register skeleton (same DFF order,
// resets, enables, names; same port names and order) around the new
// combinational structure.
//
// The PI order is: inputs() order, then dffs() order. The PO order is:
// outputs() order, then per DFF its data pin (and enable pin when present).

#include <vector>

#include "aig/aig.hpp"
#include "netlist/netlist.hpp"

namespace lis::aig {

struct SequentialAig {
  Aig aig;
  const netlist::Netlist* source = nullptr;
  /// PI i of `aig` reads this source node of the netlist.
  std::vector<netlist::NodeId> piSource;
};

/// Lift a netlist's combinational logic into an AIG (see header comment).
SequentialAig fromNetlist(const netlist::Netlist& nl);

/// Lower `sa.aig` (possibly a rewritten graph with the same PI/PO shape)
/// back to a netlist around the original sequential skeleton. Port names
/// and order and DFF order/resets/enables/names are preserved, so the
/// result is a drop-in replacement for `*sa.source`.
netlist::Netlist toNetlist(const SequentialAig& sa);

} // namespace lis::aig
