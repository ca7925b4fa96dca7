#pragma once
// Structural Verilog-2001 emission for the gate-level IR — the emitter the
// netlist.hpp header comment promises. One module per netlist:
//
//   * `clk` and `rst` ports are added iff the netlist has registers; every
//     Dff becomes an always @(posedge clk) block with a synchronous reset
//     to its resetValue and an optional clock enable.
//   * Combinational gates become continuous assigns (~ & | ^ ?:).
//   * Port and register names are sanitized to legal identifiers and
//     uniquified; a name that is a Verilog-2001 keyword (or `clk`/`rst`)
//     gets a suffix. Anonymous nodes are named n<id>.

#include <string>

#include "netlist/netlist.hpp"

namespace lis::netlist {

std::string emitVerilog(const Netlist& nl);

} // namespace lis::netlist
