#pragma once
// Sequential equivalence for netlists that share a register/ROM skeleton —
// the proof obligation of the AIG optimization flow, which restructures
// combinational logic but never touches storage.
//
// combEnvelope turns a sequential netlist into a purely combinational one
// by cutting at the storage boundary: every DFF output becomes an input
// `__q<i>` (index in dffs() order), every RomBit output an input
// `__rom<id>_<bit>`, and the sinks gain outputs for every DFF data pin
// (`__d<i>`), enable pin (`__en<i>`) and RomBit address bit
// (`__addr<id>_<bit>_<j>`), alongside the original primary outputs.
//
// checkSeqEquivalence first matches the skeletons (DFF count and per-index
// reset/enable shape, ROM count and contents) and then proves the two
// envelopes equivalent with checkCombEquivalence — identical next-state,
// enable, address and output functions over identical storage implies the
// machines are cycle-accurate equivalents from reset. Envelope interfaces
// routinely exceed 64 inputs, which the combinational checker handles
// like any other width.

#include <string>

#include "netlist/equiv.hpp"
#include "netlist/netlist.hpp"

namespace lis::netlist {

/// Combinational envelope (see header comment). Throws
/// std::invalid_argument if two RomBit nodes share one (rom, bit) pair —
/// the name-based matching would be ambiguous.
Netlist combEnvelope(const Netlist& nl);

struct SeqEquivResult {
  bool equivalent = false;
  /// Human-readable reason when not equivalent (skeleton mismatch or the
  /// failing envelope output).
  std::string detail;
  /// Verdict provenance, forwarded from the envelope comparison (see
  /// EquivResult). Skeleton mismatches are Structural with confidence 1 —
  /// an exact disproof that never touches functions. A budget-degraded
  /// envelope screen reports method=Sim, degraded=true, confidence < 1.
  EquivMethod method = EquivMethod::Sat;
  double confidence = 1.0;
  bool degraded = false;
  ProofStats proof;
};

/// Prove two same-skeleton sequential netlists equivalent (see header
/// comment). DFFs are matched by dffs() index, ROMs by id.
SeqEquivResult checkSeqEquivalence(const Netlist& a, const Netlist& b,
                                   const EquivOptions& opts = {});

} // namespace lis::netlist
