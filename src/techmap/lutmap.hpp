#pragma once
// LUT technology mapping: cover the combinational gates of a netlist with
// k-input LUTs (k = 4 by default, matching the 2005-era FPGAs the paper
// reports slices for).
//
// Two mappers share the MappedNetlist result shape:
//
//   * rounds == 0 — the legacy greedy single-fanout cone collapser: every
//     gate lands in exactly one LUT cone (tree cover, no duplication, dead
//     logic included). Kept as the baseline the bench's *_opt rows are
//     measured against.
//
//   * rounds >= 1 — ABC-style iterated priority-cut mapping: per-node
//     k-feasible priority cuts (with per-cut truth tables), a
//     depth-optimal first round, then area-recovery rounds — an area-flow
//     re-selection first, exact-local-area re-selections (measured by
//     reference/dereference on the chosen-cut lattice) after — each
//     constrained by the required times of the previous cover so the
//     mapped depth never regresses. Only logic reachable from the
//     outputs/registers/ROM addresses is covered (dead gates map to no
//     LUT), and a cut interior node may be duplicated into several LUTs
//     when that is the cheaper cover.
//
// Cut enumeration is level-synchronous: nodes of one structural level have
// independent cut sets, so MapOptions::runner (wired to flow::Executor by
// the MapLuts pass) fans each level out across the pool. The chosen cover
// is a pure function of (netlist, options) — identical at any job count.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "logic/truthtable.hpp"
#include "netlist/netlist.hpp"

namespace lis::techmap {

struct Lut {
  netlist::NodeId root = netlist::kNoNode;
  std::vector<netlist::NodeId> leaves; // inputs of the LUT, variable order
  logic::TruthTable function;          // over `leaves`
  unsigned level = 0;                  // LUT depth from sequential/primary sources
};

struct MappedNetlist {
  const netlist::Netlist* source = nullptr;
  unsigned k = 4;
  std::vector<Lut> luts;
  /// Index into `luts` by root node; nodes absorbed into a LUT are absent.
  std::unordered_map<netlist::NodeId, std::size_t> lutOfRoot;
  std::size_t ffCount = 0;
  std::size_t romBits = 0;
  unsigned depth = 0; // max LUT level

  bool isLutRoot(netlist::NodeId id) const {
    return lutOfRoot.find(id) != lutOfRoot.end();
  }
};

struct MapOptions {
  unsigned k = 4;
  /// 0: legacy greedy cone collapsing. >= 1: priority-cut mapping with
  /// `rounds` selection rounds (1 = depth-optimal only, 2 adds an
  /// area-flow recovery round, 3+ add exact-area recovery rounds).
  unsigned rounds = 0;
  /// Priority cut list bound per node (>= 2; the trivial cut rides along).
  unsigned cutsPerNode = 8;
  /// Parallel-for hook for level-synchronous cut enumeration: runner(n, f)
  /// must invoke f(0..n-1) (any order, possibly concurrently) and return
  /// when all are done. Null enumerates serially. The cover is identical
  /// either way.
  std::function<void(std::size_t, const std::function<void(std::size_t)>&)>
      runner;
};

/// Map all combinational gates to k-LUTs. Throws on k < 2 or k > 6.
MappedNetlist mapToLuts(const netlist::Netlist& nl, unsigned k = 4);

/// Option-struct front end: dispatches on options.rounds (see above).
MappedNetlist mapToLuts(const netlist::Netlist& nl, const MapOptions& options);

/// Slice-level area, Virtex-II style: a slice holds 2 LUTs and 2 FFs which
/// can be used independently, so slices = max(ceil(L/2), ceil(F/2)).
struct AreaReport {
  std::size_t luts = 0;
  std::size_t ffs = 0;
  std::size_t slices = 0;
  std::size_t romBits = 0;
  /// LUT-ROM equivalent slices if the ROM were folded into fabric
  /// (16 bits per LUT, 2 LUTs per slice); reported separately because the
  /// paper's constant "24 slices" is the SP datapath with the program
  /// memory kept in dedicated memory.
  std::size_t romEquivalentSlices = 0;
};

AreaReport areaOf(const MappedNetlist& mapped);

} // namespace lis::techmap
