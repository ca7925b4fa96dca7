#pragma once
// sync::Lockstep — the one per-cycle LIS traffic loop. Co-simulation
// (lis/cosim), fault injection (fault/fault) and counterexample replay
// (sat/pdr) run a synthesized netlist against its environment with the
// same discipline, and it lives here once:
//
//   readStops  settle the oracle (its wires are one phase stale after a
//              step), read every input channel's Moore stop on the gate
//              side and compare it with the oracle's
//   drive      apply one Stimulus (per-input valid/data, per-output
//              stall) to the gate side, the twin and the oracle
//   settle     settle every side, compare each output's valid (and its
//              data while valid) with the oracle, and record the cycle's
//              gate-side handshakes: accepted[i] = valid && !stop,
//              delivered[j] = out_valid && !stall
//   clock      clock the gate side and the twin, step the oracle
//
// The optional twin is a second simulator of the same netlist, driven
// alike and never compared: fault injection's fault-free reference. The
// first disagreement is kept in one wording for every client; after it
// the oracle is neither compared nor stepped again, while the gate side
// keeps running, so a client may stop (cosim, fault injection) or finish
// its trace (replay).
//
// RandomTraffic is the seeded environment cosim and fault injection
// share: persistent LIS sources (a token, once offered, holds valid and
// data until the design accepts it) and independent per-cycle sink
// stalls. Its draw order is part of every seeded result: inputs in index
// order (an offer draw while idle, a data draw when it offers), then one
// stall draw per output.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lis/oracle.hpp"
#include "netlist/netlist_sim.hpp"
#include "support/rng.hpp"

namespace lis::sync {

/// One cycle of environment: what each external input channel offers and
/// whether each external output channel stalls.
struct Stimulus {
  std::vector<char> valid;         // per input channel
  std::vector<std::uint64_t> data; // per input channel
  std::vector<char> stall;         // per output channel

  Stimulus(std::size_t numInputs, std::size_t numOutputs)
      : valid(numInputs, 0), data(numInputs, 0), stall(numOutputs, 0) {}
};

class Lockstep {
public:
  /// Gate-level simulator of `nl` seen through `ports`, reset. `oracle`
  /// (optional, reset here) must outlive the Lockstep and have the ports'
  /// channel counts (std::invalid_argument otherwise); `twin` adds the
  /// fault-free second simulator.
  Lockstep(const netlist::Netlist& nl, PortView ports,
           Oracle* oracle = nullptr, bool twin = false);

  std::size_t numInputs() const { return ports_.inValid.size(); }
  std::size_t numOutputs() const { return ports_.outValid.size(); }

  /// The four phases of one cycle. readStops and settle return agrees().
  bool readStops(std::uint64_t cycle);
  void drive(const Stimulus& s);
  bool settle(std::uint64_t cycle);
  void clock();

  /// Handshakes of the cycle's settle, per channel (1 = happened).
  const std::vector<char>& accepted() const { return accepted_; }
  const std::vector<char>& delivered() const { return delivered_; }

  bool agrees() const { return mismatch_.empty(); }
  /// The first disagreement, e.g. "cycle 7: out0_valid: gate=1
  /// behavioural=0"; empty while the sides agree.
  const std::string& mismatch() const { return mismatch_; }

  /// The compared simulator and the twin (fault hooks, horizon compare).
  netlist::NetlistSim& gate() { return gate_; }
  netlist::NetlistSim& twin() { return *twin_; }

private:
  void disagree(std::uint64_t cycle, const char* side, std::size_t channel,
                const char* signal, std::uint64_t gate, std::uint64_t beh,
                bool hex);

  netlist::NetlistSim gate_;
  std::optional<netlist::NetlistSim> twin_;
  PortView ports_;
  Oracle* oracle_;
  std::vector<char> stops_;
  std::vector<char> stalled_;
  std::vector<char> accepted_;
  std::vector<char> delivered_;
  std::string mismatch_;
};

/// Seeded LIS sources and sinks (see the header comment).
class RandomTraffic {
public:
  RandomTraffic(std::uint64_t seed, unsigned offerPercent,
                unsigned stallPercent, std::size_t numInputs,
                std::size_t numOutputs, unsigned dataWidth);

  /// This cycle's stimulus. A caller may override stall entries for this
  /// cycle; valid/data carry the held offers and must stay as drawn.
  Stimulus& draw();
  /// Completes the transfers the design accepted (Lockstep::accepted()).
  void retire(const std::vector<char>& accepted);
  /// Some source holds an offer the design has not accepted yet.
  bool offerHeld() const;

private:
  support::SplitMix64 rng_;
  unsigned offerPercent_;
  unsigned stallPercent_;
  std::uint64_t mask_;
  Stimulus stim_;
};

} // namespace lis::sync
