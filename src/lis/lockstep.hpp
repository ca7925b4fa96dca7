#pragma once
// sync::Lockstep — the one per-cycle LIS traffic loop. Co-simulation
// (lis/cosim), fault injection (fault/fault) and counterexample replay
// (sat/pdr) run a synthesized netlist against its environment with the
// same discipline, and it lives here once. The gate side is one
// netlist::BitSim whose lanes are independent traffic streams: each lane
// has its own Stimulus, optional Oracle, handshakes and first
// disagreement, and one settle pass advances every lane.
//
//   readStops  settle each live oracle (its wires are one phase stale
//              after a step), read every lane's input-channel Moore stops
//              on the gate side and compare them with the lane's oracle
//   drive      apply one lane's Stimulus (per-input valid/data, per-output
//              stall) to its gate lane, its twin lane and its oracle
//   settle     settle the gate side's input cone, compare each lane's
//              output valid (and data while valid) with its oracle, and
//              record the lane's handshakes: accepted[i] = valid && !stop,
//              delivered[j] = out_valid && !stall
//   clock      latch the gate side and settle its state cone, step every
//              live oracle
//
// So each cycle evaluates the netlist once (netlist::BitSim's two cones):
// the state cone holds every stop readStops reads, and the input cone
// everything drive can change. Stops must therefore be Moore outputs; the
// constructor refuses a stop an input reaches combinationally. A client
// that forces, clears or pokes a gate node calls gate().settle() before
// the next readStops.
//
// Lane layout: with n lanes, the compared lanes are bits 0..n-1 of the one
// BitSim word. The optional twin is fault injection's fault-free
// reference: lane i's twin is bit n+i, driven alike and never compared,
// so the twins cost no extra settle. Everything fits one word (n <= 64,
// or n <= 32 with twins). Cosim runs one lane per shard and replay one
// lane; fault injection packs a batch of experiments (fault/campaign.hpp).
//
// A lane's oracle is live until the lane's first disagreement, which is
// kept in one wording for every client, or until the client finishes the
// lane. After either it is neither compared nor stepped again, while the
// gate side keeps running: a client may stop (cosim, fault injection) or
// finish its trace (replay, which still reads the handshakes). A finished
// lane drops out completely: its stops and handshakes are no longer read.
//
// RandomTraffic is the seeded environment cosim and fault injection
// share: persistent LIS sources (a token, once offered, holds valid and
// data until the design accepts it) and independent per-cycle sink
// stalls. Its draw order is part of every seeded result: inputs in index
// order (an offer draw while idle, a data draw when it offers), then one
// stall draw per output. Each lane draws from its own RandomTraffic.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lis/oracle.hpp"
#include "netlist/bitsim.hpp"
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
  /// Gate side of `nl` seen through `ports`, reset, with one lane per
  /// entry of `oracles`. A non-null oracle (reset here) is its lane's
  /// reference and must outlive the Lockstep; a null one leaves the lane
  /// unchecked. `twin` adds a fault-free twin lane per lane. Throws
  /// std::invalid_argument for no lanes, more lanes than one word holds,
  /// a data bus wider than 64 bits, an input-channel stop that is not a
  /// Moore output, or an oracle whose channel counts differ from the
  /// ports'.
  Lockstep(const netlist::Netlist& nl, PortView ports,
           std::vector<Oracle*> oracles, bool twin = false);

  std::size_t numLanes() const { return lanes_.size(); }
  std::size_t numInputs() const { return ports_.inValid.size(); }
  std::size_t numOutputs() const { return ports_.outValid.size(); }

  /// Gate-side lane mask of `lane`; its twin's is laneBit(numLanes() +
  /// lane) (see the layout above).
  static std::uint64_t laneBit(std::size_t lane) {
    return std::uint64_t{1} << lane;
  }

  /// The four phases of one cycle. readStops and settle return true while
  /// every lane agrees.
  bool readStops(std::uint64_t cycle);
  void drive(std::size_t lane, const Stimulus& s);
  bool settle(std::uint64_t cycle);
  void clock();

  /// Drop `lane` out of the loop (see the header comment).
  void finish(std::size_t lane);

  /// Handshakes of the cycle's settle, per channel (1 = happened).
  const std::vector<char>& accepted(std::size_t lane) const {
    return lanes_[lane].accepted;
  }
  const std::vector<char>& delivered(std::size_t lane) const {
    return lanes_[lane].delivered;
  }

  bool agrees(std::size_t lane) const { return lanes_[lane].mismatch.empty(); }
  /// The lane's first disagreement, e.g. "cycle 7: out0_valid: gate=1
  /// behavioural=0"; empty while the lane agrees.
  const std::string& mismatch(std::size_t lane) const {
    return lanes_[lane].mismatch;
  }

  /// The gate side: fault hooks (lane-masked forces and pokes) and the
  /// horizon compare against the twins.
  netlist::BitSim& gate() { return gate_; }

private:
  struct Lane {
    Oracle* oracle;         // compared and stepped while non-null
    bool finished = false;
    std::vector<char> stops;
    std::vector<char> stalled;
    std::vector<char> accepted;
    std::vector<char> delivered;
    std::string mismatch;
  };

  void disagree(Lane& lane, std::uint64_t cycle, const char* side,
                std::size_t channel, const char* signal, std::uint64_t gate,
                std::uint64_t beh, bool hex);

  netlist::BitSim gate_;
  PortView ports_;
  bool twin_;
  std::vector<Lane> lanes_;
  std::size_t disagreeing_ = 0;
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
