#include "lis/lockstep.hpp"

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "lis/behavioral.hpp"

namespace lis::sync {

Lockstep::Lockstep(const netlist::Netlist& nl, PortView ports,
                   std::vector<Oracle*> oracles, bool twin)
    : gate_(nl, 1), ports_(std::move(ports)), twin_(twin) {
  const std::size_t gateLanes = oracles.size() * (twin ? 2 : 1);
  if (oracles.empty() || gateLanes > 64) {
    throw std::invalid_argument(
        "Lockstep: needs 1..64 gate lanes, twins included");
  }
  for (const std::vector<netlist::Bus>* buses :
       {&ports_.inData, &ports_.outData}) {
    for (const netlist::Bus& bus : *buses) {
      if (bus.size() > 64) {
        throw std::invalid_argument("Lockstep: data bus wider than 64 bits");
      }
    }
  }
  // readStops reads the stops after a state-cone pass only (see clock()).
  for (std::size_t i = 0; i < numInputs(); ++i) {
    if (gate_.inInputCone(ports_.inStop[i])) {
      throw std::invalid_argument(
          "Lockstep: in" + std::to_string(i) +
          "_stop is not a Moore output: an input reaches it combinationally");
    }
  }
  lanes_.reserve(oracles.size());
  for (Oracle* oracle : oracles) {
    if (oracle != nullptr && (oracle->numInputs() != numInputs() ||
                              oracle->numOutputs() != numOutputs())) {
      throw std::invalid_argument(
          "Lockstep: the oracle's channel counts differ from the ports'");
    }
    if (oracle != nullptr) oracle->reset();
    Lane& lane = lanes_.emplace_back();
    lane.oracle = oracle;
    lane.stops.assign(numInputs(), 0);
    lane.accepted.assign(numInputs(), 0);
    lane.stalled.assign(numOutputs(), 0);
    lane.delivered.assign(numOutputs(), 0);
  }
}

void Lockstep::disagree(Lane& lane, std::uint64_t cycle, const char* side,
                        std::size_t channel, const char* signal,
                        std::uint64_t gate, std::uint64_t beh, bool hex) {
  std::ostringstream os;
  os << "cycle " << cycle << ": " << side << channel << "_" << signal
     << ": gate=";
  if (hex) os << "0x" << std::hex;
  os << gate << " behavioural=" << (hex ? "0x" : "") << beh;
  lane.mismatch = os.str();
  lane.oracle = nullptr;
  ++disagreeing_;
}

void Lockstep::finish(std::size_t lane) {
  lanes_[lane].oracle = nullptr;
  lanes_[lane].finished = true;
}

bool Lockstep::readStops(std::uint64_t cycle) {
  for (std::size_t l = 0; l < numLanes(); ++l) {
    Lane& lane = lanes_[l];
    if (lane.finished) continue;
    if (lane.oracle != nullptr) lane.oracle->settle();
    for (std::size_t i = 0; i < numInputs(); ++i) {
      lane.stops[i] = gate_.lane(ports_.inStop[i], l) ? 1 : 0;
      if (lane.oracle != nullptr &&
          (lane.stops[i] != 0) != lane.oracle->inStop(i)) {
        disagree(lane, cycle, "in", i, "stop", lane.stops[i],
                 lane.oracle->inStop(i), false);
      }
    }
  }
  return disagreeing_ == 0;
}

void Lockstep::drive(std::size_t l, const Stimulus& s) {
  Lane& lane = lanes_[l];
  const std::uint64_t bits =
      laneBit(l) | (twin_ ? laneBit(numLanes() + l) : 0);
  for (std::size_t i = 0; i < numInputs(); ++i) {
    const bool valid = s.valid[i] != 0;
    gate_.setInputLanes(ports_.inValid[i], bits, valid);
    const netlist::Bus& data = ports_.inData[i];
    for (std::size_t b = 0; b < data.size(); ++b) {
      gate_.setInputLanes(data[b], bits, ((s.data[i] >> b) & 1u) != 0);
    }
    if (lane.oracle != nullptr) lane.oracle->driveInput(i, valid, s.data[i]);
    lane.accepted[i] = valid && lane.stops[i] == 0 ? 1 : 0;
  }
  for (std::size_t j = 0; j < numOutputs(); ++j) {
    const bool stall = s.stall[j] != 0;
    gate_.setInputLanes(ports_.outStop[j], bits, stall);
    if (lane.oracle != nullptr) lane.oracle->driveOutStop(j, stall);
    lane.stalled[j] = stall ? 1 : 0;
  }
}

bool Lockstep::settle(std::uint64_t cycle) {
  gate_.settleInputCone();
  for (std::size_t l = 0; l < numLanes(); ++l) {
    Lane& lane = lanes_[l];
    if (lane.finished) continue;
    if (lane.oracle != nullptr) lane.oracle->settle();
    for (std::size_t j = 0; j < numOutputs(); ++j) {
      const bool valid = gate_.lane(ports_.outValid[j], l);
      lane.delivered[j] = valid && lane.stalled[j] == 0 ? 1 : 0;
      Oracle* beh = lane.oracle;
      if (beh == nullptr) continue;
      if (valid != beh->outValid(j)) {
        disagree(lane, cycle, "out", j, "valid", valid, beh->outValid(j),
                 false);
      } else if (valid) {
        const std::uint64_t data = gate_.busValue(ports_.outData[j], l);
        if (data != beh->outData(j)) {
          disagree(lane, cycle, "out", j, "data", data, beh->outData(j),
                   true);
        }
      }
    }
  }
  return disagreeing_ == 0;
}

void Lockstep::clock() {
  gate_.clockStateCone();
  for (Lane& lane : lanes_) {
    if (lane.oracle != nullptr) lane.oracle->step();
  }
}

RandomTraffic::RandomTraffic(std::uint64_t seed, unsigned offerPercent,
                             unsigned stallPercent, std::size_t numInputs,
                             std::size_t numOutputs, unsigned dataWidth)
    : rng_(seed), offerPercent_(offerPercent), stallPercent_(stallPercent),
      mask_(widthMask(dataWidth)), stim_(numInputs, numOutputs) {}

Stimulus& RandomTraffic::draw() {
  for (std::size_t i = 0; i < stim_.valid.size(); ++i) {
    if (stim_.valid[i] == 0 && rng_.below(100) < offerPercent_) {
      stim_.valid[i] = 1;
      stim_.data[i] = rng_.next() & mask_;
    }
  }
  for (char& stall : stim_.stall) {
    stall = rng_.below(100) < stallPercent_ ? 1 : 0;
  }
  return stim_;
}

void RandomTraffic::retire(const std::vector<char>& accepted) {
  for (std::size_t i = 0; i < stim_.valid.size(); ++i) {
    if (accepted[i] != 0) stim_.valid[i] = 0;
  }
}

bool RandomTraffic::offerHeld() const {
  for (char v : stim_.valid) {
    if (v != 0) return true;
  }
  return false;
}

} // namespace lis::sync
