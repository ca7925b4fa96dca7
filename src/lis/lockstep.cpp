#include "lis/lockstep.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "lis/behavioral.hpp"

namespace lis::sync {

Lockstep::Lockstep(const netlist::Netlist& nl, PortView ports, Oracle* oracle,
                   bool twin)
    : gate_(nl), ports_(std::move(ports)), oracle_(oracle),
      stops_(numInputs(), 0), stalled_(numOutputs(), 0),
      accepted_(numInputs(), 0), delivered_(numOutputs(), 0) {
  if (oracle_ != nullptr && (oracle_->numInputs() != numInputs() ||
                             oracle_->numOutputs() != numOutputs())) {
    throw std::invalid_argument(
        "Lockstep: the oracle's channel counts differ from the ports'");
  }
  gate_.reset();
  if (twin) {
    twin_.emplace(nl);
    twin_->reset();
  }
  if (oracle_ != nullptr) oracle_->reset();
}

void Lockstep::disagree(std::uint64_t cycle, const char* side,
                        std::size_t channel, const char* signal,
                        std::uint64_t gate, std::uint64_t beh, bool hex) {
  std::ostringstream os;
  os << "cycle " << cycle << ": " << side << channel << "_" << signal
     << ": gate=";
  if (hex) os << "0x" << std::hex;
  os << gate << " behavioural=" << (hex ? "0x" : "") << beh;
  mismatch_ = os.str();
}

bool Lockstep::readStops(std::uint64_t cycle) {
  const bool compare = oracle_ != nullptr && agrees();
  if (compare) oracle_->settle();
  for (std::size_t i = 0; i < numInputs(); ++i) {
    stops_[i] = gate_.value(ports_.inStop[i]) ? 1 : 0;
    if (compare && agrees() && (stops_[i] != 0) != oracle_->inStop(i)) {
      disagree(cycle, "in", i, "stop", stops_[i], oracle_->inStop(i), false);
    }
  }
  return agrees();
}

void Lockstep::drive(const Stimulus& s) {
  const bool live = oracle_ != nullptr && agrees();
  for (std::size_t i = 0; i < numInputs(); ++i) {
    const bool valid = s.valid[i] != 0;
    gate_.setInput(ports_.inValid[i], valid);
    gate_.setInputBus(ports_.inData[i], s.data[i]);
    if (twin_) {
      twin_->setInput(ports_.inValid[i], valid);
      twin_->setInputBus(ports_.inData[i], s.data[i]);
    }
    if (live) oracle_->driveInput(i, valid, s.data[i]);
    accepted_[i] = valid && stops_[i] == 0 ? 1 : 0;
  }
  for (std::size_t j = 0; j < numOutputs(); ++j) {
    const bool stall = s.stall[j] != 0;
    gate_.setInput(ports_.outStop[j], stall);
    if (twin_) twin_->setInput(ports_.outStop[j], stall);
    if (live) oracle_->driveOutStop(j, stall);
    stalled_[j] = stall ? 1 : 0;
  }
}

bool Lockstep::settle(std::uint64_t cycle) {
  gate_.settle();
  if (twin_) twin_->settle();
  if (oracle_ != nullptr && agrees()) oracle_->settle();
  for (std::size_t j = 0; j < numOutputs(); ++j) {
    const bool valid = gate_.value(ports_.outValid[j]);
    delivered_[j] = valid && stalled_[j] == 0 ? 1 : 0;
    if (oracle_ == nullptr || !agrees()) continue;
    if (valid != oracle_->outValid(j)) {
      disagree(cycle, "out", j, "valid", valid, oracle_->outValid(j), false);
    } else if (valid) {
      const std::uint64_t data = gate_.busValue(ports_.outData[j]);
      if (data != oracle_->outData(j)) {
        disagree(cycle, "out", j, "data", data, oracle_->outData(j), true);
      }
    }
  }
  return agrees();
}

void Lockstep::clock() {
  gate_.clock();
  if (twin_) twin_->clock();
  if (oracle_ != nullptr && agrees()) oracle_->step();
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
