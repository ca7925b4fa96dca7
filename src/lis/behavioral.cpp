#include "lis/behavioral.hpp"

#include <algorithm>
#include <stdexcept>

namespace lis::sync {

PearlModel::PearlModel(std::string name, unsigned dataWidth,
                       sim::Wire<bool>& fire,
                       std::vector<sim::Wire<std::uint64_t>*> dataIn,
                       sim::Wire<std::uint64_t>& dataOut)
    : Module(std::move(name)), mask_(widthMask(dataWidth)), fire_(&fire),
      in_(std::move(dataIn)), out_(&dataOut) {
  if (in_.empty()) throw std::invalid_argument("PearlModel: no operands");
}

void PearlModel::evaluate() {
  std::uint64_t sum = 0;
  for (const sim::Wire<std::uint64_t>* w : in_) sum += w->read();
  out_->write((acc_ + sum) & mask_);
}

void PearlModel::clockEdge() {
  if (fire_->read()) acc_ = out_->read();
}

void PearlModel::reset() { acc_ = 0; }

ShellModel::ShellModel(std::string name, unsigned dataWidth, Io io)
    : Module(std::move(name)),
      numIn_(static_cast<unsigned>(io.inValid.size())),
      numOut_(static_cast<unsigned>(io.outValid.size())),
      mask_(widthMask(dataWidth)), io_(std::move(io)),
      bufData_(numIn_, 0), bufValid_(numIn_, false) {
  if (numIn_ == 0 || numOut_ == 0 || io_.inData.size() != numIn_ ||
      io_.inStop.size() != numIn_ || io_.outData.size() != numOut_ ||
      io_.outStop.size() != numOut_ || io_.pearlIn.size() != numIn_ ||
      io_.pearlFire == nullptr || io_.pearlOut == nullptr) {
    throw std::invalid_argument("ShellModel: inconsistent wiring");
  }
}

bool ShellModel::fireNow() const {
  for (unsigned i = 0; i < numIn_; ++i) {
    if (!bufValid_[i] && !io_.inValid[i]->read()) return false;
  }
  for (unsigned j = 0; j < numOut_; ++j) {
    if (io_.outStop[j]->read()) return false;
  }
  return true;
}

void ShellModel::evaluate() {
  for (unsigned i = 0; i < numIn_; ++i) {
    io_.inStop[i]->write(bufValid_[i]);
    io_.pearlIn[i]->write(bufValid_[i] ? bufData_[i]
                                       : io_.inData[i]->read() & mask_);
  }
  const bool fire = fireNow();
  io_.pearlFire->write(fire);
  const std::uint64_t base = io_.pearlOut->read();
  for (unsigned j = 0; j < numOut_; ++j) {
    io_.outValid[j]->write(fire);
    io_.outData[j]->write((base ^ j) & mask_);
  }
}

void ShellModel::clockEdge() {
  const bool fire = io_.pearlFire->read();
  if (fire) ++fires_;
  for (unsigned i = 0; i < numIn_; ++i) {
    const bool valid = io_.inValid[i]->read();
    // Firing consumes the buffered token when present, else the fresh one;
    // a fresh token that cannot fire is captured — but only into a free
    // buffer: an offer under stopo is not a transfer. (Same rule the shell
    // FSM spec enumerates.)
    const bool capture = !fire && valid && !bufValid_[i];
    if (capture) bufData_[i] = io_.inData[i]->read() & mask_;
    bufValid_[i] = !fire && (bufValid_[i] || valid);
  }
}

void ShellModel::reset() {
  bufData_.assign(numIn_, 0);
  bufValid_.assign(numIn_, false);
  fires_ = 0;
}

RelayStationModel::RelayStationModel(std::string name, unsigned depth,
                                     sim::Wire<bool>& inValid,
                                     sim::Wire<std::uint64_t>& inData,
                                     sim::Wire<bool>& inStop,
                                     sim::Wire<bool>& outValid,
                                     sim::Wire<std::uint64_t>& outData,
                                     sim::Wire<bool>& outStop,
                                     unsigned initialTokens)
    : Module(std::move(name)), depth_(depth), initialTokens_(initialTokens),
      inValid_(&inValid), inData_(&inData), inStop_(&inStop),
      outValid_(&outValid), outData_(&outData), outStop_(&outStop) {
  if (depth == 0) throw std::invalid_argument("RelayStationModel: depth 0");
  if (initialTokens > depth) {
    throw std::invalid_argument(
        "RelayStationModel: more initial tokens than capacity");
  }
  ring_.assign(depth, 0);
}

void RelayStationModel::evaluate() {
  inStop_->write(count_ >= depth_);
  outValid_->write(count_ != 0);
  outData_->write(count_ == 0 ? 0 : ring_[head_]);
}

void RelayStationModel::clockEdge() {
  const bool pop = count_ != 0 && !outStop_->read();
  const bool push = inValid_->read() && count_ < depth_;
  const std::uint64_t incoming = inData_->read();
  if (pop) {
    head_ = (head_ + 1) % depth_;
    --count_;
  }
  if (push) {
    ring_[(head_ + count_) % depth_] = incoming;
    ++count_;
  }
}

void RelayStationModel::reset() {
  std::fill(ring_.begin(), ring_.end(), 0);
  head_ = 0;
  count_ = initialTokens_;
}

} // namespace lis::sync
