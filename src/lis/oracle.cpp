#include "lis/oracle.hpp"

#include <algorithm>

namespace lis::sync {

PortView portView(const WrapperPorts& p) {
  return {p.inValid, p.inData, p.inStop, p.outValid, p.outData, p.outStop};
}

PortView portView(const SystemPorts& p) {
  return {p.inValid, p.inData, p.inStop, p.outValid, p.outData, p.outStop};
}

Oracle::Oracle(const WrapperConfig& cfg) : Oracle(wrapperSpec(cfg)) {}

Oracle::Oracle(const SystemSpec& spec) : dataWidth_(spec.dataWidth) {
  // Every endpoint below is used as an index.
  spec.validate();
  mask_ = widthMask(dataWidth_);

  // Stages channel by channel; relay station k of a channel sits between
  // its stages k and k+1, and the last initialTokens stations are seeded.
  std::vector<std::size_t> source(spec.channels.size());
  std::vector<std::size_t> sink(spec.channels.size());
  std::size_t stages = 0;
  for (std::size_t c = 0; c < spec.channels.size(); ++c) {
    const ChannelSpec& ch = spec.channels[c];
    source[c] = stages;
    sink[c] = stages + ch.relays;
    for (unsigned k = 0; k < ch.relays; ++k) {
      const bool seeded = k >= ch.relays - ch.initialTokens;
      relays_.push_back({stages + k, ring_.size(), ch.relayDepth,
                         seeded ? 1u : 0u});
      ring_.resize(ring_.size() + ch.relayDepth, 0);
    }
    stages += ch.relays + 1;
  }
  valid_.assign(stages, 0);
  data_.assign(stages, 0);
  stop_.assign(stages, 0);

  std::vector<std::vector<std::size_t>> inStage(spec.pearls.size());
  std::vector<std::vector<std::size_t>> outStage(spec.pearls.size());
  for (std::size_t p = 0; p < spec.pearls.size(); ++p) {
    inStage[p].resize(spec.pearls[p].numInputs);
    outStage[p].resize(spec.pearls[p].numOutputs);
  }
  for (std::size_t c = 0; c < spec.channels.size(); ++c) {
    const ChannelSpec& ch = spec.channels[c];
    if (ch.fromPearl >= 0) outStage[ch.fromPearl][ch.fromPort] = source[c];
    if (ch.toPearl >= 0) inStage[ch.toPearl][ch.toPort] = sink[c];
  }
  for (unsigned p : pearlTopoOrder(spec)) {
    shells_.push_back({inStage_.size(), inStage[p].size(), outStage_.size(),
                       outStage[p].size()});
    inStage_.insert(inStage_.end(), inStage[p].begin(), inStage[p].end());
    outStage_.insert(outStage_.end(), outStage[p].begin(), outStage[p].end());
  }
  bufValid_.assign(inStage_.size(), 0);
  bufData_.assign(inStage_.size(), 0);

  for (std::size_t c : spec.externalInputs()) extIn_.push_back(source[c]);
  for (std::size_t c : spec.externalOutputs()) extOut_.push_back(sink[c]);
  reset();
}

void Oracle::mooreOutputs() {
  for (std::size_t k = 0; k < inStage_.size(); ++k) {
    stop_[inStage_[k]] = bufValid_[k];
  }
  for (const Relay& rs : relays_) {
    stop_[rs.stage] = rs.count >= rs.depth ? 1 : 0;
    valid_[rs.stage + 1] = rs.count != 0 ? 1 : 0;
    data_[rs.stage + 1] = rs.count != 0 ? ring_[rs.ring + rs.head] : 0;
  }
}

void Oracle::reset() {
  std::fill(valid_.begin(), valid_.end(), 0);
  std::fill(data_.begin(), data_.end(), 0);
  std::fill(stop_.begin(), stop_.end(), 0);
  for (Shell& sh : shells_) {
    sh.acc = 0;
    sh.result = 0;
    sh.fire = false;
  }
  std::fill(bufValid_.begin(), bufValid_.end(), 0);
  std::fill(bufData_.begin(), bufData_.end(), 0);
  for (Relay& rs : relays_) {
    rs.head = 0;
    rs.count = rs.initialTokens;
  }
  std::fill(ring_.begin(), ring_.end(), 0);
  fires_ = 0;
  mooreOutputs();
}

void Oracle::settle() {
  for (Shell& sh : shells_) {
    // Fire when every input has a token (buffered or offered) and no
    // output is stalled; the pearl sums the buffered token where there is
    // one, else the offered data.
    bool fire = true;
    std::uint64_t sum = sh.acc;
    for (std::size_t k = sh.in; k < sh.in + sh.numIn; ++k) {
      if (bufValid_[k] != 0) {
        sum += bufData_[k];
      } else {
        fire = fire && valid_[inStage_[k]] != 0;
        sum += data_[inStage_[k]] & mask_;
      }
    }
    for (std::size_t k = sh.out; k < sh.out + sh.numOut; ++k) {
      fire = fire && stop_[outStage_[k]] == 0;
    }
    sh.fire = fire;
    sh.result = sum & mask_;
    for (std::size_t j = 0; j < sh.numOut; ++j) {
      valid_[outStage_[sh.out + j]] = fire ? 1 : 0;
      data_[outStage_[sh.out + j]] = (sh.result ^ j) & mask_;
    }
  }
}

void Oracle::step() {
  for (Shell& sh : shells_) {
    if (sh.fire) {
      ++fires_;
      sh.acc = sh.result;
    }
    for (std::size_t k = sh.in; k < sh.in + sh.numIn; ++k) {
      // Firing consumes the buffered token when present, else the offered
      // one; an offer that cannot fire is captured, but only into a free
      // buffer: an offer under stop is not a transfer (the rule the shell
      // FSM spec enumerates).
      const bool valid = valid_[inStage_[k]] != 0;
      if (!sh.fire && valid && bufValid_[k] == 0) {
        bufData_[k] = data_[inStage_[k]] & mask_;
      }
      bufValid_[k] = !sh.fire && (bufValid_[k] != 0 || valid) ? 1 : 0;
    }
  }
  for (Relay& rs : relays_) {
    const bool pop = rs.count != 0 && stop_[rs.stage + 1] == 0;
    const bool push = valid_[rs.stage] != 0 && rs.count < rs.depth;
    if (pop) {
      rs.head = (rs.head + 1) % rs.depth;
      --rs.count;
    }
    if (push) {
      ring_[rs.ring + (rs.head + rs.count) % rs.depth] = data_[rs.stage];
      ++rs.count;
    }
  }
  mooreOutputs();
}

} // namespace lis::sync
