#include "lis/wrapper.hpp"

#include <stdexcept>
#include <string>

#include "lis/datapath.hpp"
#include "obs/trace.hpp"

namespace lis::sync {

using netlist::Bus;
using netlist::BusBuilder;
using netlist::Netlist;
using netlist::NodeId;

namespace {

std::string chan(const char* base, unsigned idx, const char* suffix) {
  return std::string(base) + std::to_string(idx) + suffix;
}

} // namespace

void checkWrapperConfig(const WrapperConfig& cfg, bool needsRelay) {
  if (cfg.numInputs == 0 || cfg.numInputs > 4) {
    throw std::invalid_argument(
        "wrapper: numInputs must be in 1..4, got " +
        std::to_string(cfg.numInputs));
  }
  if (cfg.numOutputs == 0 || cfg.numOutputs > 8) {
    throw std::invalid_argument(
        "wrapper: numOutputs must be in 1..8, got " +
        std::to_string(cfg.numOutputs));
  }
  if (cfg.dataWidth == 0 || cfg.dataWidth > 64) {
    throw std::invalid_argument(
        "wrapper: dataWidth must be in 1..64, got " +
        std::to_string(cfg.dataWidth));
  }
  checkOutputTags(cfg.numOutputs, cfg.dataWidth, "wrapper");
  if (needsRelay && (cfg.relayDepth == 0 || cfg.relayDepth > 8)) {
    throw std::invalid_argument(
        "wrapper: relayDepth must be in 1..8, got " +
        std::to_string(cfg.relayDepth));
  }
}

void checkOutputTags(unsigned numOutputs, unsigned dataWidth,
                     std::string_view owner, std::string_view name) {
  const unsigned tagBits = BusBuilder::bitsFor(numOutputs - 1);
  if (tagBits > dataWidth) {
    throw std::invalid_argument(
        std::string(owner) + std::string(name) + ": " +
        std::to_string(numOutputs) + " output channels need " +
        std::to_string(tagBits) + "-bit tags but the data bus is only " +
        std::to_string(dataWidth) +
        " bit(s) wide; widen dataWidth or reduce outputs");
  }
}

Wrapper buildShell(const WrapperConfig& cfg) {
  checkWrapperConfig(cfg, /*needsRelay=*/false);
  Wrapper w{Netlist("shell_n" + std::to_string(cfg.numInputs) + "m" +
                    std::to_string(cfg.numOutputs) + "_" +
                    encodingName(cfg.encoding)),
            {}, {}};
  Netlist& nl = w.netlist;
  BusBuilder bb(nl);
  WrapperPorts& p = w.ports;

  for (unsigned i = 0; i < cfg.numInputs; ++i) {
    p.inValid.push_back(nl.addInput(chan("in", i, "_valid")));
    p.inData.push_back(bb.inputBus(chan("in", i, "_data"), cfg.dataWidth));
  }
  for (unsigned j = 0; j < cfg.numOutputs; ++j) {
    p.outStop.push_back(nl.addInput(chan("out", j, "_stop")));
  }

  const FsmSpec spec = shellFsm(cfg.numInputs, cfg.numOutputs);
  FsmInstance ctl(spec, cfg.encoding, nl, "ctl");
  std::vector<NodeId> cond = p.inValid;
  cond.insert(cond.end(), p.outStop.begin(), p.outStop.end());
  ctl.elaborate(cond);

  const Bus base = shellDatapath(bb, cfg.numInputs, cfg.dataWidth, ctl,
                                 p.inData, "");
  for (unsigned i = 0; i < cfg.numInputs; ++i) {
    p.inStop.push_back(
        nl.addOutput(chan("in", i, "_stop"), ctl.moore(chan("stopo", i, ""))));
  }
  const NodeId fire = ctl.mealy("fire");
  for (unsigned j = 0; j < cfg.numOutputs; ++j) {
    p.outValid.push_back(nl.addOutput(chan("out", j, "_valid"), fire));
    const Bus tagged = bb.xorBus(base, bb.constant(j, cfg.dataWidth));
    p.outData.push_back(bb.outputBus(chan("out", j, "_data"), tagged));
  }
  w.control = ctl.stats();
  return w;
}

Wrapper buildRelayStation(unsigned dataWidth, unsigned depth, Encoding enc) {
  WrapperConfig check;
  check.dataWidth = dataWidth;
  check.relayDepth = depth;
  checkWrapperConfig(check, /*needsRelay=*/true);
  Wrapper w{Netlist("relay_d" + std::to_string(depth) + "_" +
                    encodingName(enc)),
            {}, {}};
  Netlist& nl = w.netlist;
  BusBuilder bb(nl);
  WrapperPorts& p = w.ports;

  p.inValid.push_back(nl.addInput("in_valid"));
  p.inData.push_back(bb.inputBus("in_data", dataWidth));
  p.outStop.push_back(nl.addInput("out_stop"));

  const FsmSpec spec = relayFsm(depth);
  FsmInstance rs(spec, enc, nl, "rs");
  const NodeId cond[] = {p.inValid[0], p.outStop[0]};
  rs.elaborate(cond);
  const Bus head =
      relayDatapath(nl, bb, dataWidth, depth, rs, p.inData[0], "rs");

  p.inStop.push_back(nl.addOutput("in_stop", rs.moore("stopo")));
  p.outValid.push_back(nl.addOutput("out_valid", rs.moore("vout")));
  p.outData.push_back(bb.outputBus("out_data", head));
  w.control = rs.stats();
  return w;
}

Wrapper buildWrapper(const WrapperConfig& cfg) {
  checkWrapperConfig(cfg, /*needsRelay=*/true);
  obs::Span span("buildWrapper");
  span.arg("inputs", static_cast<double>(cfg.numInputs));
  span.arg("relay_depth", static_cast<double>(cfg.relayDepth));
  Wrapper w{Netlist("wrapper_n" + std::to_string(cfg.numInputs) + "m" +
                    std::to_string(cfg.numOutputs) + "d" +
                    std::to_string(cfg.relayDepth) + "_" +
                    encodingName(cfg.encoding)),
            {}, {}};
  Netlist& nl = w.netlist;
  BusBuilder bb(nl);
  WrapperPorts& p = w.ports;

  for (unsigned i = 0; i < cfg.numInputs; ++i) {
    p.inValid.push_back(nl.addInput(chan("in", i, "_valid")));
    p.inData.push_back(bb.inputBus(chan("in", i, "_data"), cfg.dataWidth));
  }
  for (unsigned j = 0; j < cfg.numOutputs; ++j) {
    p.outStop.push_back(nl.addInput(chan("out", j, "_stop")));
  }

  // Phase 1 for every FSM first: shells stall on relay-station occupancy
  // and relay stations fill from the shell's fire strobe, but both cross
  // signals are Moore, so creating all state registers + Moore logic up
  // front breaks the construction cycle.
  const FsmSpec shellSpec = shellFsm(cfg.numInputs, cfg.numOutputs);
  const FsmSpec relaySpec = relayFsm(cfg.relayDepth);
  FsmInstance ctl(shellSpec, cfg.encoding, nl, "ctl");
  std::vector<FsmInstance> relays;
  relays.reserve(cfg.numOutputs);
  for (unsigned j = 0; j < cfg.numOutputs; ++j) {
    relays.emplace_back(relaySpec, cfg.encoding, nl, chan("rs", j, ""));
  }

  std::vector<NodeId> cond = p.inValid;
  for (unsigned j = 0; j < cfg.numOutputs; ++j) {
    cond.push_back(relays[j].moore("stopo"));
  }
  ctl.elaborate(cond);

  const Bus base = shellDatapath(bb, cfg.numInputs, cfg.dataWidth, ctl,
                                 p.inData, "");
  for (unsigned i = 0; i < cfg.numInputs; ++i) {
    p.inStop.push_back(
        nl.addOutput(chan("in", i, "_stop"), ctl.moore(chan("stopo", i, ""))));
  }

  const NodeId fire = ctl.mealy("fire");
  w.control = ctl.stats();
  for (unsigned j = 0; j < cfg.numOutputs; ++j) {
    const NodeId rsCond[] = {fire, p.outStop[j]};
    relays[j].elaborate(rsCond);
    const Bus tagged = bb.xorBus(base, bb.constant(j, cfg.dataWidth));
    const Bus head = relayDatapath(nl, bb, cfg.dataWidth, cfg.relayDepth,
                                   relays[j], tagged, chan("rs", j, ""));
    p.outValid.push_back(
        nl.addOutput(chan("out", j, "_valid"), relays[j].moore("vout")));
    p.outData.push_back(bb.outputBus(chan("out", j, "_data"), head));
    w.control.accumulate(relays[j].stats());
  }
  return w;
}

} // namespace lis::sync
