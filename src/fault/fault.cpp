#include "fault/fault.hpp"

#include <algorithm>
#include <cctype>
#include <memory>
#include <stdexcept>

#include "lis/behavioral.hpp"
#include "lis/lockstep.hpp"

namespace lis::fault {

const char* faultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::StuckAt0: return "stuck-at-0";
    case FaultKind::StuckAt1: return "stuck-at-1";
    case FaultKind::SeuFlip: return "seu";
    case FaultKind::ChannelStall: return "channel-stall";
    case FaultKind::ChannelGlitch: return "channel-glitch";
  }
  return "?";
}

const char* outcomeName(Outcome o) {
  switch (o) {
    case Outcome::Detected: return "detected";
    case Outcome::Recovered: return "recovered";
    case Outcome::SilentCorruption: return "silent-corruption";
    case Outcome::Hang: return "hang";
  }
  return "?";
}

Target targetOf(const sync::Wrapper& w, const sync::WrapperConfig& cfg) {
  Target t;
  t.netlist = &w.netlist;
  t.ports = sync::portView(w.ports);
  t.dataWidth = cfg.dataWidth;
  t.wrapperCfg = &cfg;
  return t;
}

Target targetOf(const sync::System& s, const sync::SystemSpec& spec) {
  Target t;
  t.netlist = &s.netlist;
  t.ports = sync::portView(s.ports);
  t.dataWidth = spec.dataWidth;
  t.systemSpec = &spec;
  return t;
}

namespace {

/// True for registerBus state-bit names: "..._s_<digits>".
bool isControlStateName(const std::string& name) {
  const std::size_t us = name.rfind('_');
  if (us == std::string::npos || us + 1 >= name.size() || us < 2) {
    return false;
  }
  for (std::size_t i = us + 1; i < name.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) return false;
  }
  return name.compare(us - 2, 2, "_s") == 0;
}

} // namespace

std::vector<netlist::NodeId> controlRegisters(const netlist::Netlist& nl) {
  std::vector<netlist::NodeId> out;
  for (netlist::NodeId id : nl.dffs()) {
    if (isControlStateName(nl.node(id).name)) out.push_back(id);
  }
  return out;
}

std::vector<netlist::NodeId> dataRegisters(const netlist::Netlist& nl) {
  std::vector<netlist::NodeId> out;
  for (netlist::NodeId id : nl.dffs()) {
    if (!isControlStateName(nl.node(id).name)) out.push_back(id);
  }
  return out;
}

std::vector<netlist::NodeId> gateNodes(const netlist::Netlist& nl) {
  std::vector<netlist::NodeId> out;
  for (netlist::NodeId id = 0;
       id < static_cast<netlist::NodeId>(nl.nodeCount()); ++id) {
    switch (nl.node(id).op) {
      case netlist::Op::And:
      case netlist::Op::Or:
      case netlist::Op::Xor:
      case netlist::Op::Not:
      case netlist::Op::Mux:
        out.push_back(id);
        break;
      default:
        break;
    }
  }
  return out;
}

namespace {

/// Throws std::invalid_argument unless `site` can fire inside the run:
/// node faults on an existing node (an SEU on a DFF, since a poke on a
/// gate is overwritten by the next settle), channel faults on an existing
/// channel of their kind, and the injection cycle below the horizon.
void checkSite(const Target& t, const FaultSite& site,
               const InjectionOptions& opts) {
  const auto reject = [&](const std::string& why) {
    throw std::invalid_argument(std::string("injectOne: ") +
                                faultKindName(site.kind) + " site " + why);
  };
  switch (site.kind) {
    case FaultKind::StuckAt0:
    case FaultKind::StuckAt1:
    case FaultKind::SeuFlip:
      if (site.node >= t.netlist->nodeCount()) {
        reject("node " + std::to_string(site.node) + " is not in the netlist");
      }
      if (site.kind == FaultKind::SeuFlip &&
          t.netlist->node(site.node).op != netlist::Op::Dff) {
        reject("node " + std::to_string(site.node) + " is not a DFF");
      }
      break;
    case FaultKind::ChannelStall:
      if (site.channel >= t.ports.outValid.size()) {
        reject("channel " + std::to_string(site.channel) +
               " is not an output channel");
      }
      break;
    case FaultKind::ChannelGlitch:
      if (site.channel >= t.ports.inValid.size()) {
        reject("channel " + std::to_string(site.channel) +
               " is not an input channel");
      }
      break;
  }
  if (site.cycle >= opts.cycles) {
    reject("cycle " + std::to_string(site.cycle) + " is not below the " +
           std::to_string(opts.cycles) + "-cycle horizon");
  }
}

} // namespace

FaultResult injectOne(const Target& t, const FaultSite& site,
                      const InjectionOptions& opts) {
  if (t.netlist == nullptr ||
      (t.wrapperCfg == nullptr) == (t.systemSpec == nullptr)) {
    throw std::invalid_argument(
        "injectOne: target needs a netlist and exactly one oracle spec");
  }
  checkSite(t, site, opts);
  const netlist::Netlist& nl = *t.netlist;
  std::unique_ptr<sync::Oracle> beh =
      t.wrapperCfg != nullptr
          ? std::make_unique<sync::Oracle>(*t.wrapperCfg)
          : std::make_unique<sync::Oracle>(*t.systemSpec);
  // The faulted design is the compared side; the twin is its fault-free
  // reference for the horizon compare.
  sync::Lockstep ls(nl, t.ports, beh.get(), /*twin=*/true);
  sync::RandomTraffic traffic(opts.seed, opts.offerPercent, opts.stallPercent,
                              ls.numInputs(), ls.numOutputs(), t.dataWidth);
  netlist::NetlistSim& faulted = ls.gate();
  const std::uint64_t mask = sync::widthMask(t.dataWidth);

  FaultResult res;
  res.site = site;

  // Token-conservation bookkeeping, all on the faulted design's own
  // handshakes. The register count is a deliberately loose storage bound;
  // the checker is a backstop for gross token fabrication — in practice
  // the oracle comparison flags those faults first.
  std::vector<std::uint64_t> accepted(ls.numInputs(), 0);
  std::vector<std::uint64_t> delivered(ls.numOutputs(), 0);
  const std::uint64_t storageBound = nl.dffs().size();
  std::uint64_t lastProgress = 0;

  const auto detect = [&](std::uint64_t cycle, const std::string& what) {
    res.outcome = Outcome::Detected;
    res.atCycle = cycle;
    res.detail = what;
    return res;
  };

  const bool stuck =
      site.kind == FaultKind::StuckAt0 || site.kind == FaultKind::StuckAt1;
  for (std::uint64_t cycle = 0; cycle < opts.cycles; ++cycle) {
    // --- inject / clear node faults (channel faults act while driving)
    if (stuck && cycle == site.cycle) {
      faulted.setForce(site.node, site.kind == FaultKind::StuckAt1);
      faulted.settle();
    } else if (stuck && site.duration != 0 &&
               cycle == site.cycle + site.duration) {
      faulted.clearForce(site.node);
      faulted.settle();
    } else if (site.kind == FaultKind::SeuFlip && cycle == site.cycle) {
      faulted.poke(site.node, !faulted.value(site.node));
      faulted.settle();
    }

    if (!ls.readStops(cycle)) return detect(cycle, ls.mismatch());
    sync::Stimulus& stim = traffic.draw();
    if (site.kind == FaultKind::ChannelStall && cycle >= site.cycle &&
        (site.duration == 0 || cycle < site.cycle + site.duration)) {
      // The stall burst hits every side alike: the fault is in the
      // environment, and the property probed is that the design tolerates
      // it (latency-insensitivity) without diverging. A forced burst
      // legitimately freezes deliveries — exempt it from the watchdog so
      // environment faults are not misread as design hangs.
      stim.stall[site.channel] = 1;
      lastProgress = cycle;
    }
    ls.drive(stim);
    if (site.kind == FaultKind::ChannelGlitch && cycle == site.cycle) {
      // Spurious handshake on the faulted side only: a one-cycle valid
      // pulse carrying a corrupted payload.
      faulted.setInput(t.ports.inValid[site.channel], true);
      faulted.setInputBus(t.ports.inData[site.channel],
                          ~stim.data[site.channel] & mask);
    }
    if (!ls.settle(cycle)) return detect(cycle, ls.mismatch());
    traffic.retire(ls.accepted());

    for (std::size_t i = 0; i < ls.numInputs(); ++i) {
      if (ls.accepted()[i] == 0) continue;
      ++accepted[i];
      lastProgress = cycle;
    }
    const std::uint64_t maxAccepted =
        accepted.empty() ? 0 : *std::max_element(accepted.begin(),
                                                 accepted.end());
    for (std::size_t j = 0; j < ls.numOutputs(); ++j) {
      if (ls.delivered()[j] == 0) continue;
      lastProgress = cycle;
      if (++delivered[j] > maxAccepted + storageBound) {
        return detect(cycle, "token conservation violated on out" +
                                 std::to_string(j));
      }
    }

    if (cycle > site.cycle && cycle - lastProgress > opts.watchdogCycles &&
        traffic.offerHeld()) {
      res.outcome = Outcome::Hang;
      res.atCycle = cycle;
      res.detail = "no handshake for " + std::to_string(opts.watchdogCycles) +
                   " cycles with an offer held";
      return res;
    }

    ls.clock();
  }

  // Horizon reached with every observable output agreeing with the oracle
  // throughout. Recovered if the faulted register state re-converged with
  // the fault-free twin; otherwise the fault still lurks in latent state.
  res.atCycle = opts.cycles;
  for (netlist::NodeId id : nl.dffs()) {
    if (faulted.value(id) != ls.twin().value(id)) {
      res.outcome = Outcome::SilentCorruption;
      res.detail = "register " + nl.node(id).name +
                   " differs from the fault-free run at the horizon";
      return res;
    }
  }
  res.outcome = Outcome::Recovered;
  return res;
}

} // namespace lis::fault
