#include "fault/fault.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <memory>
#include <stdexcept>

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

bool isStuckAt(FaultKind k) {
  return k == FaultKind::StuckAt0 || k == FaultKind::StuckAt1;
}

/// One lane's experiment: its traffic, its checkers' state and, once
/// concluded, its verdict.
struct Experiment {
  Experiment(const FaultSite& site, std::uint64_t seed,
             const InjectionOptions& opts, const Target& t)
      : traffic(seed, opts.offerPercent, opts.stallPercent,
                t.ports.inValid.size(), t.ports.outValid.size(),
                t.dataWidth),
        accepted(t.ports.inValid.size(), 0),
        delivered(t.ports.outValid.size(), 0) {
    res.site = site;
  }

  sync::RandomTraffic traffic;
  // Token-conservation bookkeeping on the faulted lane's own handshakes.
  std::vector<std::uint64_t> accepted;
  std::vector<std::uint64_t> delivered;
  std::uint64_t lastProgress = 0;
  bool done = false;
  FaultResult res;
};

} // namespace

std::vector<FaultResult> injectBatch(const Target& t,
                                     std::span<const FaultSite> sites,
                                     std::span<const std::uint64_t> seeds,
                                     const InjectionOptions& opts,
                                     const support::CancellationToken* cancel) {
  if (t.netlist == nullptr ||
      (t.wrapperCfg == nullptr) == (t.systemSpec == nullptr)) {
    throw std::invalid_argument(
        "injectOne: target needs a netlist and exactly one oracle spec");
  }
  if (sites.size() != seeds.size()) {
    throw std::invalid_argument("injectBatch: one seed per site");
  }
  for (const FaultSite& site : sites) checkSite(t, site, opts);
  const netlist::Netlist& nl = *t.netlist;
  const std::size_t n = sites.size();

  std::vector<std::unique_ptr<sync::Oracle>> oracles;
  std::vector<sync::Oracle*> refs;
  std::vector<Experiment> lanes;
  oracles.reserve(n);
  lanes.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    oracles.push_back(t.wrapperCfg != nullptr
                          ? std::make_unique<sync::Oracle>(*t.wrapperCfg)
                          : std::make_unique<sync::Oracle>(*t.systemSpec));
    refs.push_back(oracles.back().get());
    lanes.emplace_back(sites[l], seeds[l], opts, t);
  }
  // Lane l is experiment l's faulted design, compared with its oracle;
  // its fault-free twin rides in the same word (Lockstep's lane layout).
  sync::Lockstep ls(nl, t.ports, std::move(refs), /*twin=*/true);
  netlist::BitSim& gate = ls.gate();
  const std::uint64_t mask = sync::widthMask(t.dataWidth);
  // The register count is a deliberately loose storage bound; the
  // checker is a backstop for gross token fabrication — in practice the
  // oracle comparison flags those faults first.
  const std::uint64_t storageBound = nl.dffs().size();

  std::size_t running = n;
  const auto conclude = [&](std::size_t l, Outcome outcome,
                            std::uint64_t cycle, std::string detail) {
    Experiment& e = lanes[l];
    e.res.outcome = outcome;
    e.res.atCycle = cycle;
    e.res.detail = std::move(detail);
    e.done = true;
    ls.finish(l);
    --running;
  };

  for (std::uint64_t cycle = 0; cycle < opts.cycles && running > 0;
       ++cycle) {
    if (cancel != nullptr && (cycle & 127u) == 0 && cancel->cancelled()) {
      return {};
    }
    // --- inject / clear node faults (channel faults act while driving)
    bool touched = false;
    for (std::size_t l = 0; l < n; ++l) {
      if (lanes[l].done) continue;
      const FaultSite& site = lanes[l].res.site;
      const std::uint64_t bit = sync::Lockstep::laneBit(l);
      if (isStuckAt(site.kind) && cycle == site.cycle) {
        gate.setForce(site.node, site.kind == FaultKind::StuckAt1, bit);
      } else if (isStuckAt(site.kind) && site.duration != 0 &&
                 cycle == site.cycle + site.duration) {
        gate.clearForce(site.node, bit);
      } else if (site.kind == FaultKind::SeuFlip && cycle == site.cycle) {
        gate.poke(site.node, !gate.lane(site.node, l), bit);
      } else {
        continue;
      }
      touched = true;
    }
    if (touched) gate.settle();

    ls.readStops(cycle);
    for (std::size_t l = 0; l < n; ++l) {
      if (!lanes[l].done && !ls.agrees(l)) {
        conclude(l, Outcome::Detected, cycle, ls.mismatch(l));
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      Experiment& e = lanes[l];
      if (e.done) continue;
      const FaultSite& site = e.res.site;
      sync::Stimulus& stim = e.traffic.draw();
      if (site.kind == FaultKind::ChannelStall && cycle >= site.cycle &&
          (site.duration == 0 || cycle < site.cycle + site.duration)) {
        // The stall burst hits the faulted lane, its twin and its oracle
        // alike: the fault is in the environment, and the property probed
        // is that the design tolerates it (latency-insensitivity) without
        // diverging. A forced burst legitimately freezes deliveries —
        // exempt it from the watchdog so environment faults are not
        // misread as design hangs.
        stim.stall[site.channel] = 1;
        e.lastProgress = cycle;
      }
      ls.drive(l, stim);
      if (site.kind == FaultKind::ChannelGlitch && cycle == site.cycle) {
        // Spurious handshake on the faulted lane only: a one-cycle valid
        // pulse carrying a corrupted payload.
        const std::uint64_t bit = sync::Lockstep::laneBit(l);
        const std::uint64_t bad = ~stim.data[site.channel] & mask;
        const netlist::Bus& data = t.ports.inData[site.channel];
        gate.setInputLanes(t.ports.inValid[site.channel], bit, true);
        for (std::size_t b = 0; b < data.size(); ++b) {
          gate.setInputLanes(data[b], bit, ((bad >> b) & 1u) != 0);
        }
      }
    }
    ls.settle(cycle);

    for (std::size_t l = 0; l < n; ++l) {
      Experiment& e = lanes[l];
      if (e.done) continue;
      if (!ls.agrees(l)) {
        conclude(l, Outcome::Detected, cycle, ls.mismatch(l));
        continue;
      }
      e.traffic.retire(ls.accepted(l));
      for (std::size_t i = 0; i < e.accepted.size(); ++i) {
        if (ls.accepted(l)[i] == 0) continue;
        ++e.accepted[i];
        e.lastProgress = cycle;
      }
      const std::uint64_t maxAccepted =
          e.accepted.empty()
              ? 0
              : *std::max_element(e.accepted.begin(), e.accepted.end());
      for (std::size_t j = 0; j < e.delivered.size() && !e.done; ++j) {
        if (ls.delivered(l)[j] == 0) continue;
        e.lastProgress = cycle;
        if (++e.delivered[j] > maxAccepted + storageBound) {
          conclude(l, Outcome::Detected, cycle,
                   "token conservation violated on out" + std::to_string(j));
        }
      }
      if (!e.done && cycle > e.res.site.cycle &&
          cycle - e.lastProgress > opts.watchdogCycles &&
          e.traffic.offerHeld()) {
        conclude(l, Outcome::Hang, cycle,
                 "no handshake for " + std::to_string(opts.watchdogCycles) +
                     " cycles with an offer held");
      }
    }

    ls.clock();
  }

  // Horizon reached with every observable output agreeing with the oracle
  // throughout. Recovered if the faulted register state re-converged with
  // the fault-free twin; otherwise the fault still lurks in latent state
  // (the first differing register, in DFF order, names it).
  std::uint64_t pending = 0;
  for (std::size_t l = 0; l < n; ++l) {
    if (lanes[l].done) continue;
    lanes[l].res.outcome = Outcome::Recovered;
    lanes[l].res.atCycle = opts.cycles;
    pending |= sync::Lockstep::laneBit(l);
  }
  for (netlist::NodeId id : nl.dffs()) {
    if (pending == 0) break;
    const std::uint64_t word = gate.word(id, 0);
    std::uint64_t diff = (word ^ (word >> n)) & pending;
    pending &= ~diff;
    for (; diff != 0; diff &= diff - 1) {
      FaultResult& res = lanes[std::countr_zero(diff)].res;
      res.outcome = Outcome::SilentCorruption;
      res.detail = "register " + nl.node(id).name +
                   " differs from the fault-free run at the horizon";
    }
  }

  std::vector<FaultResult> out;
  out.reserve(n);
  for (Experiment& e : lanes) out.push_back(std::move(e.res));
  return out;
}

FaultResult injectOne(const Target& t, const FaultSite& site,
                      const InjectionOptions& opts) {
  return injectBatch(t, {&site, 1}, {&opts.seed, 1}, opts).front();
}

} // namespace lis::fault
