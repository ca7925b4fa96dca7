#include "lis/system.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "lis/datapath.hpp"
#include "netlist/fragment.hpp"
#include "obs/trace.hpp"

namespace lis::sync {

using netlist::Bus;
using netlist::BusBuilder;
using netlist::Fragment;
using netlist::kNoNode;
using netlist::Netlist;
using netlist::NodeId;

namespace {

std::string chanErr(std::size_t c, const std::string& what) {
  std::string msg = "SystemSpec: channel ";
  msg += std::to_string(c);
  msg += " ";
  msg += what;
  return msg;
}

/// Pearls grouped into waves: wave w holds every pearl whose longest chain
/// of relay-free upstream channels has length w. Pearls within a wave never
/// feed each other through relay-free channels, so their shells elaborate
/// concurrently; within a wave pearls are listed in ascending index order,
/// which fixes the splice (and thus node-id) order independently of the
/// task schedule. Pipelines and meshes — all relays ≥ 1 — collapse to one
/// wave of every pearl.
std::vector<std::vector<unsigned>> pearlWaves(const SystemSpec& spec) {
  const std::vector<unsigned> order = pearlTopoOrder(spec);
  const unsigned n = static_cast<unsigned>(spec.pearls.size());
  std::vector<std::vector<unsigned>> succ(n);
  for (const ChannelSpec& ch : spec.channels) {
    if (ch.relays == 0 && ch.fromPearl >= 0 && ch.toPearl >= 0) {
      succ[ch.fromPearl].push_back(static_cast<unsigned>(ch.toPearl));
    }
  }
  std::vector<unsigned> level(n, 0);
  unsigned maxLevel = 0;
  for (unsigned p : order) {
    for (unsigned s : succ[p]) {
      level[s] = std::max(level[s], level[p] + 1);
      maxLevel = std::max(maxLevel, level[s]);
    }
  }
  std::vector<std::vector<unsigned>> waves(maxLevel + 1);
  for (unsigned p = 0; p < n; ++p) waves[level[p]].push_back(p);
  return waves;
}

} // namespace

std::vector<unsigned> pearlTopoOrder(const SystemSpec& spec) {
  const unsigned n = static_cast<unsigned>(spec.pearls.size());
  std::vector<unsigned> indeg(n, 0);
  std::vector<std::vector<unsigned>> succ(n);
  for (const ChannelSpec& ch : spec.channels) {
    if (ch.relays == 0 && ch.fromPearl >= 0 && ch.toPearl >= 0) {
      succ[ch.fromPearl].push_back(static_cast<unsigned>(ch.toPearl));
      ++indeg[ch.toPearl];
    }
  }
  std::vector<unsigned> order;
  order.reserve(n);
  for (unsigned p = 0; p < n; ++p) {
    if (indeg[p] == 0) order.push_back(p);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (unsigned s : succ[order[head]]) {
      if (--indeg[s] == 0) order.push_back(s);
    }
  }
  if (order.size() != n) {
    throw std::invalid_argument(
        "SystemSpec: cycle of relay-free channels (every feedback loop "
        "needs at least one relay station)");
  }
  return order;
}

void SystemSpec::validate() const {
  if (dataWidth == 0 || dataWidth > 64) {
    throw std::invalid_argument("SystemSpec: dataWidth must be in 1..64");
  }
  if (pearls.empty()) {
    throw std::invalid_argument("SystemSpec: no pearls");
  }
  std::map<std::string, unsigned> names;
  for (std::size_t p = 0; p < pearls.size(); ++p) {
    const PearlSpec& ps = pearls[p];
    if (ps.name.empty()) {
      throw std::invalid_argument("SystemSpec: pearl " + std::to_string(p) +
                                  " has no name");
    }
    if (!names.emplace(ps.name, 0).second) {
      throw std::invalid_argument("SystemSpec: duplicate pearl name " +
                                  ps.name);
    }
    if (ps.numInputs == 0 || ps.numInputs > 4 || ps.numOutputs == 0 ||
        ps.numOutputs > 8) {
      throw std::invalid_argument("SystemSpec: pearl " + ps.name +
                                  ": supported shell shapes are 1..4 inputs, "
                                  "1..8 outputs");
    }
    checkOutputTags(ps.numOutputs, dataWidth, "SystemSpec: pearl ", ps.name);
  }

  // Every pearl port must be connected exactly once.
  std::vector<std::vector<int>> inDriver(pearls.size());
  std::vector<std::vector<int>> outConsumer(pearls.size());
  for (std::size_t p = 0; p < pearls.size(); ++p) {
    inDriver[p].assign(pearls[p].numInputs, -1);
    outConsumer[p].assign(pearls[p].numOutputs, -1);
  }
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const ChannelSpec& ch = channels[c];
    if (ch.fromPearl < ChannelSpec::kExternal ||
        ch.fromPearl >= static_cast<int>(pearls.size()) ||
        ch.toPearl < ChannelSpec::kExternal ||
        ch.toPearl >= static_cast<int>(pearls.size())) {
      throw std::invalid_argument(chanErr(c, "endpoint pearl out of range"));
    }
    if (ch.fromPearl >= 0 &&
        ch.fromPort >= pearls[ch.fromPearl].numOutputs) {
      throw std::invalid_argument(chanErr(c, "fromPort out of range"));
    }
    if (ch.toPearl >= 0 && ch.toPort >= pearls[ch.toPearl].numInputs) {
      throw std::invalid_argument(chanErr(c, "toPort out of range"));
    }
    if (ch.fromPearl == ChannelSpec::kExternal &&
        ch.toPearl == ChannelSpec::kExternal && ch.relays == 0) {
      throw std::invalid_argument(
          chanErr(c, "connects external to external without a relay"));
    }
    if (ch.relays > 64) {
      throw std::invalid_argument(chanErr(c, "more than 64 relay stations"));
    }
    if (ch.relays > 0 && (ch.relayDepth == 0 || ch.relayDepth > 8)) {
      throw std::invalid_argument(chanErr(c, "relayDepth must be in 1..8"));
    }
    if (ch.initialTokens > ch.relays) {
      throw std::invalid_argument(
          chanErr(c, "more initial tokens than relay stations"));
    }
    if (ch.fromPearl >= 0) {
      int& slot = outConsumer[ch.fromPearl][ch.fromPort];
      if (slot != -1) {
        throw std::invalid_argument(chanErr(c, "output port already driven " +
                                                   std::string("by channel ") +
                                                   std::to_string(slot)));
      }
      slot = static_cast<int>(c);
    }
    if (ch.toPearl >= 0) {
      int& slot = inDriver[ch.toPearl][ch.toPort];
      if (slot != -1) {
        throw std::invalid_argument(chanErr(c, "input port already driven " +
                                                  std::string("by channel ") +
                                                  std::to_string(slot)));
      }
      slot = static_cast<int>(c);
    }
  }
  for (std::size_t p = 0; p < pearls.size(); ++p) {
    for (std::size_t i = 0; i < inDriver[p].size(); ++i) {
      if (inDriver[p][i] == -1) {
        throw std::invalid_argument("SystemSpec: pearl " + pearls[p].name +
                                    " input " + std::to_string(i) +
                                    " is unconnected");
      }
    }
    for (std::size_t j = 0; j < outConsumer[p].size(); ++j) {
      if (outConsumer[p][j] == -1) {
        throw std::invalid_argument("SystemSpec: pearl " + pearls[p].name +
                                    " output " + std::to_string(j) +
                                    " is unconnected");
      }
    }
  }
  (void)pearlTopoOrder(*this);
}

std::vector<std::size_t> SystemSpec::externalInputs() const {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    if (channels[c].fromPearl == ChannelSpec::kExternal) out.push_back(c);
  }
  return out;
}

std::vector<std::size_t> SystemSpec::externalOutputs() const {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    if (channels[c].toPearl == ChannelSpec::kExternal) out.push_back(c);
  }
  return out;
}

System buildSystem(const SystemSpec& spec) {
  return buildSystem(spec, BuildOptions{});
}

System buildSystem(const SystemSpec& spec, const BuildOptions& opts) {
  spec.validate();
  obs::Span span("buildSystem");
  span.arg("pearls", static_cast<double>(spec.pearls.size()));
  span.arg("channels", static_cast<double>(spec.channels.size()));
  System sys{Netlist(spec.name + "_" + encodingName(spec.encoding)),
             {}, {}, 0};
  Netlist& nl = sys.netlist;
  BusBuilder bb(nl);

  // Fan a batch of independent tasks out on the caller's runner (the flow
  // executor), or run them inline in index order. Every batch is followed
  // by a serial splice in a fixed order, so the runner only moves wall
  // clock — never node ids.
  auto runTasks = [&opts](const char* label, std::size_t n,
                          const std::function<void(std::size_t)>& f) {
    if (n == 0) return;
    if (opts.runner) {
      opts.runner(label, n, f);
    } else {
      for (std::size_t i = 0; i < n; ++i) f(i);
    }
  };

  const std::vector<std::size_t> extIn = spec.externalInputs();
  const std::vector<std::size_t> extOut = spec.externalOutputs();
  const std::size_t numChan = spec.channels.size();

  // Port-to-channel lookups (validate guarantees exactly-once wiring).
  std::vector<std::vector<std::size_t>> inChan(spec.pearls.size());
  std::vector<std::vector<std::size_t>> outChan(spec.pearls.size());
  for (std::size_t p = 0; p < spec.pearls.size(); ++p) {
    inChan[p].assign(spec.pearls[p].numInputs, 0);
    outChan[p].assign(spec.pearls[p].numOutputs, 0);
  }
  for (std::size_t c = 0; c < numChan; ++c) {
    const ChannelSpec& ch = spec.channels[c];
    if (ch.fromPearl >= 0) outChan[ch.fromPearl][ch.fromPort] = c;
    if (ch.toPearl >= 0) inChan[ch.toPearl][ch.toPort] = c;
  }

  // External boundary nodes, indexed by channel.
  std::vector<NodeId> extInValid(numChan, kNoNode);
  std::vector<Bus> extInData(numChan);
  std::vector<NodeId> extOutStop(numChan, kNoNode);
  for (std::size_t k = 0; k < extIn.size(); ++k) {
    const std::string base = "in" + std::to_string(k);
    extInValid[extIn[k]] = nl.addInput(base + "_valid");
    extInData[extIn[k]] = bb.inputBus(base + "_data", spec.dataWidth);
  }
  for (std::size_t k = 0; k < extOut.size(); ++k) {
    extOutStop[extOut[k]] =
        nl.addInput("out" + std::to_string(k) + "_stop");
  }

  // Specs are cached per shape (and per reset occupancy for seeded relays)
  // and must outlive the instances. Resolved serially up front so the
  // parallel phases only ever read them.
  std::deque<FsmSpec> specStore;
  std::map<std::pair<unsigned, unsigned>, const FsmSpec*> shellSpecs;
  std::map<std::pair<unsigned, unsigned>, const FsmSpec*> relaySpecs;
  std::vector<const FsmSpec*> distinctSpecs;
  auto shellSpecFor = [&](unsigned nIn, unsigned nOut) {
    auto [it, fresh] = shellSpecs.try_emplace({nIn, nOut}, nullptr);
    if (fresh) {
      specStore.push_back(shellFsm(nIn, nOut));
      it->second = &specStore.back();
      distinctSpecs.push_back(it->second);
    }
    return it->second;
  };
  auto relaySpecFor = [&](unsigned depth, unsigned resetOccupancy) {
    auto [it, fresh] = relaySpecs.try_emplace({depth, resetOccupancy},
                                              nullptr);
    if (fresh) {
      specStore.push_back(relayFsm(depth));
      specStore.back().resetState = resetOccupancy;
      it->second = &specStore.back();
      distinctSpecs.push_back(it->second);
    }
    return it->second;
  };
  std::vector<const FsmSpec*> shellSpecOf(spec.pearls.size());
  for (std::size_t p = 0; p < spec.pearls.size(); ++p) {
    const PearlSpec& ps = spec.pearls[p];
    shellSpecOf[p] = shellSpecFor(ps.numInputs, ps.numOutputs);
  }
  std::vector<std::vector<const FsmSpec*>> relaySpecOf(numChan);
  for (std::size_t c = 0; c < numChan; ++c) {
    const ChannelSpec& ch = spec.channels[c];
    relaySpecOf[c].reserve(ch.relays);
    for (unsigned k = 0; k < ch.relays; ++k) {
      // Seed tokens sit in the stations nearest the sink, so they are
      // immediately consumable at reset.
      const bool seeded = k >= ch.relays - ch.initialTokens;
      relaySpecOf[c].push_back(relaySpecFor(ch.relayDepth, seeded ? 1 : 0));
    }
    sys.relayStations += ch.relays;
  }

  // Phase 0: pre-warm the synthesis cache over the distinct FSM specs, so
  // the expensive minimizations run concurrently exactly once each and the
  // elaboration phases below only replay cached covers.
  runTasks("buildSystem.synth", distinctSpecs.size(), [&](std::size_t i) {
    warmSynthCache(*distinctSpecs[i], spec.encoding);
  });

  // Phase 1: every FSM's state registers + Moore logic, and every relay
  // station's data slots. One fragment per pearl shell and one per relay
  // chain; tasks are independent because phase-1 construction references no
  // other instance.
  struct Unit {
    bool isPearl;
    std::size_t index; // pearl or channel index
  };
  std::vector<Unit> units;
  for (std::size_t p = 0; p < spec.pearls.size(); ++p) {
    units.push_back({true, p});
  }
  for (std::size_t c = 0; c < numChan; ++c) {
    if (spec.channels[c].relays > 0) units.push_back({false, c});
  }

  std::vector<std::optional<FsmInstance>> shellSlot(spec.pearls.size());
  std::vector<std::vector<FsmInstance>> relays(numChan);
  std::vector<std::vector<std::vector<Bus>>> slots(numChan);
  std::vector<std::optional<Fragment>> unitFrags(units.size());
  runTasks("buildSystem.elab", units.size(), [&](std::size_t u) {
    Fragment& frag = unitFrags[u].emplace(nl);
    if (units[u].isPearl) {
      const std::size_t p = units[u].index;
      shellSlot[p].emplace(*shellSpecOf[p], spec.encoding, frag,
                           spec.pearls[p].name + "_ctl");
    } else {
      const std::size_t c = units[u].index;
      const ChannelSpec& ch = spec.channels[c];
      BusBuilder fbb(frag.netlist());
      relays[c].reserve(ch.relays);
      slots[c].reserve(ch.relays);
      for (unsigned k = 0; k < ch.relays; ++k) {
        const std::string prefix =
            "ch" + std::to_string(c) + "_rs" + std::to_string(k);
        relays[c].emplace_back(*relaySpecOf[c][k], spec.encoding, frag,
                               prefix);
        slots[c].push_back(
            makeRelaySlots(fbb, spec.dataWidth, ch.relayDepth, prefix));
      }
    }
  });
  std::vector<FsmInstance> shells;
  shells.reserve(spec.pearls.size());
  {
    OBS_SPAN("buildSystem/splice");
    for (std::size_t u = 0; u < units.size(); ++u) {
      Fragment& frag = *unitFrags[u];
      nl.splice(frag);
      if (units[u].isPearl) {
        // Pearls lead the unit list in index order, so shells lands in
        // pearl order.
        shellSlot[units[u].index]->bind(frag, nl);
        shells.push_back(std::move(*shellSlot[units[u].index]));
      } else {
        const std::size_t c = units[u].index;
        for (FsmInstance& rs : relays[c]) rs.bind(frag, nl);
        for (std::vector<Bus>& station : slots[c]) {
          for (Bus& bus : station) {
            for (NodeId& id : bus) id = frag.parentOf(id);
          }
        }
      }
    }
  }

  // Phase 2: elaborate shells wave by wave. Within a wave every condition
  // input is an immutable parent id — a relay head's Moore valid, an
  // external port, an earlier wave's fire strobe, or a phase-1 Moore stop —
  // so the shells' transition logic and datapaths build concurrently in
  // per-pearl fragments.
  std::vector<NodeId> fire(spec.pearls.size(), kNoNode);
  std::vector<std::vector<Bus>> tagged(spec.pearls.size());
  for (const std::vector<unsigned>& wave : pearlWaves(spec)) {
    std::vector<std::optional<Fragment>> waveFrags(wave.size());
    std::vector<std::vector<Bus>> taggedLocal(wave.size());
    runTasks("buildSystem.elab", wave.size(), [&](std::size_t idx) {
      const unsigned p = wave[idx];
      const PearlSpec& ps = spec.pearls[p];
      Fragment& frag = waveFrags[idx].emplace(nl);
      std::vector<NodeId> cond;
      std::vector<Bus> inData; // parent ids
      for (unsigned i = 0; i < ps.numInputs; ++i) {
        const std::size_t c = inChan[p][i];
        const ChannelSpec& ch = spec.channels[c];
        if (ch.relays > 0) {
          cond.push_back(relays[c].back().moore("vout"));
          inData.push_back(slots[c].back()[0]);
        } else if (ch.fromPearl == ChannelSpec::kExternal) {
          cond.push_back(extInValid[c]);
          inData.push_back(extInData[c]);
        } else {
          cond.push_back(fire[ch.fromPearl]);
          inData.push_back(tagged[ch.fromPearl][ch.fromPort]);
        }
      }
      for (unsigned j = 0; j < ps.numOutputs; ++j) {
        const std::size_t c = outChan[p][j];
        const ChannelSpec& ch = spec.channels[c];
        if (ch.relays > 0) {
          cond.push_back(relays[c].front().moore("stopo"));
        } else if (ch.toPearl == ChannelSpec::kExternal) {
          cond.push_back(extOutStop[c]);
        } else {
          cond.push_back(shells[ch.toPearl].moore(
              "stopo" + std::to_string(ch.toPort)));
        }
      }
      shells[p].elaborateIn(frag, cond);
      std::vector<Bus> inLocal;
      inLocal.reserve(inData.size());
      for (const Bus& b : inData) inLocal.push_back(frag.importAll(b));
      BusBuilder lbb(frag.netlist());
      const Bus base = shellDatapath(lbb, ps.numInputs, spec.dataWidth,
                                     shells[p], inLocal, ps.name + "_",
                                     &frag);
      taggedLocal[idx].reserve(ps.numOutputs);
      for (unsigned j = 0; j < ps.numOutputs; ++j) {
        taggedLocal[idx].push_back(
            lbb.xorBus(base, lbb.constant(j, spec.dataWidth)));
      }
    });
    OBS_SPAN("buildSystem/splice");
    for (std::size_t idx = 0; idx < wave.size(); ++idx) {
      const unsigned p = wave[idx];
      Fragment& frag = *waveFrags[idx];
      nl.splice(frag);
      shells[p].adopt();
      tagged[p].reserve(taggedLocal[idx].size());
      for (Bus& bus : taggedLocal[idx]) {
        for (NodeId& id : bus) id = frag.parentOf(id);
        tagged[p].push_back(std::move(bus));
      }
      fire[p] = shells[p].mealy("fire");
      sys.control.accumulate(shells[p].stats());
    }
  }

  // A channel's source-side valid/data as seen by its first relay station
  // (or, with no relays, by its sink).
  auto sourceValid = [&](std::size_t c) {
    const ChannelSpec& ch = spec.channels[c];
    return ch.fromPearl == ChannelSpec::kExternal ? extInValid[c]
                                                  : fire[ch.fromPearl];
  };
  auto sourceData = [&](std::size_t c) -> const Bus& {
    const ChannelSpec& ch = spec.channels[c];
    return ch.fromPearl == ChannelSpec::kExternal
               ? extInData[c]
               : tagged[ch.fromPearl][ch.fromPort];
  };
  auto sinkStop = [&](std::size_t c) {
    const ChannelSpec& ch = spec.channels[c];
    return ch.toPearl == ChannelSpec::kExternal
               ? extOutStop[c]
               : shells[ch.toPearl].moore("stopo" + std::to_string(ch.toPort));
  };

  // Phase 3: elaborate the relay chains and wire their shift FIFOs, one
  // fragment per chain. Neighbouring stations couple only through Moore
  // vout/stopo (parent ids since phase 1) and the previous station's head
  // slot register (a parent Dff whose Q is read, never its wiring), so
  // whole chains are mutually independent.
  std::vector<std::size_t> chainChans;
  for (std::size_t c = 0; c < numChan; ++c) {
    if (spec.channels[c].relays > 0) chainChans.push_back(c);
  }
  std::vector<std::optional<Fragment>> chainFrags(chainChans.size());
  runTasks("buildSystem.elab", chainChans.size(), [&](std::size_t idx) {
    const std::size_t c = chainChans[idx];
    const ChannelSpec& ch = spec.channels[c];
    Fragment& frag = chainFrags[idx].emplace(nl);
    for (unsigned k = 0; k < ch.relays; ++k) {
      const NodeId vin =
          k == 0 ? sourceValid(c) : relays[c][k - 1].moore("vout");
      const NodeId stopIn = k + 1 < ch.relays
                                ? relays[c][k + 1].moore("stopo")
                                : sinkStop(c);
      const NodeId cond[] = {vin, stopIn};
      relays[c][k].elaborateIn(frag, cond);
      const Bus& din = k == 0 ? sourceData(c) : slots[c][k - 1][0];
      connectRelaySlots(frag, slots[c][k], relays[c][k], din);
    }
  });
  {
    OBS_SPAN("buildSystem/splice");
    for (std::size_t idx = 0; idx < chainChans.size(); ++idx) {
      const std::size_t c = chainChans[idx];
      nl.splice(*chainFrags[idx]);
      for (FsmInstance& rs : relays[c]) {
        rs.adopt();
        sys.control.accumulate(rs.stats());
      }
    }
  }

  // Phase 4: boundary outputs.
  OBS_SPAN("buildSystem/boundary");
  for (std::size_t k = 0; k < extIn.size(); ++k) {
    const std::size_t c = extIn[k];
    const ChannelSpec& ch = spec.channels[c];
    const NodeId stop = ch.relays > 0 ? relays[c].front().moore("stopo")
                                      : sinkStop(c);
    sys.ports.inValid.push_back(extInValid[c]);
    sys.ports.inData.push_back(extInData[c]);
    sys.ports.inStop.push_back(
        nl.addOutput("in" + std::to_string(k) + "_stop", stop));
  }
  for (std::size_t k = 0; k < extOut.size(); ++k) {
    const std::size_t c = extOut[k];
    const ChannelSpec& ch = spec.channels[c];
    const NodeId valid =
        ch.relays > 0 ? relays[c].back().moore("vout") : sourceValid(c);
    const Bus& data = ch.relays > 0 ? slots[c].back()[0] : sourceData(c);
    const std::string base = "out" + std::to_string(k);
    sys.ports.outValid.push_back(nl.addOutput(base + "_valid", valid));
    sys.ports.outData.push_back(bb.outputBus(base + "_data", data));
    sys.ports.outStop.push_back(extOutStop[c]);
  }
  return sys;
}

SystemSpec wrapperSpec(const WrapperConfig& cfg) {
  SystemSpec spec;
  spec.name = "wrapper";
  spec.dataWidth = cfg.dataWidth;
  spec.encoding = cfg.encoding;
  spec.pearls = {{"pearl", cfg.numInputs, cfg.numOutputs}};
  for (unsigned i = 0; i < cfg.numInputs; ++i) {
    ChannelSpec in;
    in.toPearl = 0;
    in.toPort = i;
    in.relays = 0;
    spec.channels.push_back(in);
  }
  for (unsigned j = 0; j < cfg.numOutputs; ++j) {
    ChannelSpec out;
    out.fromPearl = 0;
    out.fromPort = j;
    out.relayDepth = cfg.relayDepth;
    spec.channels.push_back(out);
  }
  return spec;
}

SystemSpec chainSpec(unsigned numPearls, unsigned relaysPerChannel,
                     Encoding enc, unsigned dataWidth) {
  if (numPearls == 0) {
    throw std::invalid_argument("chainSpec: at least one pearl");
  }
  SystemSpec spec;
  spec.name = "chain";
  spec.name += std::to_string(numPearls);
  spec.name += "_d";
  spec.name += std::to_string(relaysPerChannel);
  spec.dataWidth = dataWidth;
  spec.encoding = enc;
  for (unsigned p = 0; p < numPearls; ++p) {
    std::string name = "p";
    name += std::to_string(p);
    spec.pearls.push_back({std::move(name), 1, 1});
  }
  auto link = [&](int from, int to) {
    ChannelSpec ch;
    ch.fromPearl = from;
    ch.toPearl = to;
    ch.relays = relaysPerChannel;
    spec.channels.push_back(ch);
  };
  link(ChannelSpec::kExternal, 0);
  for (unsigned p = 0; p + 1 < numPearls; ++p) {
    link(static_cast<int>(p), static_cast<int>(p + 1));
  }
  link(static_cast<int>(numPearls - 1), ChannelSpec::kExternal);
  return spec;
}

SystemSpec forkSpec(Encoding enc, unsigned dataWidth) {
  SystemSpec spec;
  spec.name = "fork1to2";
  spec.dataWidth = dataWidth;
  spec.encoding = enc;
  spec.pearls = {{"src", 1, 2}, {"a", 1, 1}, {"b", 1, 1}};
  ChannelSpec ch;
  ch.toPearl = 0;
  spec.channels.push_back(ch); // external -> src
  ch = {};
  ch.fromPearl = 0;
  ch.fromPort = 0;
  ch.toPearl = 1;
  spec.channels.push_back(ch); // src.0 -> a
  ch = {};
  ch.fromPearl = 0;
  ch.fromPort = 1;
  ch.toPearl = 2;
  spec.channels.push_back(ch); // src.1 -> b
  ch = {};
  ch.fromPearl = 1;
  spec.channels.push_back(ch); // a -> external
  ch = {};
  ch.fromPearl = 2;
  spec.channels.push_back(ch); // b -> external
  return spec;
}

SystemSpec joinSpec(Encoding enc, unsigned dataWidth) {
  SystemSpec spec;
  spec.name = "join2to1";
  spec.dataWidth = dataWidth;
  spec.encoding = enc;
  spec.pearls = {{"a", 1, 1}, {"b", 1, 1}, {"join", 2, 1}};
  ChannelSpec ch;
  ch.toPearl = 0;
  spec.channels.push_back(ch); // external -> a
  ch = {};
  ch.toPearl = 1;
  spec.channels.push_back(ch); // external -> b
  ch = {};
  ch.fromPearl = 0;
  ch.toPearl = 2;
  ch.toPort = 0;
  spec.channels.push_back(ch); // a -> join.0
  ch = {};
  ch.fromPearl = 1;
  ch.toPearl = 2;
  ch.toPort = 1;
  spec.channels.push_back(ch); // b -> join.1
  ch = {};
  ch.fromPearl = 2;
  spec.channels.push_back(ch); // join -> external
  return spec;
}

SystemSpec pipelineSpec(unsigned numPearls, unsigned relaysPerChannel,
                        Encoding enc, unsigned dataWidth) {
  if (numPearls == 0) {
    throw std::invalid_argument("pipelineSpec: at least one pearl");
  }
  SystemSpec spec = chainSpec(numPearls, relaysPerChannel, enc, dataWidth);
  spec.name = "pipe";
  spec.name += std::to_string(numPearls);
  spec.name += "_d";
  spec.name += std::to_string(relaysPerChannel);
  return spec;
}

SystemSpec meshSpec(unsigned rows, unsigned cols, unsigned relaysPerChannel,
                    Encoding enc, unsigned dataWidth) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("meshSpec: rows and cols must be >= 1, got " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols));
  }
  SystemSpec spec;
  spec.name = "mesh";
  spec.name += std::to_string(rows);
  spec.name += "x";
  spec.name += std::to_string(cols);
  spec.name += "_d";
  spec.name += std::to_string(relaysPerChannel);
  spec.dataWidth = dataWidth;
  spec.encoding = enc;

  // Pearl (r, c) at index r*cols + c: input 0 = west, input 1 = north,
  // output 0 = east, output 1 = south.
  const auto at = [cols](unsigned r, unsigned c) {
    return static_cast<int>(r * cols + c);
  };
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      std::string name = "r";
      name += std::to_string(r);
      name += "c";
      name += std::to_string(c);
      spec.pearls.push_back({std::move(name), 2, 2});
    }
  }
  const auto link = [&](int from, unsigned fromPort, int to,
                        unsigned toPort) {
    ChannelSpec ch;
    ch.fromPearl = from;
    ch.fromPort = fromPort;
    ch.toPearl = to;
    ch.toPort = toPort;
    ch.relays = relaysPerChannel;
    spec.channels.push_back(ch);
  };
  // West→east lanes, one per row (external source and sink at the edges).
  for (unsigned r = 0; r < rows; ++r) {
    link(ChannelSpec::kExternal, 0, at(r, 0), 0);
    for (unsigned c = 0; c + 1 < cols; ++c) {
      link(at(r, c), 0, at(r, c + 1), 0);
    }
    link(at(r, cols - 1), 0, ChannelSpec::kExternal, 0);
  }
  // North→south lanes, one per column.
  for (unsigned c = 0; c < cols; ++c) {
    link(ChannelSpec::kExternal, 0, at(0, c), 1);
    for (unsigned r = 0; r + 1 < rows; ++r) {
      link(at(r, c), 1, at(r + 1, c), 1);
    }
    link(at(rows - 1, c), 1, ChannelSpec::kExternal, 0);
  }
  // Surface count-dependent guard trips (tag width vs dataWidth and
  // friends) now, on the spec, rather than mid-elaboration.
  spec.validate();
  return spec;
}

SystemSpec ringSpec(Encoding enc, unsigned dataWidth) {
  SystemSpec spec;
  spec.name = "ring";
  spec.dataWidth = dataWidth;
  spec.encoding = enc;
  spec.pearls = {{"hub", 2, 2}, {"loop", 1, 1}};
  ChannelSpec ch;
  ch.toPearl = 0;
  ch.toPort = 0;
  spec.channels.push_back(ch); // external -> hub.in0
  ch = {};
  ch.fromPearl = 0;
  ch.fromPort = 0;
  spec.channels.push_back(ch); // hub.out0 -> external
  ch = {};
  ch.fromPearl = 0;
  ch.fromPort = 1;
  ch.toPearl = 1;
  spec.channels.push_back(ch); // hub.out1 -> loop
  ch = {};
  ch.fromPearl = 1;
  ch.toPearl = 0;
  ch.toPort = 1;
  ch.initialTokens = 1; // the seed token that makes the ring live
  spec.channels.push_back(ch); // loop -> hub.in1
  return spec;
}

} // namespace lis::sync
