#include "sat/bmc.hpp"

#include <algorithm>
#include <utility>

#include "aig/bridge.hpp"
#include "netlist/buses.hpp"
#include "obs/trace.hpp"
#include "sat/cnf.hpp"

namespace lis::sat {

namespace {

using netlist::BusBuilder;
using netlist::Netlist;
using netlist::NodeId;

/// The instrumented netlist: the design plus token counters, the
/// stall watchdog and three fail outputs.
struct Monitor {
  Netlist nl;
  NodeId tokenOut = netlist::kNoNode;
  NodeId occOut = netlist::kNoNode;
  NodeId wdOut = netlist::kNoNode;
  std::vector<ForcedInput> maximalEnv; // inValid := 1, outStop := 0
};

Monitor buildMonitor(const Netlist& base, const sync::PortView& ports,
                     const BmcOptions& opts) {
  Monitor mon;
  mon.nl = base; // node ids in `ports` stay valid in the copy
  Netlist& m = mon.nl;
  const unsigned bound = opts.capacityBound;

  // Value of a port signal: inputs are read directly, outputs through
  // their driver.
  const auto sig = [&](NodeId id) {
    return m.node(id).op == netlist::Op::Output ? m.node(id).fanin[0] : id;
  };
  // `width`-bit event counter: DFDs created first (feedback), then the
  // ripple increment wired in via setDffInputs. Counts at most one per
  // frame, and `width` is sized so it never wraps within the horizon.
  const auto counter = [&](NodeId inc, unsigned width) {
    std::vector<NodeId> q(width);
    for (unsigned i = 0; i < width; i++) {
      q[i] = m.mkDff(m.constant(false));
    }
    NodeId carry = inc;
    for (unsigned i = 0; i < width; i++) {
      m.setDffInputs(q[i], m.mkXor(q[i], carry));
      carry = m.mkAnd(q[i], carry);
    }
    return q;
  };
  // a + c over an LSB-first bus, constant c; result one bit wider.
  const auto addConst = [&](const std::vector<NodeId>& a, std::uint64_t c) {
    std::vector<NodeId> sum(a.size() + 1);
    NodeId carry = m.constant(false);
    for (std::size_t i = 0; i < a.size(); i++) {
      const bool ci = ((c >> i) & 1u) != 0;
      if (ci) {
        sum[i] = m.mkNot(m.mkXor(a[i], carry));
        carry = m.mkOr(a[i], carry);
      } else {
        sum[i] = m.mkXor(a[i], carry);
        carry = m.mkAnd(a[i], carry);
      }
    }
    sum[a.size()] = carry;
    return sum;
  };
  // a >= b, MSB-first magnitude compare; shorter bus zero-extends.
  const auto geBus = [&](std::vector<NodeId> a, std::vector<NodeId> b) {
    while (a.size() < b.size()) a.push_back(m.constant(false));
    while (b.size() < a.size()) b.push_back(m.constant(false));
    NodeId gt = m.constant(false);
    NodeId eq = m.constant(true);
    for (std::size_t i = a.size(); i-- > 0;) {
      gt = m.mkOr(gt, m.mkAnd(eq, m.mkAnd(a[i], m.mkNot(b[i]))));
      eq = m.mkAnd(eq, m.mkNot(m.mkXor(a[i], b[i])));
    }
    return m.mkOr(gt, eq);
  };
  const auto constBus = [&](std::uint64_t c) {
    std::vector<NodeId> bits;
    for (std::uint64_t rest = c; rest != 0; rest >>= 1) {
      bits.push_back(m.constant((rest & 1u) != 0));
    }
    if (bits.empty()) bits.push_back(m.constant(false));
    return bits;
  };
  const auto eqConst = [&](const std::vector<NodeId>& a, std::uint64_t c) {
    NodeId eq = m.constant(true);
    for (std::size_t i = 0; i < a.size(); i++) {
      const bool ci = ((c >> i) & 1u) != 0;
      eq = m.mkAnd(eq, ci ? a[i] : m.mkNot(a[i]));
    }
    return eq;
  };

  std::vector<NodeId> accepted, delivered;
  for (std::size_t i = 0; i < ports.inValid.size(); i++) {
    accepted.push_back(
        m.mkAnd(ports.inValid[i], m.mkNot(sig(ports.inStop[i]))));
  }
  for (std::size_t j = 0; j < ports.outValid.size(); j++) {
    delivered.push_back(
        m.mkAnd(sig(ports.outValid[j]), m.mkNot(ports.outStop[j])));
  }

  const unsigned wc = BusBuilder::bitsFor(opts.depth + 1);
  std::vector<std::vector<NodeId>> accCnt, delCnt;
  for (const NodeId a : accepted) accCnt.push_back(counter(a, wc));
  for (const NodeId d : delivered) delCnt.push_back(counter(d, wc));

  // token conservation: some delivery counter exceeds *every* accept
  // counter by more than B. With no external inputs, deliveries can
  // only come from the B stored/seed tokens.
  std::vector<NodeId> tokenTerms;
  for (const auto& del : delCnt) {
    if (accCnt.empty()) {
      tokenTerms.push_back(geBus(del, constBus(bound + 1)));
    } else {
      std::vector<NodeId> all;
      for (const auto& acc : accCnt) {
        all.push_back(geBus(del, addConst(acc, bound + 1)));
      }
      tokenTerms.push_back(m.andTree(all));
    }
  }
  mon.tokenOut = m.addOutput("__bmc_token_fail", m.orTree(tokenTerms));

  // buffer occupancy: some accept counter exceeds every delivery
  // counter by more than B — more tokens absorbed than the design can
  // hold.
  std::vector<NodeId> occTerms;
  for (const auto& acc : accCnt) {
    if (delCnt.empty()) {
      occTerms.push_back(geBus(acc, constBus(bound + 1)));
    } else {
      std::vector<NodeId> all;
      for (const auto& del : delCnt) {
        all.push_back(geBus(acc, addConst(del, bound + 1)));
      }
      occTerms.push_back(m.andTree(all));
    }
  }
  mon.occOut = m.addOutput("__bmc_occupancy_fail", m.orTree(occTerms));

  // deadlock watchdog: consecutive cycles with no handshake anywhere,
  // saturating at the window. Meaningful under the maximal-progress
  // environment (offers always held, sink never stalls), which the
  // watchdog unrolling forces.
  const unsigned window = std::max(1u, opts.watchdogWindow);
  const unsigned ww = BusBuilder::bitsFor(window);
  std::vector<NodeId> events = accepted;
  events.insert(events.end(), delivered.begin(), delivered.end());
  const NodeId stall = m.mkNot(m.orTree(events));
  std::vector<NodeId> cnt(ww);
  for (unsigned i = 0; i < ww; i++) cnt[i] = m.mkDff(m.constant(false));
  const NodeId atW = eqConst(cnt, window);
  const std::vector<NodeId> inc = addConst(cnt, 1);
  for (unsigned i = 0; i < ww; i++) {
    const NodeId wBit = m.constant(((window >> i) & 1u) != 0);
    m.setDffInputs(cnt[i], m.mkAnd(stall, m.mkMux(atW, inc[i], wBit)));
  }
  mon.wdOut = m.addOutput("__bmc_watchdog_fail", atW);

  for (const NodeId v : ports.inValid) mon.maximalEnv.push_back({v, true});
  for (const NodeId s : ports.outStop) mon.maximalEnv.push_back({s, false});
  return mon;
}

struct PropertyRun {
  BmcPropertyResult* result;
  NodeId failOut;
  bool active = true;
};

/// Unroll `sa` frame by frame, querying each active property's fail
/// output per frame.
void runUnrolling(const aig::SequentialAig& sa,
                  std::vector<ForcedInput> forced,
                  std::vector<PropertyRun> props, const BmcOptions& opts,
                  SolverStats& statsOut) {
  if (props.empty()) return;
  Solver solver(opts.seed);
  solver.setBudget({opts.conflictBudget, opts.propagationBudget});
  Unroller unroller(solver, sa, std::move(forced));
  bool stopped = false;
  for (unsigned k = 0; k <= opts.depth && !stopped; k++) {
    if (opts.cancel != nullptr && opts.cancel->cancelled()) break;
    obs::Span frameSpan("sat.bmc.frame");
    frameSpan.arg("depth", static_cast<double>(k));
    unroller.pushFrame();
    for (PropertyRun& p : props) {
      if (!p.active) continue;
      const Lit fail = unroller.outputLit(k, p.failOut);
      const Result r = solver.solve({fail});
      if (r == Result::Unsat) {
        p.result->depthReached = k;
      } else if (r == Result::Sat) {
        p.result->violated = true;
        p.result->failDepth = k;
        p.active = false;
      } else {
        stopped = true; // budget tripped: every surviving query degrades
        break;
      }
    }
  }
  for (PropertyRun& p : props) {
    if (p.active && p.result->depthReached < opts.depth) {
      p.result->degraded = true;
    }
  }
  statsOut.accumulate(solver.stats());
}

} // namespace

BmcResult checkInvariants(const netlist::Netlist& nl,
                          const sync::PortView& ports,
                          const BmcOptions& opts) {
  obs::Span span("sat.bmc");
  span.arg("depth", static_cast<double>(opts.depth));
  BmcResult result;
  const Monitor mon = buildMonitor(nl, ports, opts);
  const aig::SequentialAig sa = aig::fromNetlist(mon.nl);

  result.properties.reserve(3);
  BmcPropertyResult* token = nullptr;
  BmcPropertyResult* occ = nullptr;
  BmcPropertyResult* wd = nullptr;
  if (opts.tokenConservation) {
    result.properties.push_back({"token_conservation"});
    token = &result.properties.back();
  }
  if (opts.occupancyBound) {
    result.properties.push_back({"occupancy_bound"});
    occ = &result.properties.back();
  }
  if (opts.deadlockWatchdog) {
    result.properties.push_back({"deadlock_watchdog"});
    wd = &result.properties.back();
  }

  std::vector<PropertyRun> freeEnv;
  if (token != nullptr) freeEnv.push_back({token, mon.tokenOut});
  if (occ != nullptr) freeEnv.push_back({occ, mon.occOut});
  runUnrolling(sa, {}, std::move(freeEnv), opts, result.stats);

  if (wd != nullptr) {
    runUnrolling(sa, mon.maximalEnv, {{wd, mon.wdOut}}, opts, result.stats);
  }
  return result;
}

unsigned capacityBound(const sync::SystemSpec& spec) {
  unsigned b = 0;
  for (const sync::ChannelSpec& c : spec.channels) {
    b += c.initialTokens + c.relays * c.relayDepth;
  }
  for (const sync::PearlSpec& p : spec.pearls) {
    b += p.numInputs + p.numOutputs + 2;
  }
  return b;
}

unsigned capacityBound(const sync::WrapperConfig& cfg) {
  return cfg.numOutputs * cfg.relayDepth + cfg.numInputs + cfg.numOutputs + 2;
}

} // namespace lis::sat
