#include "sat/bmc.hpp"

#include <span>
#include <utility>

#include "netlist/buses.hpp"
#include "obs/trace.hpp"
#include "sat/cnf.hpp"
#include "sat/monitor.hpp"

namespace lis::sat {

namespace {

using netlist::BusBuilder;
using netlist::Netlist;
using netlist::NodeId;

/// The BMC monitor: horizon-sized counters of accepted and delivered
/// tokens per channel, compared against each other with the slack B.
Monitor buildBmcMonitor(const Netlist& base, const sync::PortView& ports,
                        const BmcOptions& opts) {
  const unsigned bound = opts.capacityBound;
  const unsigned wc = BusBuilder::bitsFor(opts.depth + 1);
  const auto counting = [&](Netlist& m, const std::vector<NodeId>& accepted,
                            const std::vector<NodeId>& delivered) {
    // `width`-bit event counter: DFFs created first (feedback), then the
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
          all.push_back(geBus(del, addConst(m, acc, bound + 1)));
        }
        tokenTerms.push_back(m.andTree(all));
      }
    }
    const NodeId tokenOut =
        m.addOutput("__bmc_token_fail", m.orTree(tokenTerms));

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
          all.push_back(geBus(acc, addConst(m, del, bound + 1)));
        }
        occTerms.push_back(m.andTree(all));
      }
    }
    return std::pair{tokenOut,
                     m.addOutput("__bmc_occupancy_fail", m.orTree(occTerms))};
  };
  return buildMonitor(base, ports, opts.watchdogWindow, counting);
}

struct PropertyRun {
  BmcPropertyResult* result;
  NodeId failOut;
  bool active = true;
};

/// Unroll the cone of the properties' fail outputs in `monitor` frame by
/// frame, querying each active property's fail output per frame. Returns
/// the number of DFFs the unrolling encodes per frame.
std::size_t runUnrolling(const Netlist& monitor,
                         std::span<const ForcedInput> forced,
                         std::vector<PropertyRun> props,
                         const BmcOptions& opts, SolverStats& statsOut) {
  if (props.empty()) return 0;
  std::vector<NodeId> roots;
  for (const PropertyRun& p : props) roots.push_back(p.failOut);
  const ConeAig model(monitor, roots, forced);
  Solver solver(opts.seed);
  solver.setBudget({opts.conflictBudget, opts.propagationBudget});
  Unroller unroller(solver, model.sa, model.forced);
  bool stopped = false;
  for (unsigned k = 0; k <= opts.depth && !stopped; k++) {
    if (opts.cancel != nullptr && opts.cancel->cancelled()) break;
    obs::Span frameSpan("sat.bmc.frame");
    frameSpan.arg("depth", static_cast<double>(k));
    unroller.pushFrame();
    for (PropertyRun& p : props) {
      if (!p.active) continue;
      const Lit fail = unroller.outputLit(k, model.cone.toCone[p.failOut]);
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
  return model.cone.netlist.dffs().size();
}

} // namespace

BmcResult checkInvariants(const netlist::Netlist& nl,
                          const sync::PortView& ports,
                          const BmcOptions& opts) {
  obs::Span span("sat.bmc");
  span.arg("depth", static_cast<double>(opts.depth));
  BmcResult result;
  const Monitor mon = buildBmcMonitor(nl, ports, opts);

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
  std::size_t coneDffs =
      runUnrolling(mon.nl, {}, std::move(freeEnv), opts, result.stats);

  if (wd != nullptr) {
    coneDffs += runUnrolling(mon.nl, mon.maximalEnv, {{wd, mon.wdOut}}, opts,
                             result.stats);
  }
  span.arg("cone_dffs", static_cast<double>(coneDffs));
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
  return capacityBound(sync::wrapperSpec(cfg));
}

} // namespace lis::sat
