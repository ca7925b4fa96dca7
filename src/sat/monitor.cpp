#include "sat/monitor.hpp"

#include <algorithm>
#include <tuple>

#include "netlist/buses.hpp"

namespace lis::sat {

using netlist::Netlist;
using netlist::NodeId;

std::vector<NodeId> addConst(Netlist& m, std::span<const NodeId> a,
                             std::uint64_t c) {
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
}

NodeId eqConst(Netlist& m, std::span<const NodeId> a, std::uint64_t c) {
  NodeId eq = m.constant(true);
  for (std::size_t i = 0; i < a.size(); i++) {
    const bool ci = ((c >> i) & 1u) != 0;
    eq = m.mkAnd(eq, ci ? a[i] : m.mkNot(a[i]));
  }
  return eq;
}

Monitor buildMonitor(const Netlist& design, const sync::PortView& ports,
                     unsigned watchdogWindow,
                     const TokenCounting& counting) {
  Monitor mon;
  mon.nl = design;
  Netlist& m = mon.nl;

  // Value of a port signal: inputs are read directly, outputs through
  // their driver.
  const auto sig = [&](NodeId id) {
    return m.node(id).op == netlist::Op::Output ? m.node(id).fanin[0] : id;
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

  std::tie(mon.tokenOut, mon.occOut) = counting(m, accepted, delivered);

  // deadlock watchdog: consecutive cycles with no handshake anywhere,
  // saturating at the window. Meaningful under the maximal-progress
  // environment (offers always held, sink never stalls).
  const unsigned window = std::max(1u, watchdogWindow);
  const unsigned ww = netlist::BusBuilder::bitsFor(window);
  std::vector<NodeId> events = accepted;
  events.insert(events.end(), delivered.begin(), delivered.end());
  const NodeId stall = m.mkNot(m.orTree(events));
  std::vector<NodeId> cnt(ww);
  for (unsigned i = 0; i < ww; i++) cnt[i] = m.mkDff(m.constant(false));
  const NodeId atW = eqConst(m, cnt, window);
  const std::vector<NodeId> inc = addConst(m, cnt, 1);
  for (unsigned i = 0; i < ww; i++) {
    const NodeId wBit = m.constant(((window >> i) & 1u) != 0);
    m.setDffInputs(cnt[i], m.mkAnd(stall, m.mkMux(atW, inc[i], wBit)));
  }
  mon.wdOut = m.addOutput("__watchdog_fail", atW);

  for (const NodeId v : ports.inValid) mon.maximalEnv.push_back({v, true});
  for (const NodeId s : ports.outStop) mon.maximalEnv.push_back({s, false});
  return mon;
}

} // namespace lis::sat
