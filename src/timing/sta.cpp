#include "timing/sta.hpp"

#include <algorithm>
#include <stdexcept>

namespace lis::timing {

using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::Op;

namespace {

std::string describe(const Netlist& nl, NodeId id) {
  const Node& n = nl.node(id);
  std::string s = netlist::opName(n.op);
  if (!n.name.empty()) {
    s += ' ';
    s += n.name;
  }
  s += " (n" + std::to_string(id) + ")";
  return s;
}

} // namespace

TimingReport analyze(const techmap::MappedNetlist& mapped,
                     const TechParams& params) {
  if (mapped.source == nullptr) {
    throw std::invalid_argument("timing::analyze: unmapped netlist");
  }
  const Netlist& nl = *mapped.source;
  const auto fanout = nl.fanoutCounts();
  const auto order = nl.topoOrder();

  constexpr double kUnset = -1.0;
  std::vector<double> arrival(nl.nodeCount(), kUnset);
  std::vector<NodeId> pred(nl.nodeCount(), netlist::kNoNode);
  std::vector<unsigned> levels(nl.nodeCount(), 0);

  for (NodeId id : order) {
    const Node& n = nl.node(id);
    switch (n.op) {
      case Op::Input:
        arrival[id] = params.inputDelay + params.netDelay(fanout[id]);
        break;
      case Op::Dff:
        arrival[id] = params.clkToQ + params.netDelay(fanout[id]);
        break;
      case Op::Const0:
      case Op::Const1:
        arrival[id] = 0.0;
        break;
      case Op::Output:
        arrival[id] = arrival[n.fanin[0]] + params.outputDelay;
        pred[id] = n.fanin[0];
        levels[id] = levels[n.fanin[0]];
        break;
      case Op::Not:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Mux: {
        auto it = mapped.lutOfRoot.find(id);
        if (it == mapped.lutOfRoot.end()) break; // absorbed interior node
        const techmap::Lut& lut = mapped.luts[it->second];
        double worst = 0.0;
        NodeId worstId = netlist::kNoNode;
        for (NodeId leaf : lut.leaves) {
          if (arrival[leaf] > worst) {
            worst = arrival[leaf];
            worstId = leaf;
          }
        }
        arrival[id] = worst + params.lutDelay + params.netDelay(fanout[id]);
        pred[id] = worstId;
        levels[id] = worstId == netlist::kNoNode ? 1 : levels[worstId] + 1;
        break;
      }
    }
  }

  // Endpoints: DFF data/enable pins (+setup) and primary outputs.
  double critical = 0.0;
  NodeId criticalEnd = netlist::kNoNode;
  auto consider = [&](NodeId src, double extra) {
    if (src == netlist::kNoNode || arrival[src] == kUnset) return;
    const double t = arrival[src] + extra;
    if (t > critical) {
      critical = t;
      criticalEnd = src;
    }
  };
  for (NodeId id : nl.dffs()) {
    for (NodeId f : nl.node(id).fanin) consider(f, params.setup);
  }
  for (NodeId id : nl.outputs()) consider(id, 0.0);

  TimingReport report;
  report.criticalPathNs = critical;
  report.minPeriodNs = critical + params.clockSkewMargin;
  report.fmaxMHz =
      report.minPeriodNs > 0.0 ? 1000.0 / report.minPeriodNs : 0.0;
  if (criticalEnd != netlist::kNoNode) {
    report.logicLevels = levels[criticalEnd];
    for (NodeId id = criticalEnd; id != netlist::kNoNode; id = pred[id]) {
      report.criticalPath.push_back(describe(nl, id));
    }
    std::reverse(report.criticalPath.begin(), report.criticalPath.end());
  }
  return report;
}

} // namespace lis::timing
