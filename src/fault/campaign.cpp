#include "fault/campaign.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace lis::fault {

void OutcomeCounts::count(Outcome o) {
  switch (o) {
    case Outcome::Detected: ++detected; break;
    case Outcome::Recovered: ++recovered; break;
    case Outcome::SilentCorruption: ++silent; break;
    case Outcome::Hang: ++hang; break;
  }
}

namespace {

std::string nodeLabel(const netlist::Netlist& nl, netlist::NodeId id) {
  const netlist::Node& n = nl.node(id);
  if (!n.name.empty()) return n.name;
  return std::string(netlist::opName(n.op)) + "#" + std::to_string(id);
}

} // namespace

std::vector<FaultSite> planSites(const Target& t,
                                 const CampaignOptions& opts) {
  const netlist::Netlist& nl = *t.netlist;
  const std::vector<netlist::NodeId> ctrl = controlRegisters(nl);
  const std::vector<netlist::NodeId> data = dataRegisters(nl);
  const std::vector<netlist::NodeId> gates = gateNodes(nl);
  const std::size_t nOut = t.ports.outValid.size();
  const std::size_t nIn = t.ports.inValid.size();

  // Injection cycles: after a warm-up (tokens in flight, FSMs off their
  // reset states) and within the first half of the horizon, so recovery
  // has at least half the run to manifest.
  const std::uint64_t warmup = opts.inject.cycles / 8 + 1;
  const std::uint64_t window =
      std::max<std::uint64_t>(1, opts.inject.cycles / 2);

  support::SplitMix64 rng(opts.seed);
  const auto drawCycle = [&] { return warmup + rng.below(window); };

  std::vector<FaultSite> sites;
  for (std::size_t k = 0; k < opts.controlSeuCount && !ctrl.empty(); ++k) {
    FaultSite s;
    s.kind = FaultKind::SeuFlip;
    s.node = ctrl[rng.below(ctrl.size())];
    s.cycle = drawCycle();
    s.controlTarget = true;
    s.label = "seu " + nodeLabel(nl, s.node);
    sites.push_back(std::move(s));
  }
  for (std::size_t k = 0; k < opts.dataSeuCount && !data.empty(); ++k) {
    FaultSite s;
    s.kind = FaultKind::SeuFlip;
    s.node = data[rng.below(data.size())];
    s.cycle = drawCycle();
    s.label = "seu " + nodeLabel(nl, s.node);
    sites.push_back(std::move(s));
  }
  for (std::size_t k = 0; k < opts.stuckCount && !gates.empty(); ++k) {
    FaultSite s;
    s.kind = (k % 2 == 0) ? FaultKind::StuckAt0 : FaultKind::StuckAt1;
    s.node = gates[rng.below(gates.size())];
    s.cycle = drawCycle();
    s.duration = 0; // permanent
    s.label = std::string(faultKindName(s.kind)) + " " +
              nodeLabel(nl, s.node);
    sites.push_back(std::move(s));
  }
  for (std::size_t k = 0; k < opts.channelCount; ++k) {
    FaultSite s;
    if (k % 2 == 0) {
      if (nOut == 0) continue;
      s.kind = FaultKind::ChannelStall;
      s.channel = rng.below(nOut);
      s.duration = 24;
      s.label = "stall out" + std::to_string(s.channel);
    } else {
      if (nIn == 0) continue;
      s.kind = FaultKind::ChannelGlitch;
      s.channel = rng.below(nIn);
      s.label = "glitch in" + std::to_string(s.channel);
    }
    s.cycle = drawCycle();
    sites.push_back(std::move(s));
  }
  return sites;
}

CampaignResult runCampaign(const Target& t, const CampaignOptions& opts) {
  obs::Span span("fault.campaign");
  const std::vector<FaultSite> sites = planSites(t, opts);
  const std::size_t batches =
      (sites.size() + kBatchExperiments - 1) / kBatchExperiments;
  span.arg("sites", static_cast<double>(sites.size()));
  span.arg("batches", static_cast<double>(batches));
  span.arg("lanes", static_cast<double>(kBatchExperiments));
  std::vector<std::uint64_t> seeds(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    seeds[i] = support::SplitMix64(opts.inject.seed).forkSeed(4096 + i);
  }

  std::vector<std::vector<FaultResult>> parts(batches);
  const auto body = [&](std::size_t b) {
    if (opts.cancel != nullptr && opts.cancel->cancelled()) return;
    const std::size_t first = b * kBatchExperiments;
    const std::size_t count =
        std::min(kBatchExperiments, sites.size() - first);
    parts[b] = injectBatch(t, std::span(sites).subspan(first, count),
                           std::span(seeds).subspan(first, count),
                           opts.inject, opts.cancel);
  };

  if (opts.runner) {
    opts.runner(batches, body);
  } else {
    for (std::size_t b = 0; b < batches; ++b) body(b);
  }

  // Tally in site-plan order; a skipped or cut-short batch (no results)
  // marks the campaign cancelled and contributes nothing to the counts.
  CampaignResult res;
  res.results.reserve(sites.size());
  for (std::vector<FaultResult>& part : parts) {
    if (part.empty()) {
      res.cancelled = true;
      continue;
    }
    for (FaultResult& r : part) {
      res.all.count(r.outcome);
      if (r.site.kind == FaultKind::SeuFlip && r.site.controlTarget) {
        res.controlSeu.count(r.outcome);
      }
      res.results.push_back(std::move(r));
    }
  }
  return res;
}

} // namespace lis::fault
