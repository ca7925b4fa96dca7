// flowbench: the end-to-end and per-layer benchmark of the LIS flow.
// flowbench/run.py builds and drives it; see README.md.
//
// One invocation runs one workload (prove | optimize | simulate | inject)
// and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}:
//
//   --trace 0  one repetition: the workload through
//              flow::Pipeline::runMany on a flow::Executor, tracing off,
//              with the end-to-end metrics and a fingerprint of the work
//              counts. run.py repeats such processes and reports medians.
//   --trace 1  two such repetitions (the flow layer's figures and the
//              run-to-run determinism check), then one serial pass that
//              calls each layer's public entry point itself, one design
//              at a time, inside a span this file records. Reports the
//              per-layer metrics and checks that the serial pass
//              reproduced the pooled one exactly.
//
// One operation is one design going through its workload's pipeline; see
// judge() for what fails it.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/suites.hpp"
#include "fault/campaign.hpp"
#include "flow/design.hpp"
#include "flow/executor.hpp"
#include "flow/pipeline.hpp"
#include "lis/oracle.hpp"
#include "lis/synth.hpp"
#include "lis/system.hpp"
#include "netlist/seq_equiv.hpp"
#include "sat/bmc.hpp"
#include "sat/pdr.hpp"
#include "sat/sweep.hpp"
#include "support/rng.hpp"

#ifndef FLOWBENCH_BUILD_TYPE
#define FLOWBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLOWBENCH_COMPILER
#define FLOWBENCH_COMPILER "unknown"
#endif

namespace {

using namespace lis;
using Clock = std::chrono::steady_clock;

// Static initialization runs before main: the closest in-process mark of
// process start, which is where setup_s starts counting.
const Clock::time_point kProcessStart = Clock::now();

/// Seed that every later performance claim must also pass on, beside the
/// seeds it was developed with (see README.md).
constexpr std::uint64_t kHeldOutSeed = 90017;

// Workload sizes (README.md explains each choice).
constexpr unsigned kCosimShards = 4;
constexpr std::uint64_t kCyclesPerShard = 400;
constexpr std::size_t kFaultScale = 4;
constexpr unsigned kBmcDepth = 20;
constexpr unsigned kSetupsPerRep = 16;
/// Pool workers; with the calling thread, 4 threads compute, which fits
/// the 4-core reference machine.
constexpr unsigned kWorkers = 3;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

unsigned onlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads -------------------------------------------------------------

enum class Kind { Prove, Optimize, Simulate, Inject };

std::optional<Kind> parseKind(const std::string& s) {
  if (s == "prove") return Kind::Prove;
  if (s == "optimize") return Kind::Optimize;
  if (s == "simulate") return Kind::Simulate;
  if (s == "inject") return Kind::Inject;
  return std::nullopt;
}

/// prove and optimize use fixed canonical topologies: their inputs do not
/// depend on the seed. simulate and inject draw their stimulus (and inject
/// its fault sites) from it.
std::vector<flow::Design> makeDesigns(Kind kind) {
  const sync::Encoding bin = sync::Encoding::Binary;
  std::vector<flow::Design> designs;
  switch (kind) {
    case Kind::Prove:
      // chain3_d1, fork1to2 and join2to1 each take 9-18 s in PDR, which
      // would leave one repetition per run; chain2_d1 and the ring in both
      // encodings keep every engine of the proof flow at about 5 s.
      for (sync::Encoding enc : {bin, sync::Encoding::OneHot}) {
        designs.emplace_back(sync::chainSpec(2, 1, enc));
        designs.emplace_back(sync::ringSpec(enc));
      }
      break;
    case Kind::Optimize:
      // The sweep suite up to mesh6x6: mesh8x8 (4.8 s) and mesh10x10
      // (11 s) would leave two or fewer repetitions per run.
      designs = bench::sweepSuite();
      designs.erase(designs.end() - 2, designs.end());
      break;
    case Kind::Simulate:
      designs.emplace_back(sync::pipelineSpec(256, 1, bin));
      designs.emplace_back(sync::meshSpec(16, 16, 1, bin));
      designs.emplace_back(sync::meshSpec(32, 32, 1, bin));
      break;
    case Kind::Inject:
      designs = bench::faultSuite();
      break;
  }
  return designs;
}

std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream) {
  return support::SplitMix64(seed).forkSeed(stream);
}

sync::CosimOptions cosimOptions(std::uint64_t seed) {
  sync::CosimOptions o;
  o.cycles = kCosimShards * kCyclesPerShard;
  o.shards = kCosimShards;
  o.seed = streamSeed(seed, 1);
  return o;
}

fault::CampaignOptions campaignOptions(std::uint64_t seed) {
  fault::CampaignOptions o = bench::faultCampaignOptions();
  o.controlSeuCount *= kFaultScale;
  o.dataSeuCount *= kFaultScale;
  o.stuckCount *= kFaultScale;
  o.channelCount *= kFaultScale;
  o.seed = streamSeed(seed, 2);
  o.inject.seed = streamSeed(seed, 3);
  return o;
}

flow::Pipeline makePipeline(Kind kind, std::uint64_t seed) {
  switch (kind) {
    case Kind::Prove: return bench::satPasses();
    case Kind::Optimize: return bench::optPasses();
    case Kind::Simulate: {
      flow::Pipeline p;
      p.synthesizeControl().mapLuts(4).sta().cosim(cosimOptions(seed));
      return p;
    }
    case Kind::Inject: {
      flow::Pipeline p;
      p.synthesizeControl().faultCampaign(campaignOptions(seed));
      return p;
    }
  }
  return {};
}

// --- judging one operation ---------------------------------------------------

/// What a design's run reported beyond its artifacts: from the pooled
/// RunResult, or from the calls the traced run made itself.
struct Verdicts {
  bool passesOk = true;
  std::string error;
  /// The sweep (prove) or CEC (optimize) proof ended proved, not degraded.
  bool proofProved = false;
};

Verdicts verdictsOf(const flow::RunResult& rr) {
  Verdicts v;
  v.passesOk = rr.ok;
  for (const flow::Diagnostic& d : rr.diagnostics) {
    if (d.severity == flow::Severity::Error) {
      v.error = d.pass + ": " + d.message;
      break;
    }
  }
  for (const flow::PassRecord& rec : rr.records) {
    for (const auto& [key, value] : rec.metrics) {
      if (key == "equiv_proved") v.proofProved = value == 1.0;
    }
  }
  return v;
}

using Counts = std::vector<std::pair<std::string, double>>;

struct Outcome {
  bool ok = true;
  std::string why;
  unsigned obligations = 0;
  unsigned proved = 0;
  double slices = 0;
  double fmax = 0;
  Counts counts; // must repeat exactly across runs and run modes
};

/// Judges one operation from the design's artifacts. Fails it on a pass
/// error, a violated or unproved verdict, a cosim mismatch or an output
/// channel that delivered no token, and control-SEU coverage below 1.
/// Designs of workloads that do not map (prove, inject) are mapped
/// greedily here, after the timed window, so slices and fmax_mhz are
/// defined on every workload.
Outcome judge(Kind kind, flow::Design& d, const Verdicts& v) {
  Outcome o;
  const auto fail = [&o](std::string why) {
    if (o.ok) o.why = std::move(why);
    o.ok = false;
  };
  const auto count = [&o, &d](const char* key, double value) {
    o.counts.emplace_back(d.name() + "." + key, value);
  };
  if (!v.passesOk) fail(v.error.empty() ? "pass error" : v.error);

  switch (kind) {
    case Kind::Prove: {
      const sat::NetlistSweepResult* sweep = d.sweepResult();
      const sat::BmcResult* bmc = d.bmcResult();
      const sat::PdrResult* pdr = d.pdrResult();
      if (sweep == nullptr || bmc == nullptr || pdr == nullptr) {
        fail("missing proof artifact");
        break;
      }
      ++o.obligations;
      if (v.proofProved) {
        ++o.proved;
      } else {
        fail("sweep proof degraded");
      }
      if (!bmc->allHold() || bmc->anyDegraded()) fail("bmc bound not reached");
      for (const sat::PdrPropertyResult& p : pdr->properties) {
        ++o.obligations;
        if (p.provedUnbounded && !p.degraded) {
          ++o.proved;
        } else {
          fail(p.name + " not proved");
        }
      }
      if (pdr->properties.size() != 3) fail("expected three properties");
      count("sweep.candidates", static_cast<double>(sweep->stats.candidates));
      count("sweep.proved", static_cast<double>(sweep->stats.proved));
      count("bmc.depth", bmc->minDepthReached());
      count("bmc.conflicts", static_cast<double>(bmc->stats.conflicts));
      count("pdr.frames", pdr->totalFrames());
      count("pdr.clauses", pdr->totalClauses());
      count("pdr.conflicts", static_cast<double>(pdr->stats.conflicts));
      for (const sat::PdrPropertyResult& p : pdr->properties) {
        count(("pdr." + p.name + ".obligations").c_str(),
              static_cast<double>(p.engine.obligations));
      }
      break;
    }
    case Kind::Optimize: {
      ++o.obligations;
      if (v.proofProved) {
        ++o.proved;
      } else {
        fail("optimization proof degraded");
      }
      if (const aig::OptimizeStats* st = d.optimizeStats()) {
        count("aig.ands_after", static_cast<double>(st->andsAfter));
      } else {
        fail("not optimized");
      }
      if (const netlist::ProofStats* ps = d.proofStats()) {
        count("equiv.sat_conflicts", static_cast<double>(ps->satConflicts));
      }
      break;
    }
    case Kind::Simulate: {
      const sync::CosimResult* r = d.cosimResult();
      ++o.obligations;
      if (r == nullptr) {
        fail("no cosim result");
        break;
      }
      bool delivered = !r->tokensPerOutput.empty();
      for (std::uint64_t t : r->tokensPerOutput) delivered = delivered && t > 0;
      if (!r->ok) fail("cosim mismatch: " + r->mismatch);
      if (!delivered) fail("an output channel delivered no token");
      if (r->ok && delivered) ++o.proved;
      count("cosim.cycles", static_cast<double>(r->cyclesRun));
      count("cosim.fires", static_cast<double>(r->fires));
      count("cosim.tokens", static_cast<double>(r->tokens));
      break;
    }
    case Kind::Inject: {
      const fault::CampaignResult* f = d.faultResult();
      if (f == nullptr) {
        ++o.obligations;
        fail("no fault campaign result");
        break;
      }
      o.obligations += static_cast<unsigned>(f->controlSeu.total());
      o.proved += static_cast<unsigned>(f->controlSeu.detected +
                                        f->controlSeu.recovered);
      if (f->cancelled) fail("fault campaign cancelled");
      if (f->controlSeu.coverage() < 1.0) fail("control-SEU coverage below 1");
      count("fault.detected", static_cast<double>(f->all.detected));
      count("fault.recovered", static_cast<double>(f->all.recovered));
      count("fault.silent", static_cast<double>(f->all.silent));
      count("fault.hang", static_cast<double>(f->all.hang));
      break;
    }
  }

  count("proved", o.proved);
  if (!d.hasNetlist()) return o; // synthesis failed: nothing to map
  const techmap::AreaReport& area =
      kind == Kind::Optimize ? d.area(bench::optMapOptions()) : d.area(4);
  o.slices = static_cast<double>(area.slices);
  o.fmax = d.timing().fmaxMHz;
  count("luts", static_cast<double>(area.luts));
  count("slices", o.slices);
  count("fmax_mhz", o.fmax);
  return o;
}

/// One pass of a workload over all its designs.
struct Tally {
  unsigned attempted = 0;
  unsigned failed = 0;
  unsigned obligations = 0;
  unsigned proved = 0;
  double slices = 0;
  double logFmax = 0;
  Counts counts;
  std::vector<std::string> failures;

  void add(const std::string& design, const Outcome& o) {
    ++attempted;
    if (!o.ok) {
      ++failed;
      failures.push_back(design + ": " + o.why);
    }
    obligations += o.obligations;
    proved += o.proved;
    slices += o.slices;
    logFmax += std::log(std::max(o.fmax, 1e-9));
    counts.insert(counts.end(), o.counts.begin(), o.counts.end());
  }
  double fmaxGeomean() const {
    return attempted == 0 ? 0.0 : std::exp(logFmax / attempted);
  }
  double provedShare() const {
    return obligations == 0 ? 0.0
                            : static_cast<double>(proved) / obligations;
  }
};

/// First difference between two fingerprints, empty when identical.
std::string countsDiff(const Counts& a, const Counts& b) {
  if (a.size() != b.size()) {
    return "count lists differ in length (" + std::to_string(a.size()) +
           " vs " + std::to_string(b.size()) + ")";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: %.17g vs %s: %.17g",
                    a[i].first.c_str(), a[i].second, b[i].first.c_str(),
                    b[i].second);
      return buf;
    }
  }
  return "";
}

// --- the pooled (untraced) run -------------------------------------------------

struct PooledRep {
  double wall = 0;
  double cpu = 0;
  Tally tally;
};

struct Setup {
  std::vector<flow::Design> designs;
  flow::Pipeline pipe;
  std::unique_ptr<flow::Executor> exec;
};

/// Pool start, spec and Design construction and a cold synthesis cache:
/// everything before the first runMany call. The pool starts first so its
/// workers are running by then: a worker still starting when runMany
/// submits the designs lets the caller, helping while it waits, take that
/// worker's design into its own wait (README.md, serialization by
/// helping).
Setup setUp(Kind kind, std::uint64_t seed) {
  Setup s;
  s.exec = std::make_unique<flow::Executor>(kWorkers);
  s.designs = makeDesigns(kind);
  s.pipe = makePipeline(kind, seed);
  sync::synthCacheClear();
  return s;
}

PooledRep runPooled(Kind kind, Setup& s) {
  PooledRep rep;
  const double cpu0 = cpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const std::vector<flow::RunResult> results = s.pipe.runMany(s.designs, *s.exec);
  rep.wall = secondsSince(t0);
  rep.cpu = cpuSeconds() - cpu0;
  for (std::size_t i = 0; i < s.designs.size(); ++i) {
    rep.tally.add(s.designs[i].name(),
                  judge(kind, s.designs[i], verdictsOf(results[i])));
  }
  return rep;
}

// --- the traced (serial) run ---------------------------------------------------

/// Spans recorded by the benchmark around each layer call, kept in memory
/// and summarized per layer when the run ends. A span with a `part` also
/// counts towards "<layer>.<part>" (the PDR properties).
class Spans {
public:
  void time(const std::string& layer, const std::function<void()>& call,
            const char* part = nullptr) {
    const Clock::time_point t0 = Clock::now();
    call();
    const double s = secondsSince(t0);
    add(layer, s);
    if (part != nullptr) add(layer + "." + part, s);
    total_ += s;
  }
  double busy(const std::string& layer) const {
    const auto it = layers_.find(layer);
    return it == layers_.end() ? 0.0 : it->second.busy;
  }
  double calls(const std::string& layer) const {
    const auto it = layers_.find(layer);
    return it == layers_.end() ? 0.0 : static_cast<double>(it->second.calls);
  }
  double total() const { return total_; }

private:
  struct Layer {
    double busy = 0;
    unsigned calls = 0;
  };
  void add(const std::string& key, double s) {
    Layer& l = layers_[key];
    l.busy += s;
    ++l.calls;
  }
  std::map<std::string, Layer> layers_;
  double total_ = 0;
};

/// Work counts of the traced run, summed over designs.
struct Work {
  double gates = 0, dffs = 0, pearls = 0;
  double andsBefore = 0, andsAfter = 0, cuts = 0;
  double equivConflicts = 0, equivPropagations = 0, equivDegraded = 0;
  double luts = 0, depth = 0;
  double sweepCandidates = 0, sweepProved = 0;
  double bmcDepth = -1, bmcConflicts = 0;
  double pdrFrames = 0, pdrClauses = 0, pdrObligations = 0, pdrBlocked = 0,
         pdrPushed = 0, pdrLifted = 0, pdrConflicts = 0, pdrPropagations = 0,
         pdrCores = 0, pdrDegraded = 0;
  double cosimCycles = 0, cosimTokens = 0, pearlCycles = 0;
  double experiments = 0;
};

struct PortsAndBound {
  sync::PortView ports;
  unsigned bound = 0;
};

PortsAndBound portsOf(flow::Design& d) {
  if (const sync::WrapperPorts* wp = d.wrapperPorts()) {
    return {sync::portView(*wp), sat::capacityBound(*d.wrapperConfig())};
  }
  return {sync::portView(*d.systemPorts()), sat::capacityBound(*d.systemSpec())};
}

double pearlsOf(const flow::Design& d) {
  const sync::SystemSpec* spec = d.systemSpec();
  return spec != nullptr ? static_cast<double>(spec->pearls.size()) : 1.0;
}

struct Property {
  const char* name;
  bool sat::PdrOptions::*enabled;
};
constexpr Property kProperties[] = {
    {"token_conservation", &sat::PdrOptions::tokenConservation},
    {"occupancy_bound", &sat::PdrOptions::occupancyBound},
    {"deadlock_watchdog", &sat::PdrOptions::deadlockWatchdog},
};

void recordEquiv(const netlist::SeqEquivResult& r, Verdicts& v, Work& w) {
  w.equivConflicts += static_cast<double>(r.proof.satConflicts);
  w.equivPropagations += static_cast<double>(r.proof.satPropagations);
  if (r.degraded) w.equivDegraded += 1;
  v.proofProved = r.equivalent && !r.degraded;
  if (!r.equivalent) {
    v.passesOk = false;
    v.error = "not equivalent: " + r.detail;
  }
}

void traceMapping(flow::Design& d, const techmap::MapOptions& options,
                  Spans& spans, Work& w) {
  const techmap::MappedNetlist* mapped = nullptr;
  const techmap::AreaReport* area = nullptr;
  spans.time("techmap", [&] {
    mapped = &d.mapped(options);
    area = &d.area(options);
  });
  spans.time("timing", [&] { d.timing(); });
  w.luts += static_cast<double>(area->luts);
  w.depth = std::max(w.depth, static_cast<double>(mapped->depth));
}

/// Runs one design through its workload's layers, one public call per
/// span, in the order the pipeline's passes make them.
Verdicts traceDesign(Kind kind, flow::Design& d, std::uint64_t seed,
                     Spans& spans, Work& w) {
  Verdicts v;
  const netlist::Netlist* nl = nullptr;
  spans.time("lis", [&] { nl = &d.netlist(); });
  const netlist::NetlistStats st = nl->stats();
  w.gates += static_cast<double>(st.gates);
  w.dffs += static_cast<double>(st.dffs);
  w.pearls += pearlsOf(d);

  switch (kind) {
    case Kind::Prove: {
      sat::NetlistSweepResult swept;
      spans.time("sat.sweep", [&] { swept = sat::sweepNetlist(*nl); });
      w.sweepCandidates += static_cast<double>(swept.stats.candidates);
      w.sweepProved += static_cast<double>(swept.stats.proved);
      netlist::SeqEquivResult proof;
      spans.time("netlist.equiv", [&] {
        proof = netlist::checkSeqEquivalence(*nl, swept.netlist);
      });
      recordEquiv(proof, v, w);
      d.setSweepResult(std::move(swept));

      const PortsAndBound pb = portsOf(d);
      sat::BmcOptions bmcOpts;
      bmcOpts.depth = kBmcDepth;
      bmcOpts.capacityBound = pb.bound;
      sat::BmcResult bmc;
      spans.time("sat.bmc", [&] {
        bmc = sat::checkInvariants(*nl, pb.ports, bmcOpts);
      });
      const double depth = bmc.minDepthReached();
      w.bmcDepth = w.bmcDepth < 0 ? depth : std::min(w.bmcDepth, depth);
      w.bmcConflicts += static_cast<double>(bmc.stats.conflicts);
      d.setBmcResult(std::move(bmc));

      sat::PdrResult pdr;
      for (const Property& prop : kProperties) {
        sat::PdrOptions o;
        o.capacityBound = pb.bound;
        for (const Property& other : kProperties) o.*other.enabled = false;
        o.*prop.enabled = true;
        sat::PdrResult one;
        spans.time("sat.pdr", [&] {
          one = sat::proveUnbounded(*nl, pb.ports, o);
        }, prop.name);
        const sat::SolverStats& ss = one.stats;
        pdr.stats.conflicts += ss.conflicts;
        pdr.stats.propagations += ss.propagations;
        pdr.stats.cores += ss.cores;
        for (sat::PdrPropertyResult& p : one.properties) {
          w.pdrFrames += p.frames;
          w.pdrClauses += p.clauses;
          w.pdrObligations += static_cast<double>(p.engine.obligations);
          w.pdrBlocked += static_cast<double>(p.engine.cubesBlocked);
          w.pdrPushed += static_cast<double>(p.engine.pushedClauses);
          w.pdrLifted += static_cast<double>(p.engine.liftedLits);
          if (p.degraded) w.pdrDegraded += 1;
          pdr.properties.push_back(std::move(p));
        }
      }
      w.pdrConflicts += static_cast<double>(pdr.stats.conflicts);
      w.pdrPropagations += static_cast<double>(pdr.stats.propagations);
      w.pdrCores += static_cast<double>(pdr.stats.cores);
      d.setPdrResult(std::move(pdr));
      break;
    }
    case Kind::Optimize: {
      const netlist::Netlist* opt = nullptr;
      spans.time("aig", [&] { opt = &d.optimize({.effort = bench::kOptEffort}); });
      const aig::OptimizeStats& os = *d.optimizeStats();
      w.andsBefore += static_cast<double>(os.andsBefore);
      w.andsAfter += static_cast<double>(os.andsAfter);
      w.cuts += static_cast<double>(os.cutsEnumerated);
      netlist::SeqEquivResult proof;
      spans.time("netlist.equiv", [&] {
        proof = netlist::checkSeqEquivalence(*nl, *opt);
      });
      recordEquiv(proof, v, w);
      d.addProofStats(proof.proof);
      traceMapping(d, bench::optMapOptions(), spans, w);
      break;
    }
    case Kind::Simulate: {
      traceMapping(d, techmap::MapOptions{}, spans, w);
      sync::CosimResult r;
      spans.time("lis.cosim", [&] {
        r = sync::cosimSystem(*d.system(), *d.systemSpec(), cosimOptions(seed));
      });
      w.cosimCycles += static_cast<double>(r.cyclesRun);
      w.cosimTokens += static_cast<double>(r.tokens);
      w.pearlCycles += pearlsOf(d) * static_cast<double>(r.cyclesRun);
      d.setCosimResult(std::move(r));
      break;
    }
    case Kind::Inject: {
      const fault::Target target =
          d.wrapperConfig() != nullptr
              ? fault::targetOf(*d.wrapper(), *d.wrapperConfig())
              : fault::targetOf(*d.system(), *d.systemSpec());
      fault::CampaignResult r;
      spans.time("fault", [&] {
        r = fault::runCampaign(target, campaignOptions(seed));
      });
      w.experiments += static_cast<double>(r.all.total());
      d.setFaultResult(std::move(r));
      break;
    }
  }
  return v;
}

// --- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Prints one result line. A repetition line (--trace 0) also carries the
/// fingerprint of its work counts, which run.py compares across
/// repetitions.
void printResult(bool correct, unsigned attempted, unsigned failed,
                 const std::vector<Metric>& metrics,
                 const Counts* fingerprint = nullptr) {
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, ",
              correct ? "true" : "false", attempted, failed);
  if (fingerprint != nullptr) {
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (const auto& [name, value] : *fingerprint) {
      char buf[320];
      std::snprintf(buf, sizeof buf, "%s=%.17g;", name.c_str(), value);
      for (const char* c = buf; *c != '\0'; ++c) {
        h = (h ^ static_cast<unsigned char>(*c)) * 0x100000001b3ULL;
      }
    }
    std::printf("\"counts\": \"%016llx\", ", static_cast<unsigned long long>(h));
  }
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  Kind kind = Kind::Prove;
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload "
               "prove|optimize|simulate|inject --seed N --trace 0|1\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const std::optional<Kind> k = parseKind(value);
      if (!k) usage(("unknown workload " + value).c_str());
      a.kind = *k;
      a.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return a;
}

void reportFailures(const Tally& t) {
  for (const std::string& f : t.failures) {
    std::fprintf(stderr, "flowbench: FAILED %s\n", f.c_str());
  }
}

/// Repetitions of the pooled run, and whether they agree.
struct PooledRuns {
  std::vector<double> setups, walls, cpus;
  Tally first;
  unsigned attempted = 0;
  unsigned failed = 0;
  bool repeatable = true;

  /// One repetition: kSetupsPerRep set-ups (set-up is short beside its
  /// noise, so setup_s is a median over many), then runMany on the last.
  /// The first set-up of the process counts from process start.
  void runOnce(const Args& a) {
    Setup s;
    for (unsigned i = 0; i < kSetupsPerRep; ++i) {
      s = Setup{}; // tear the previous one down outside the timed window
      const Clock::time_point t0 =
          setups.empty() ? kProcessStart : Clock::now();
      s = setUp(a.kind, a.seed);
      setups.push_back(secondsSince(t0));
    }
    const PooledRep r = runPooled(a.kind, s);
    walls.push_back(r.wall);
    cpus.push_back(r.cpu);
    attempted += r.tally.attempted;
    failed += r.tally.failed;
    reportFailures(r.tally);
    if (walls.size() == 1) {
      first = r.tally;
    } else if (const std::string diff = countsDiff(first.counts, r.tally.counts);
               !diff.empty()) {
      std::fprintf(stderr, "flowbench: repetition %zu differs: %s\n",
                   walls.size() - 1, diff.c_str());
      repeatable = false;
    }
  }
};

/// --trace 0: one repetition in this process, so that peak RSS is the
/// workload's own. run.py repeats processes for --seconds and reports
/// the medians.
int runRepetition(const Args& a) {
  PooledRuns p;
  p.runOnce(a);
  printResult(p.failed == 0, p.attempted, p.failed,
              {{"wall_s", p.walls.front(), "s"},
               {"cpu_s", p.cpus.front(), "s"},
               {"setup_s", median(p.setups), "s"},
               {"peak_rss_mb", peakRssMb(), "MB"},
               {"slices", p.first.slices, "count"},
               {"fmax_mhz", p.first.fmaxGeomean(), "MHz"},
               {"proved_share", p.first.provedShare(), "ratio"}},
              &p.first.counts);
  return 0;
}

/// --trace 1: per-layer metrics from a serial traced pass, plus the flow
/// layer's figures from two pooled runs.
int runLayers(const Args& a, unsigned threads) {
  PooledRuns p;
  p.runOnce(a);
  p.runOnce(a);

  std::vector<flow::Design> designs = makeDesigns(a.kind);
  sync::synthCacheClear();
  Spans spans;
  Work w;
  std::vector<Verdicts> verdicts;
  const Clock::time_point t0 = Clock::now();
  for (flow::Design& d : designs) {
    const double before = spans.total();
    verdicts.push_back(traceDesign(a.kind, d, a.seed, spans, w));
    std::printf("traced %s: %.3f s\n", d.name().c_str(),
                spans.total() - before);
  }
  const double tracedWall = secondsSince(t0);
  Tally traced;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    traced.add(designs[i].name(), judge(a.kind, designs[i], verdicts[i]));
  }
  reportFailures(traced);
  bool reproduced = true;
  if (const std::string diff = countsDiff(p.first.counts, traced.counts);
      !diff.empty()) {
    std::fprintf(stderr, "flowbench: traced pass differs from pooled: %s\n",
                 diff.c_str());
    reproduced = false;
  }
  const bool correct = p.repeatable && reproduced && p.failed == 0 &&
                       traced.failed == 0;
  const unsigned attempted = p.attempted + traced.attempted;
  const unsigned failed = p.failed + traced.failed;

  const double wall = median(p.walls);
  const double cpu = median(p.cpus);
  const double t = static_cast<double>(threads);
  std::vector<Metric> m;
  for (const char* layer :
       {"lis", "aig", "netlist.equiv", "techmap", "timing", "sat.sweep",
        "sat.bmc", "sat.pdr", "lis.cosim", "fault"}) {
    m.push_back({std::string(layer) + ".busy_s", spans.busy(layer), "s"});
    m.push_back({std::string(layer) + ".calls", spans.calls(layer), "count"});
  }
  m.push_back({"flow.busy_s", cpu, "s"});
  m.push_back({"flow.calls", static_cast<double>(p.walls.size()), "count"});
  m.push_back({"lis.gates", w.gates, "count"});
  m.push_back({"lis.dffs", w.dffs, "count"});
  m.push_back({"lis.pearls", w.pearls, "count"});
  m.push_back({"aig.ands_before", w.andsBefore, "count"});
  m.push_back({"aig.ands_after", w.andsAfter, "count"});
  m.push_back({"aig.cuts_enumerated", w.cuts, "count"});
  m.push_back({"netlist.equiv.sat_conflicts", w.equivConflicts, "count"});
  m.push_back({"netlist.equiv.sat_propagations", w.equivPropagations, "count"});
  m.push_back({"netlist.equiv.degraded", w.equivDegraded, "count"});
  m.push_back({"techmap.luts", w.luts, "count"});
  m.push_back({"techmap.depth", w.depth, "count"});
  m.push_back({"sat.sweep.candidates", w.sweepCandidates, "count"});
  m.push_back({"sat.sweep.proved", w.sweepProved, "count"});
  m.push_back({"sat.sweep.proved_ratio",
               w.sweepCandidates > 0 ? w.sweepProved / w.sweepCandidates : 0.0,
               "ratio"});
  m.push_back({"sat.bmc.depth", std::max(w.bmcDepth, 0.0), "count"});
  m.push_back({"sat.bmc.conflicts", w.bmcConflicts, "count"});
  for (const Property& prop : kProperties) {
    const std::string key = std::string("sat.pdr.") + prop.name;
    m.push_back({key + ".busy_s", spans.busy(key), "s"});
  }
  m.push_back({"sat.pdr.frames", w.pdrFrames, "count"});
  m.push_back({"sat.pdr.clauses", w.pdrClauses, "count"});
  m.push_back({"sat.pdr.obligations", w.pdrObligations, "count"});
  m.push_back({"sat.pdr.cubes_blocked", w.pdrBlocked, "count"});
  m.push_back({"sat.pdr.pushed_clauses", w.pdrPushed, "count"});
  m.push_back({"sat.pdr.lifted_lits", w.pdrLifted, "count"});
  m.push_back({"sat.pdr.conflicts", w.pdrConflicts, "count"});
  m.push_back({"sat.pdr.propagations", w.pdrPropagations, "count"});
  m.push_back({"sat.pdr.cores", w.pdrCores, "count"});
  m.push_back({"sat.pdr.degraded", w.pdrDegraded, "count"});
  m.push_back({"sat.pdr.blocked_per_obligation",
               w.pdrObligations > 0 ? w.pdrBlocked / w.pdrObligations : 0.0,
               "ratio"});
  const double cosimBusy = spans.busy("lis.cosim");
  m.push_back({"lis.cosim.cycles", w.cosimCycles, "count"});
  m.push_back({"lis.cosim.tokens", w.cosimTokens, "count"});
  m.push_back({"lis.cosim.pearl_cycles_per_s",
               cosimBusy > 0 ? w.pearlCycles / cosimBusy : 0.0, "1/s"});
  const double faultBusy = spans.busy("fault");
  m.push_back({"fault.experiments", w.experiments, "count"});
  m.push_back({"fault.ms_per_experiment",
               w.experiments > 0 ? 1e3 * faultBusy / w.experiments : 0.0,
               "ms"});
  m.push_back({"flow.efficiency", cpu / (t * wall), "ratio"});
  m.push_back({"flow.idle_s", t * wall - cpu, "s"});
  m.push_back({"flow.overhead_s", cpu - spans.total(), "s"});
  m.push_back({"trace.wall_s", tracedWall, "s"});
  m.push_back({"trace.span_coverage", spans.total() / tracedWall, "ratio"});
  m.push_back({"trace.overhead_s", tracedWall - spans.total(), "s"});
  printResult(correct, attempted, failed, m);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  const unsigned cpus = onlineCpus();
  // The caller of runMany runs tasks too: kWorkers + 1 threads compute.
  const unsigned threads = kWorkers + 1;
  std::printf("machine: nproc %u, workers %u (+1 caller), build %s, "
              "compiler %s\n",
              cpus, kWorkers, FLOWBENCH_BUILD_TYPE, FLOWBENCH_COMPILER);
  std::printf("workload %s, seed %llu (held-out seed %llu), trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(kHeldOutSeed), a.trace ? 1 : 0);
  if (cpus < threads) {
    std::fprintf(stderr,
                 "flowbench: refusing to run: nproc %u is smaller than the "
                 "%u computing threads\n",
                 cpus, threads);
    return 3;
  }
  try {
    return a.trace ? runLayers(a, threads) : runRepetition(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
}
