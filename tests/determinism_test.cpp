// Determinism tests for the parallel flow engine: the Executor/ThreadPool
// join semantics, the thread-safety of Design's artifact latches, sharded
// cosim reproducibility, and the headline contract — Pipeline::runMany
// over the bench's own suites emits identical artifacts, metrics and
// diagnostics ordering at --jobs 1 and --jobs 8.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <map>

#include "bench/suites.hpp"
#include "fault/campaign.hpp"
#include "flow/design.hpp"
#include "flow/executor.hpp"
#include "flow/pipeline.hpp"
#include "lis/cosim.hpp"
#include "lis/fsm.hpp"
#include "lis/synth.hpp"
#include "lis/system.hpp"
#include "lis/wrapper.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/pdr.hpp"
#include "test_util.hpp"

using lis::flow::Design;
using lis::flow::Executor;
using lis::flow::Pipeline;
using lis::flow::RunResult;

namespace {

void testExecutorForEach() {
  // Serial executor: inline, index order.
  Executor serial(1);
  CHECK(!serial.parallel());
  std::vector<int> order;
  serial.forEach(4, [&](std::size_t i) { order.push_back(int(i)); });
  CHECK_EQ(order.size(), 4u);
  for (int i = 0; i < 4; ++i) CHECK_EQ(order[i], i);

  // Parallel executor: all indices run exactly once, caller blocks for
  // all of them; nested fan-out must not deadlock (the waiter helps).
  Executor pool(4);
  CHECK(pool.parallel());
  std::atomic<int> total{0};
  std::vector<std::atomic<int>> hits(64);
  pool.forEach(8, [&](std::size_t i) {
    pool.forEach(8, [&](std::size_t j) {
      hits[i * 8 + j].fetch_add(1);
      total.fetch_add(1);
    });
  });
  CHECK_EQ(total.load(), 64);
  for (const auto& h : hits) CHECK_EQ(h.load(), 1);

  // Exactly one failing iteration rethrows its original exception,
  // regardless of scheduling.
  bool caught = false;
  try {
    pool.forEach(8, [&](std::size_t i) {
      if (i == 5) throw std::runtime_error("boom 5");
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    CHECK(std::string(e.what()) == "boom 5");
  }
  CHECK(caught);

  // Two or more failures aggregate into a ForEachError that names every
  // failing index in index order — not just the lowest one.
  caught = false;
  try {
    pool.forEach(8, [&](std::size_t i) {
      if (i == 2 || i == 6) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
  } catch (const lis::flow::ForEachError& e) {
    caught = true;
    CHECK_EQ(e.failures().size(), 2u);
    CHECK_EQ(e.failures()[0].index, 2u);
    CHECK_EQ(e.failures()[1].index, 6u);
    CHECK(e.failures()[0].message == "boom 2");
    CHECK(e.failures()[1].message == "boom 6");
    const std::string what = e.what();
    CHECK(what.find("2 of 8") != std::string::npos);
    CHECK(what.find("boom 2") != std::string::npos);
    CHECK(what.find("boom 6") != std::string::npos);
  }
  CHECK(caught);

  // forEachAll isolates failures per index and never throws; every
  // iteration still runs.
  std::atomic<int> ran{0};
  const std::vector<std::exception_ptr> errors =
      pool.forEachAll(6, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 1 || i == 4) throw std::runtime_error("x");
      });
  CHECK_EQ(ran.load(), 6);
  CHECK_EQ(errors.size(), 6u);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    CHECK_EQ(errors[i] != nullptr, i == 1 || i == 4);
  }
}

void testScopedHelping() {
  // A thread waiting in a nested forEach helps only with its own batch:
  // no outer iteration may start on a thread that is inside another outer
  // iteration's nested wait. Unscoped helping stacks them there, behind
  // the waiting one.
  Executor pool(3);
  std::atomic<int> violations{0};
  for (int rep = 0; rep < 5; ++rep) {
    pool.forEach(16, [&](std::size_t) {
      static thread_local bool waiting = false;
      const bool outer = waiting;
      if (outer) violations.fetch_add(1);
      waiting = true;
      pool.forEach(4, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
      waiting = outer;
    });
  }
  CHECK_EQ(violations.load(), 0);

  // Scoping keeps nested fan-outs deadlock-free: three levels on two
  // workers and a helping caller all complete.
  Executor two(2);
  std::atomic<int> leaves{0};
  two.forEach(4, [&](std::size_t) {
    two.forEach(4, [&](std::size_t) {
      two.forEach(4, [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  CHECK_EQ(leaves.load(), 64);
}

void checkSamePdr(const lis::sat::PdrResult& a, const lis::sat::PdrResult& b) {
  CHECK_EQ(a.properties.size(), b.properties.size());
  for (std::size_t p = 0;
       p < a.properties.size() && p < b.properties.size(); ++p) {
    const lis::sat::PdrPropertyResult& x = a.properties[p];
    const lis::sat::PdrPropertyResult& y = b.properties[p];
    CHECK(x.name == y.name);
    CHECK_EQ(x.provedUnbounded, y.provedUnbounded);
    CHECK_EQ(x.violated, y.violated);
    CHECK_EQ(x.degraded, y.degraded);
    CHECK_EQ(x.frames, y.frames);
    CHECK_EQ(x.clauses, y.clauses);
    CHECK_EQ(x.depthReached, y.depthReached);
    CHECK_EQ(x.coneDffs, y.coneDffs);
    CHECK_EQ(x.engine.obligations, y.engine.obligations);
    CHECK_EQ(x.engine.cubesBlocked, y.engine.cubesBlocked);
    CHECK_EQ(x.engine.coreShrunkLits, y.engine.coreShrunkLits);
    CHECK_EQ(x.engine.micDroppedLits, y.engine.micDroppedLits);
    CHECK_EQ(x.engine.pushedClauses, y.engine.pushedClauses);
    CHECK_EQ(x.engine.liftedLits, y.engine.liftedLits);
    for (std::size_t q = 0; q < lis::sat::kPdrQueryKinds; ++q) {
      CHECK_EQ(x.engine.work[q].solves, y.engine.work[q].solves);
      CHECK_EQ(x.engine.work[q].propagations, y.engine.work[q].propagations);
    }
  }
  CHECK_EQ(a.stats.conflicts, b.stats.conflicts);
  CHECK_EQ(a.stats.decisions, b.stats.decisions);
  CHECK_EQ(a.stats.propagations, b.stats.propagations);
  CHECK_EQ(a.stats.restarts, b.stats.restarts);
  CHECK_EQ(a.stats.learnedClauses, b.stats.learnedClauses);
  CHECK_EQ(a.stats.learnedLits, b.stats.learnedLits);
  CHECK_EQ(a.stats.minimizedLits, b.stats.minimizedLits);
  CHECK_EQ(a.stats.deletedClauses, b.stats.deletedClauses);
  CHECK_EQ(a.stats.solves, b.stats.solves);
  CHECK_EQ(a.stats.cores, b.stats.cores);
  CHECK_EQ(a.stats.coreLits, b.stats.coreLits);
}

void testPdrPropertyFanOut() {
  // The properties fanned out as executor tasks prove exactly what the
  // serial loop proves: same order, verdicts, trapezoids, engine counters
  // and solver totals.
  Executor pool(4);
  for (lis::sync::Encoding enc :
       {lis::sync::Encoding::OneHot, lis::sync::Encoding::Binary}) {
    const lis::sync::SystemSpec spec = lis::sync::ringSpec(enc);
    const lis::sync::System sys = lis::sync::buildSystem(spec);
    const lis::sync::PortView ports = lis::sync::portView(sys.ports);
    lis::sat::PdrOptions opts;
    opts.capacityBound = lis::sat::capacityBound(spec);
    const lis::sat::PdrResult serial =
        lis::sat::proveUnbounded(sys.netlist, ports, opts);
    opts.runner = [&pool](std::size_t n,
                          const std::function<void(std::size_t)>& f) {
      pool.forEach(n, f);
    };
    const lis::sat::PdrResult fanned =
        lis::sat::proveUnbounded(sys.netlist, ports, opts);
    CHECK_EQ(serial.properties.size(), 3u);
    CHECK(serial.allProved());
    checkSamePdr(serial, fanned);
  }
}

void testDesignLatchesUnderContention() {
  // Many threads race the same Design's lazy accessors: synthesis must
  // run exactly once (stable netlist address), the map→area→timing chain
  // must never tear. TSan-audited in the sanitize=thread CI job.
  Design d(lis::sync::chainSpec(2, 1, lis::sync::Encoding::Binary));
  Executor pool(8);
  std::vector<const void*> netlists(32);
  std::vector<std::size_t> slices(32);
  std::vector<double> fmax(32);
  pool.forEach(32, [&](std::size_t i) {
    netlists[i] = &d.netlist();
    slices[i] = d.area(4).slices;
    fmax[i] = d.timing().fmaxMHz;
    CHECK(d.controlStats() != nullptr);
  });
  for (std::size_t i = 1; i < netlists.size(); ++i) {
    CHECK(netlists[i] == netlists[0]);
    CHECK_EQ(slices[i], slices[0]);
    CHECK(fmax[i] == fmax[0]);
  }
  CHECK(d.stageSeconds("synthesize") > 0.0);
}

void checkSameNetlist(const lis::netlist::Netlist& a,
                      const lis::netlist::Netlist& b) {
  CHECK_EQ(a.nodeCount(), b.nodeCount());
  const std::size_t n = std::min(a.nodeCount(), b.nodeCount());
  for (lis::netlist::NodeId id = 0; id < n; ++id) {
    const lis::netlist::Node& na = a.node(id);
    const lis::netlist::Node& nb = b.node(id);
    CHECK(na.op == nb.op);
    CHECK(na.name == nb.name);
    CHECK_EQ(na.fanin.size(), nb.fanin.size());
    for (std::size_t f = 0; f < na.fanin.size() && f < nb.fanin.size();
         ++f) {
      CHECK_EQ(na.fanin[f], nb.fanin[f]);
    }
    CHECK_EQ(na.resetValue, nb.resetValue);
    CHECK_EQ(na.hasEnable, nb.hasEnable);
  }
}

void testSynthCacheConcurrent() {
  // Many pool workers race phase-1 + phase-2 construction of the *same*
  // FSM spec into private netlists: the synthesis cache must create one
  // entry (every other lookup a hit), the minimizer must run exactly the
  // once-per-entry set of functions, and the replayed emissions must be
  // gate-identical to the computing thread's, node for node.
  lis::obs::Registry& reg = lis::obs::Registry::global();
  lis::sync::synthCacheClear();
  const double miss0 = reg.value("synth.cache_miss");
  const double hit0 = reg.value("synth.cache_hit");
  const double runs0 = reg.value("synth.minimize_runs");

  const lis::sync::FsmSpec spec = lis::sync::shellFsm(2, 1);
  constexpr std::size_t kHammer = 16;
  std::vector<lis::netlist::Netlist> nets;
  for (std::size_t i = 0; i < kHammer; ++i) nets.emplace_back("hammer");
  Executor pool(8);
  pool.forEach(kHammer, [&](std::size_t i) {
    lis::netlist::Netlist& nl = nets[i];
    std::vector<lis::netlist::NodeId> ins;
    for (const std::string& in : spec.inputs) ins.push_back(nl.addInput(in));
    lis::sync::FsmInstance fsm(spec, lis::sync::Encoding::Binary, nl, "ctl");
    fsm.elaborate(ins);
  });

  // One entry created, everyone else replayed it.
  CHECK(reg.value("synth.cache_miss") - miss0 == 1.0);
  CHECK(reg.value("synth.cache_hit") - hit0 >= double(kHammer - 1));
  const double hammerRuns = reg.value("synth.minimize_runs") - runs0;
  CHECK(hammerRuns > 0.0);
  CHECK_EQ(lis::sync::synthCacheSize(), 1u);
  for (std::size_t i = 1; i < nets.size(); ++i) {
    checkSameNetlist(nets[0], nets[i]);
  }

  // The minimizer ran no more under the 16-thread hammer than a single
  // cold warm-up runs: contention never duplicates minimization work.
  lis::sync::synthCacheClear();
  const double runs1 = reg.value("synth.minimize_runs");
  lis::sync::warmSynthCache(spec, lis::sync::Encoding::Binary);
  CHECK(reg.value("synth.minimize_runs") - runs1 == hammerRuns);
}

void testBuildSystemRunnerInvariance() {
  // buildSystem's parallel elaboration must be a wall-clock-only knob:
  // no runner, a serial-executor runner and a pooled runner (twice, for
  // schedule jitter) all assign the same id to the same node.
  const lis::sync::SystemSpec spec =
      lis::sync::meshSpec(3, 3, 1, lis::sync::Encoding::Binary);
  lis::sync::synthCacheClear();
  const lis::sync::System plain = lis::sync::buildSystem(spec);

  Executor serial(1);
  Executor pool(8);
  const auto runnerOf = [](Executor& e) {
    return lis::sync::BuildOptions::Runner(
        [&e](const char* label, std::size_t n,
             const std::function<void(std::size_t)>& f) {
          e.forEach(n, f, nullptr, label);
        });
  };
  const lis::sync::System viaSerial =
      lis::sync::buildSystem(spec, {runnerOf(serial)});
  const lis::sync::System viaPool =
      lis::sync::buildSystem(spec, {runnerOf(pool)});
  const lis::sync::System viaPoolAgain =
      lis::sync::buildSystem(spec, {runnerOf(pool)});

  CHECK_EQ(plain.relayStations, viaPool.relayStations);
  checkSameNetlist(plain.netlist, viaSerial.netlist);
  checkSameNetlist(plain.netlist, viaPool.netlist);
  checkSameNetlist(plain.netlist, viaPoolAgain.netlist);
}

void testShardedCosimReproducible() {
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 1;
  const lis::sync::Wrapper w = lis::sync::buildWrapper(cfg);

  lis::sync::CosimOptions opts;
  opts.cycles = 1200;
  opts.shards = 4;
  const lis::sync::CosimResult serial = lis::sync::cosimWrapper(w, cfg, opts);
  CHECK(serial.ok);
  CHECK_EQ(serial.cyclesRun, 1200u);

  // Same options with the shard fan-out on a pool: identical outcome.
  Executor pool(4);
  opts.runner = [&](std::size_t n,
                    const std::function<void(std::size_t)>& f) {
    pool.forEach(n, f);
  };
  const lis::sync::CosimResult parallel =
      lis::sync::cosimWrapper(w, cfg, opts);
  CHECK(parallel.ok);
  CHECK_EQ(parallel.cyclesRun, serial.cyclesRun);
  CHECK_EQ(parallel.fires, serial.fires);
  CHECK_EQ(parallel.tokens, serial.tokens);
  CHECK_EQ(parallel.tokensPerOutput.size(), serial.tokensPerOutput.size());
  for (std::size_t j = 0; j < serial.tokensPerOutput.size(); ++j) {
    CHECK_EQ(parallel.tokensPerOutput[j], serial.tokensPerOutput[j]);
  }

  // Sharded and unsharded runs are *different* experiments (independent
  // from-reset slices vs one long run) — but each is self-reproducible.
  const lis::sync::CosimResult again = lis::sync::cosimWrapper(w, cfg, opts);
  CHECK_EQ(again.tokens, parallel.tokens);
}

/// reportJson up to the stage_seconds table (the only wall-clock-derived
/// part of the report).
std::string stripTimes(const std::string& json) {
  const std::size_t pos = json.find("\"stage_seconds\"");
  return pos == std::string::npos ? json : json.substr(0, pos);
}

void checkIdenticalResults(const std::vector<RunResult>& a,
                           const std::vector<RunResult>& b) {
  CHECK_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    CHECK(a[i].design == b[i].design);
    CHECK_EQ(a[i].ok, b[i].ok);
    CHECK_EQ(a[i].records.size(), b[i].records.size());
    for (std::size_t r = 0;
         r < a[i].records.size() && r < b[i].records.size(); ++r) {
      const auto& ra = a[i].records[r];
      const auto& rb = b[i].records[r];
      CHECK(ra.name == rb.name);
      CHECK_EQ(ra.ok, rb.ok);
      CHECK_EQ(ra.metrics.size(), rb.metrics.size());
      for (std::size_t m = 0;
           m < ra.metrics.size() && m < rb.metrics.size(); ++m) {
        CHECK(ra.metrics[m].first == rb.metrics[m].first);
        // report_bytes counts the stage_seconds digits inside the report
        // — the one metric that is wall-clock-derived by construction.
        if (ra.metrics[m].first == "report_bytes") continue;
        CHECK(ra.metrics[m].second == rb.metrics[m].second);
      }
    }
    // Diagnostics: byte-identical sequence, order included.
    CHECK_EQ(a[i].diagnostics.size(), b[i].diagnostics.size());
    for (std::size_t k = 0;
         k < a[i].diagnostics.size() && k < b[i].diagnostics.size(); ++k) {
      CHECK(a[i].diagnostics[k].severity == b[i].diagnostics[k].severity);
      CHECK(a[i].diagnostics[k].pass == b[i].diagnostics[k].pass);
      CHECK(a[i].diagnostics[k].message == b[i].diagnostics[k].message);
    }
  }
}

void testRunManyJobs1VsJobs8() {
  // The bench's own suites (wrapper matrix + system topologies), full
  // pipeline including report: everything but wall times must be
  // byte-identical between a serial and a heavily parallel run.
  Pipeline pipe = lis::bench::standardPasses(/*cosimCycles=*/800);
  pipe.report({/*verilog=*/false});

  auto designs1 = lis::bench::wrapperSuite();
  auto systems1 = lis::bench::systemSuite();
  for (auto& d : systems1) designs1.push_back(std::move(d));
  const std::vector<RunResult> serial = pipe.runMany(designs1, 1u);

  auto designs8 = lis::bench::wrapperSuite();
  auto systems8 = lis::bench::systemSuite();
  for (auto& d : systems8) designs8.push_back(std::move(d));
  const std::vector<RunResult> parallel = pipe.runMany(designs8, 8u);

  checkIdenticalResults(serial, parallel);
  for (std::size_t i = 0; i < designs1.size(); ++i) {
    CHECK(serial[i].ok);
    CHECK(stripTimes(designs1[i].reportJson()) ==
          stripTimes(designs8[i].reportJson()));
  }
}

void testRunManySweepSection() {
  // The mesh/pipeline sweep through the same contract, trimmed to the
  // mid-size topologies and a small cycle budget — the full-size run is
  // the bench's job, not the test's (this suite also runs under TSan,
  // where the 64/100-pearl meshes would dominate the CI wall clock).
  Pipeline pipe = lis::bench::standardPasses(/*cosimCycles=*/400);
  pipe.report({});
  auto sweep1 = lis::bench::sweepSuite();
  auto sweep8 = lis::bench::sweepSuite();
  sweep1.erase(sweep1.begin() + 5, sweep1.end());
  sweep8.erase(sweep8.begin() + 5, sweep8.end());
  const std::vector<RunResult> serial = pipe.runMany(sweep1, 1u);
  const std::vector<RunResult> parallel = pipe.runMany(sweep8, 8u);
  checkIdenticalResults(serial, parallel);
  for (std::size_t i = 0; i < sweep1.size(); ++i) {
    CHECK(serial[i].ok);
    CHECK(stripTimes(sweep1[i].reportJson()) ==
          stripTimes(sweep8[i].reportJson()));
  }
}

void testRunManyOptPipeline() {
  // The optimize pipeline (AIG rewrite + envelope proof + priority-cut
  // mapping whose per-level cut enumeration fans out on the pool): the
  // cover and every metric must be identical at --jobs 1 and --jobs 8.
  Pipeline pipe = lis::bench::optPasses();
  pipe.report({});
  auto designs1 = lis::bench::wrapperSuite();
  auto designs8 = lis::bench::wrapperSuite();
  const std::vector<RunResult> serial = pipe.runMany(designs1, 1u);
  const std::vector<RunResult> parallel = pipe.runMany(designs8, 8u);
  checkIdenticalResults(serial, parallel);
  for (std::size_t i = 0; i < designs1.size(); ++i) {
    CHECK(serial[i].ok);
    CHECK(designs1[i].hasOptimized());
    CHECK(designs1[i].metrics().value("aig.equiv_proved") == 1.0);
    CHECK(stripTimes(designs1[i].reportJson()) ==
          stripTimes(designs8[i].reportJson()));
  }
}

void testRunManySatPipeline() {
  // The SAT verification pipeline (sweep + soundness proof + protocol
  // BMC + unbounded PDR proofs) through the runMany contract: solver
  // statistics, sweep tallies, proof verdicts, BMC outcomes and the
  // PDR trapezoid shape are all deterministic functions of the design,
  // so --jobs 1 and --jobs 8 must agree metric for metric.
  // Trimmed to one encoding of the sat suite — this also runs under
  // TSan, where 8 designs × 2 runs would dominate the wall clock.
  Pipeline pipe = lis::bench::satPasses();
  auto designs1 = lis::bench::satSuite();
  auto designs8 = lis::bench::satSuite();
  designs1.erase(designs1.begin() + 4, designs1.end());
  designs8.erase(designs8.begin() + 4, designs8.end());
  const std::vector<RunResult> serial = pipe.runMany(designs1, 1u);
  const std::vector<RunResult> parallel = pipe.runMany(designs8, 8u);
  checkIdenticalResults(serial, parallel);
  for (std::size_t i = 0; i < designs1.size(); ++i) {
    CHECK(serial[i].ok);
    // The proofs themselves: sweep soundness held and every protocol
    // invariant was proven to the requested depth on both runs.
    for (Design* d : {&designs1[i], &designs8[i]}) {
      const lis::sat::NetlistSweepResult* sw = d->sweepResult();
      CHECK(sw != nullptr);
      const lis::sat::BmcResult* bmc = d->bmcResult();
      CHECK(bmc != nullptr);
      if (bmc == nullptr) continue;
      CHECK(bmc->allHold());
      CHECK(!bmc->anyDegraded());
      CHECK_EQ(bmc->minDepthReached(), lis::bench::kSatBmcDepth);
      CHECK_EQ(bmc->properties.size(), 3u);
      // The unbounded rung on top of it: every protocol invariant is
      // proved for all time, within the default budgets, on both runs.
      const lis::sat::PdrResult* pdr = d->pdrResult();
      CHECK(pdr != nullptr);
      if (pdr == nullptr) continue;
      CHECK(pdr->allProved());
      CHECK(!pdr->anyDegraded());
      CHECK(!pdr->anyViolated());
      CHECK_EQ(pdr->properties.size(), 3u);
      // The registry values the bench rows carry mirror the artifacts.
      const lis::obs::Registry& m = d->metrics();
      if (sw != nullptr) {
        CHECK(m.value("sweep.candidates") ==
              static_cast<double>(sw->stats.candidates));
        CHECK(m.value("sweep.refuted") ==
              static_cast<double>(sw->stats.refuted));
        CHECK(m.value("sweep.undecided") ==
              static_cast<double>(sw->stats.undecided));
      }
      CHECK(m.value("bmc.degraded") == (bmc->anyDegraded() ? 1.0 : 0.0));
      CHECK(m.value("pdr.degraded") == (pdr->anyDegraded() ? 1.0 : 0.0));
      // The per-kind PDR work adds up to the engine's solver totals.
      double solves = 0.0;
      double propagations = 0.0;
      for (std::size_t q = 0; q < lis::sat::kPdrQueryKinds; ++q) {
        const std::string kind =
            lis::sat::pdrQueryName(static_cast<lis::sat::PdrQuery>(q));
        solves += m.value("pdr.solves." + kind);
        propagations += m.value("pdr.propagations." + kind);
      }
      CHECK(solves == static_cast<double>(pdr->stats.solves));
      CHECK(propagations == static_cast<double>(pdr->stats.propagations));
    }
    // Jobs-count invariance of the artifacts behind the bench's sat
    // rows, not just the pass records.
    const auto& s1 = designs1[i].sweepResult()->stats;
    const auto& s8 = designs8[i].sweepResult()->stats;
    CHECK_EQ(s1.proved, s8.proved);
    CHECK_EQ(s1.refuted, s8.refuted);
    CHECK_EQ(s1.andsAfter, s8.andsAfter);
    CHECK_EQ(s1.solver.conflicts, s8.solver.conflicts);
    CHECK_EQ(s1.solver.propagations, s8.solver.propagations);
    const auto& b1 = designs1[i].bmcResult()->stats;
    const auto& b8 = designs8[i].bmcResult()->stats;
    CHECK_EQ(b1.conflicts, b8.conflicts);
    CHECK_EQ(b1.decisions, b8.decisions);
    CHECK_EQ(b1.propagations, b8.propagations);
    // PDR's trapezoid is rebuilt from the same seed and the same
    // obligation order at any job count: cone sizes, frame counts,
    // learned-clause counts, the engine counters and the solver totals
    // all match.
    checkSamePdr(*designs1[i].pdrResult(), *designs8[i].pdrResult());
  }
}

void testFaultCampaignJobsInvariant() {
  // A seeded injection campaign is a pure function of its options: the
  // site plan is drawn serially and each experiment's stimulus seed is a
  // fork of the injection seed by plan index, so a parallel runner can
  // only change wall time — every outcome, cycle and detail string must
  // match the serial run exactly.
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 1;
  const lis::sync::Wrapper w = lis::sync::buildWrapper(cfg);
  const lis::fault::Target target = lis::fault::targetOf(w, cfg);

  lis::fault::CampaignOptions opts;
  opts.inject.cycles = 200;
  opts.controlSeuCount = 8;
  opts.dataSeuCount = 4;
  opts.stuckCount = 4;
  opts.channelCount = 2;
  const lis::fault::CampaignResult serial =
      lis::fault::runCampaign(target, opts);
  CHECK(!serial.cancelled);
  CHECK(serial.all.total() > 0);

  // The parallel run goes through the FaultCampaign pass, which fans the
  // sites out on the executor and records the tallies in the registry.
  Executor pool(8);
  Design d(cfg);
  Pipeline pipe;
  pipe.faultCampaign(opts);
  CHECK(pipe.run(d, pool));
  CHECK(d.faultResult() != nullptr);
  if (d.faultResult() == nullptr) return;
  const lis::fault::CampaignResult& parallel = *d.faultResult();
  CHECK(!parallel.cancelled);
  const lis::obs::Registry& m = d.metrics();
  CHECK(m.value("fault.detected") ==
        static_cast<double>(parallel.all.detected));
  CHECK(m.value("fault.recovered") ==
        static_cast<double>(parallel.all.recovered));
  CHECK(m.value("fault.silent") == static_cast<double>(parallel.all.silent));
  CHECK(m.value("fault.hang") == static_cast<double>(parallel.all.hang));
  CHECK(m.value("fault.detected") + m.value("fault.recovered") +
            m.value("fault.silent") + m.value("fault.hang") ==
        m.value("fault.sites"));

  CHECK_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0;
       i < serial.results.size() && i < parallel.results.size(); ++i) {
    CHECK(serial.results[i].outcome == parallel.results[i].outcome);
    CHECK_EQ(serial.results[i].atCycle, parallel.results[i].atCycle);
    CHECK(serial.results[i].detail == parallel.results[i].detail);
  }
  CHECK_EQ(serial.all.detected, parallel.all.detected);
  CHECK_EQ(serial.all.recovered, parallel.all.recovered);
  CHECK_EQ(serial.all.silent, parallel.all.silent);
  CHECK_EQ(serial.all.hang, parallel.all.hang);
  CHECK_EQ(serial.controlSeu.total(), parallel.controlSeu.total());
}

void testRunManyBuffersFailuresPerDesign() {
  // A failing design among healthy ones: its diagnostics stay in its own
  // RunResult slot (no interleaving), neighbours are untouched, and the
  // Pipeline's own run() state is not clobbered by runMany.
  std::vector<Design> designs;
  lis::sync::WrapperConfig good;
  good.numInputs = 1;
  designs.emplace_back(good);
  lis::sync::WrapperConfig bad;
  bad.numInputs = 0; // rejected by checkWrapperConfig inside synthesis
  designs.emplace_back(bad);
  designs.emplace_back(good);

  Pipeline pipe;
  pipe.synthesizeControl().mapLuts(4).sta();
  const std::vector<RunResult> results = pipe.runMany(designs, 8u);
  CHECK_EQ(results.size(), 3u);
  CHECK(results[0].ok);
  CHECK(!results[1].ok);
  CHECK(results[2].ok);
  CHECK_EQ(results[0].diagnostics.size(), 0u);
  CHECK_EQ(results[2].diagnostics.size(), 0u);
  CHECK_EQ(results[1].records.size(), 1u); // stopped at the failing pass
  bool named = false;
  for (const auto& diag : results[1].diagnostics) {
    if (diag.message.find("numInputs") != std::string::npos) named = true;
  }
  CHECK(named);
  CHECK(results[1].json().find("\"ok\": false") != std::string::npos);
}

void testTraceStructureJobsInvariant() {
  // The tracer's determinism contract: the *set* of spans a runMany
  // records — passes, stage builds, labeled fan-out batches and their
  // per-index task spans — is a pure function of the suite, not of the
  // job count or the schedule. (Timestamps and thread assignment differ,
  // so the comparison is the multiset of span names.)
  const auto traceOf = [](unsigned jobs) {
    lis::obs::Tracer& tracer = lis::obs::Tracer::instance();
    tracer.enable();
    Pipeline pipe = lis::bench::standardPasses(/*cosimCycles=*/400);
    auto designs = lis::bench::wrapperSuite();
    const std::vector<RunResult> results = pipe.runMany(designs, jobs);
    tracer.disable();
    for (const RunResult& r : results) CHECK(r.ok);
    std::map<std::string, std::size_t> counts;
    for (const lis::obs::TraceEvent& e : tracer.snapshot()) {
      CHECK(e.endNs >= e.startNs);
      ++counts[e.name];
    }
    return counts;
  };
  const auto serial = traceOf(1);
  const auto parallel = traceOf(8);
  CHECK(serial == parallel);
  CHECK(serial.count("flow.designs") == 1);
  CHECK(serial.at("flow.designs/task") >= 2);
  CHECK(serial.count("pass:synthesize-control") == 1);
  CHECK(serial.at("cosim.shards") >= 1);
  CHECK(serial.at("buildWrapper") >= 1);

  // The export is well-formed JSON-ish output with the canonical header.
  lis::obs::Tracer& tracer = lis::obs::Tracer::instance();
  const std::string json = tracer.chromeTraceJson();
  CHECK(json.find("\"traceEvents\"") != std::string::npos);
  CHECK(!json.empty() && json.front() == '{' &&
        json[json.size() - 2] == '}');
}

} // namespace

int main() {
  testExecutorForEach();
  testScopedHelping();
  testDesignLatchesUnderContention();
  testSynthCacheConcurrent();
  testBuildSystemRunnerInvariance();
  testShardedCosimReproducible();
  testRunManyJobs1VsJobs8();
  testRunManySweepSection();
  testRunManyOptPipeline();
  testRunManySatPipeline();
  testPdrPropertyFanOut();
  testFaultCampaignJobsInvariant();
  testRunManyBuffersFailuresPerDesign();
  testTraceStructureJobsInvariant();
  return testExit();
}
