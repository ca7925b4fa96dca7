// lis_bench: performance trajectory of the synthesis and verification
// flow.
//
// Runs every flow suite through the flow::Pipeline: the wrapper matrix,
// the chain / fork / join topologies, the mesh/pipeline scaling sweep
// (16–100 pearls), their optimize-pipeline twins, fault campaigns and SAT
// verification. The suites run through Pipeline::runMany on a
// work-stealing pool: `--jobs N` picks the worker count (default 1 =
// serial), and when N > 1 the suites are re-run serially afterwards so the
// "sweep" header reports the observed speedup against `--jobs 1`. All
// design-derived numbers are deterministic and identical at any job count;
// `--strip-times` zeroes the wall-clock- and job-count-dependent fields so
// two runs can be diffed byte-for-byte.
//
// Every flow design yields one row of "metrics.configs": {suite, design,
// failed, counters, seconds}. The counters are the design's metrics
// registry exactly as the passes filled it (area, fmax, control cost,
// proof verdicts, fault tallies, solver work); "seconds" holds its
// exclusive stage times and cosim wall. Results go to stdout and to a
// JSON file (first positional arg, default "BENCH_sim.json") so
// successive PRs can track the numbers; CI gates the rows with the rule
// tables of tools/check_bench_regression.py.
//
// Observability: beside the rows, the "metrics" JSON section reports
// process-wide engine counters, pool scheduling stats and each suite's
// parallel efficiency: the process CPU time its runMany used over
// (jobs x its wall). `--trace out.json` writes the Chrome trace-event
// JSON of the flow spans. `--suite quick` runs only the wrapper + fault +
// sat suites — the cheap smoke set CI traces on every push. `--suite
// scale` runs only the production-scale sweep
// (pipe256/pipe1024/mesh16x16/mesh32x32) under CI's wall-clock ceiling;
// `--suite full` is everything: all plus scale.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/suites.hpp"
#include "flow/design.hpp"
#include "flow/executor.hpp"
#include "flow/pipeline.hpp"
#include "lis/synth.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

template <class F>
double secondsOf(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// User + system CPU time of the whole process, every thread included.
double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// --strip-times support: every wall-clock- or job-count-dependent value is
// emitted through scrub(), so a stripped run's stdout and JSON are a pure
// function of the design suites — byte-identical across job counts.
bool gStripTimes = false;
double scrub(double v) { return gStripTimes ? 0.0 : v; }

// Replay every buffered diagnostic in submission order (that ordering is
// the parallel-vs-serial determinism contract) and count the designs that
// failed. A broken config no longer aborts the bench: its row is marked
// "failed": true in the JSON, every other config still reports, and the
// bench exits nonzero at the end so CI notices.
std::size_t reportFailures(const std::vector<lis::flow::RunResult>& results) {
  std::size_t failed = 0;
  for (const lis::flow::RunResult& r : results) {
    for (const auto& diag : r.diagnostics) {
      std::fprintf(stderr, "%s [%s/%s]: %s\n", severityName(diag.severity),
                   r.design.c_str(), diag.pass.c_str(),
                   diag.message.c_str());
    }
    if (!r.ok) {
      std::fprintf(stderr, "FAILED config: %s (marked in JSON)\n",
                   r.design.c_str());
      ++failed;
    }
  }
  return failed;
}

// One flow suite's run: its designs and their results in submission
// order, the counters its stdout lines show (the JSON rows carry all of
// them), and the wall and process CPU time of its runMany.
struct SuiteRun {
  const char* suite = "";
  std::vector<const char*> shown;
  std::vector<lis::flow::Design> designs;
  std::vector<lis::flow::RunResult> results;
  double wallSeconds = 0;
  double cpuSeconds = 0;
};

constexpr std::uint64_t kMatrixCosimCycles = 2000;
constexpr std::uint64_t kSweepCosimCycles = 3000;

// Which suites a run covers. `quick` trims to wrapper + fault + sat (the
// smoke set CI traces on every push); `scale` is *only* the production-
// scale sweep, so CI can put a wall-clock ceiling on exactly that work;
// `full` is all + scale.
enum class SuiteMode { Quick, All, Scale, Full };

// The sat suite stays in the smoke set because it is acceptance-gated
// (check_bench_regression's sat rules), although it is the slowest
// suite: 10 s of wall (29 s of CPU) at --jobs 4 on a 4-thread VM,
// Release build, mostly in the unbounded PDR proofs.
// Each suite's runMany is wrapped in a "suite"-category span for the
// trace and timed as wall and process CPU for its parallel efficiency.
std::vector<SuiteRun> runFlowSuites(lis::flow::Executor& exec,
                                    SuiteMode mode) {
  using lis::flow::Pipeline;
  const std::vector<const char*> systemKeys = {
      "synth.pearls", "synth.channels", "map.luts",
      "map.slices",   "sta.fmax_mhz",   "cosim.tokens"};
  const std::vector<const char*> optKeys = {
      "aig.ands_before", "aig.ands_after", "map.slices", "map.lut_depth",
      "aig.equiv_proved"};
  std::vector<SuiteRun> runs;
  const auto run = [&](const char* suite, std::vector<const char*> shown,
                       std::vector<lis::flow::Design> designs,
                       Pipeline pipe) {
    lis::obs::Span span(std::string("suite:") + suite, "suite");
    SuiteRun& r = runs.emplace_back();
    r.suite = suite;
    r.shown = std::move(shown);
    r.designs = std::move(designs);
    const double cpu0 = cpuSeconds();
    r.wallSeconds =
        secondsOf([&] { r.results = pipe.runMany(r.designs, exec); });
    r.cpuSeconds = cpuSeconds() - cpu0;
  };
  const bool matrix = mode == SuiteMode::All || mode == SuiteMode::Full;
  if (mode != SuiteMode::Scale) {
    run("wrapper",
        {"map.luts", "map.slices", "map.lut_depth", "sta.fmax_mhz",
         "synth.sop_cubes", "synth.sop_literals"},
        lis::bench::wrapperSuite(),
        lis::bench::standardPasses(kMatrixCosimCycles));
  }
  if (matrix) {
    run("system", systemKeys, lis::bench::systemSuite(),
        lis::bench::standardPasses(kMatrixCosimCycles));
    run("sweep", systemKeys, lis::bench::sweepSuite(),
        lis::bench::standardPasses(kSweepCosimCycles));
    run("wrapper_opt", optKeys, lis::bench::wrapperSuite(),
        lis::bench::optPasses());
    run("system_opt", optKeys, lis::bench::systemSuite(),
        lis::bench::optPasses());
    run("sweep_opt", optKeys, lis::bench::sweepSuite(),
        lis::bench::optPasses());
  }
  if (mode == SuiteMode::Scale || mode == SuiteMode::Full) {
    run("scale", systemKeys, lis::bench::scaleSuite(),
        lis::bench::standardPasses(lis::bench::kScaleCosimCycles));
  }
  if (mode != SuiteMode::Scale) {
    run("fault",
        {"fault.sites", "fault.detected", "fault.recovered", "fault.silent",
         "fault.hang", "fault.control_seu_coverage"},
        lis::bench::faultSuite(), lis::bench::faultPasses());
    run("sat",
        {"sweep.proved", "sweep.candidates", "bmc.depth", "pdr.all_proved",
         "pdr.frames", "sat.conflicts"},
        lis::bench::satSuite(), lis::bench::satPasses());
  }
  return runs;
}

// A row's "seconds": the design's *exclusive* artifact-stage times (see
// Design::stageSeconds), so they add up to roughly its pipeline time,
// plus the wall of its cosim pass — a pass, not an artifact build.
constexpr std::array<const char*, 5> kStageNames = {
    "synthesize", "optimize", "map", "sta", "cosim"};
using StageSeconds = std::array<double, kStageNames.size()>;

StageSeconds stageSecondsOf(const lis::flow::Design& d,
                            const lis::flow::RunResult& res) {
  StageSeconds s{};
  for (std::size_t k = 0; k + 1 < s.size(); ++k) {
    s[k] = d.stageSeconds(kStageNames[k]);
  }
  for (const lis::flow::PassRecord& rec : res.records) {
    if (rec.name == "cosim") s.back() += rec.seconds;
  }
  return s;
}

std::string jsonSeconds(const StageSeconds& s) {
  std::ostringstream os;
  os << "{";
  for (std::size_t k = 0; k < s.size(); ++k) {
    os << (k == 0 ? "\"" : ", \"") << kStageNames[k]
       << "\": " << scrub(s[k]);
  }
  os << "}";
  return os.str();
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [OUT.json] [--jobs N] [--strip-times] "
               "[--trace FILE] [--suite all|quick|scale|full]\n"
               "  --jobs N       run the flow suites on N pool workers "
               "(default 1 = serial)\n"
               "  --strip-times  zero wall-clock/job-count dependent fields "
               "(byte-identical diffs)\n"
               "  --trace FILE   write Chrome trace-event JSON of the flow "
               "spans to FILE\n"
               "  --suite MODE   all (default), quick (wrapper + fault + "
               "sat suites only),\n"
               "                 scale (production-scale sweep only) or "
               "full (all + scale)\n",
               argv0);
  std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_sim.json";
  std::string tracePath;
  unsigned jobs = 1;
  SuiteMode suiteMode = SuiteMode::All;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      const long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1 || n > 256) usage(argv[0]);
      jobs = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--strip-times") == 0) {
      gStripTimes = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      tracePath = argv[++i];
    } else if (std::strcmp(argv[i], "--suite") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      const char* mode = argv[++i];
      if (std::strcmp(mode, "quick") == 0) {
        suiteMode = SuiteMode::Quick;
      } else if (std::strcmp(mode, "scale") == 0) {
        suiteMode = SuiteMode::Scale;
      } else if (std::strcmp(mode, "full") == 0) {
        suiteMode = SuiteMode::Full;
      } else if (std::strcmp(mode, "all") != 0) {
        usage(argv[0]);
      }
    } else if (argv[i][0] == '-') {
      usage(argv[0]);
    } else {
      outPath = argv[i];
    }
  }

  lis::obs::setThreadName("main");
  if (!tracePath.empty()) lis::obs::Tracer::instance().enable();

  // The flow suites, scheduled across the pool. When parallel, a serial
  // re-run afterwards yields the observed speedup vs --jobs 1 (fresh
  // Designs each time — the artifact caches would otherwise turn the
  // re-run into a no-op).
  // Both measured runs (parallel here, serial re-run below) start from a
  // cold synthesis cache: a warm cache would hand the second run its
  // minimized covers for free and overstate the speedup.
  lis::sync::synthCacheClear();
  lis::flow::Executor exec(jobs);
  std::vector<SuiteRun> runs;
  const double flowWall =
      secondsOf([&] { runs = runFlowSuites(exec, suiteMode); });
  std::size_t failedConfigs = 0;
  for (const SuiteRun& run : runs) {
    failedConfigs += reportFailures(run.results);
  }

  // Snapshot engine counters and pool stats before the serial re-run
  // below: its duplicated work must pollute neither them nor the exported
  // trace (suspend/resume), so all stay a pure function of the parallel
  // run.
  const std::string engineJson = lis::obs::Registry::global().json();
  const lis::flow::Executor::PoolStats pool = exec.poolStats();

  // The serial re-run only exists to measure speedup — whose fields are
  // scrubbed to 0 under --strip-times, so skip the (doubled) work there.
  double serialWall = flowWall;
  if (jobs > 1 && !gStripTimes) {
    lis::obs::Tracer::instance().suspend();
    lis::sync::synthCacheClear(); // cold cache, same as the measured run
    lis::flow::Executor serial(1);
    std::vector<SuiteRun> serialRuns;
    serialWall =
        secondsOf([&] { serialRuns = runFlowSuites(serial, suiteMode); });
    lis::obs::Tracer::instance().resume();
  }
  const double flowSpeedup = flowWall > 0 ? serialWall / flowWall : 1.0;
  // Amdahl inversion: with speedup S at j workers, the serial fraction of
  // the suites is (j/S - 1)/(j - 1). Clamped — measurement noise can push
  // the raw value outside [0, 1] — and only meaningful when a parallel
  // and a serial wall were both measured.
  double serialFraction = 0.0;
  if (jobs > 1 && flowSpeedup > 0) {
    serialFraction = (double(jobs) / flowSpeedup - 1.0) / (double(jobs) - 1.0);
    serialFraction = std::clamp(serialFraction, 0.0, 1.0);
  }
  const unsigned hardwareThreads = std::thread::hardware_concurrency();

  // One row per design: stdout shows the suite's chosen counters, the
  // JSON carries the whole registry. The scaling-sweep rows (sweep +
  // scale) also sum into the sweep header's stage_walls.
  std::ostringstream rows;
  bool firstRow = true;
  StageSeconds stageWalls{};
  for (const SuiteRun& run : runs) {
    const bool scaling = std::strcmp(run.suite, "sweep") == 0 ||
                         std::strcmp(run.suite, "scale") == 0;
    for (std::size_t i = 0; i < run.designs.size(); ++i) {
      const lis::flow::Design& d = run.designs[i];
      const bool failed = !run.results[i].ok;
      const StageSeconds seconds = stageSecondsOf(d, run.results[i]);
      if (scaling) {
        for (std::size_t k = 0; k < seconds.size(); ++k) {
          stageWalls[k] += seconds[k];
        }
      }
      std::printf("%-11s %-22s", run.suite, d.name().c_str());
      if (failed) std::printf(" FAILED");
      for (const char* key : run.shown) {
        if (failed) break;
        std::printf(" %s=%s", key,
                    lis::obs::formatValue(d.metrics().value(key)).c_str());
      }
      std::printf("\n");
      rows << (firstRow ? "\n" : ",\n") << "      {\"suite\": \""
           << run.suite << "\", \"design\": \"" << d.name()
           << "\", \"failed\": " << (failed ? "true" : "false")
           << ", \"counters\": " << d.metrics().json()
           << ", \"seconds\": " << jsonSeconds(seconds) << "}";
      firstRow = false;
    }
  }
  if (gStripTimes) {
    std::printf("flow suites: 0.000s\n"); // job count and walls scrubbed
  } else {
    std::printf("flow suites: %.3fs at --jobs %u", flowWall, jobs);
    if (jobs > 1) {
      std::printf(" (serial %.3fs, speedup %.2fx, serial fraction %.2f, "
                  "%u hw threads)",
                  serialWall, flowSpeedup, serialFraction, hardwareThreads);
    }
    std::printf("\n");
  }
  // Parallel efficiency: the process CPU a suite's runMany used over the
  // core-seconds `jobs` workers had in its wall.
  const auto efficiency = [jobs](double cpu, double wall) {
    return wall > 0 ? cpu / (jobs * wall) : 0.0;
  };
  double suitesCpu = 0;
  double suitesWall = 0;
  for (const SuiteRun& run : runs) {
    suitesCpu += run.cpuSeconds;
    suitesWall += run.wallSeconds;
  }
  if (!gStripTimes) {
    std::printf("utilization: %.2f overall parallel efficiency over %u "
                "worker(s)\n",
                efficiency(suitesCpu, suitesWall), jobs);
    for (const SuiteRun& run : runs) {
      std::printf("utilization: %-12s wall %.3fs cpu %.3fs efficiency "
                  "%.2f\n",
                  run.suite, run.wallSeconds, run.cpuSeconds,
                  efficiency(run.cpuSeconds, run.wallSeconds));
    }
  }

  std::ostringstream js;
  js << "{\n"
     << "  \"settings\": {\"opt_effort\": " << lis::bench::kOptEffort
     << ", \"opt_map_rounds\": " << lis::bench::kOptMapRounds
     << ", \"fault_inject_cycles\": "
     << lis::bench::faultCampaignOptions().inject.cycles
     << ", \"sat_bmc_depth\": " << lis::bench::kSatBmcDepth << "},\n"
     << "  \"metrics\": {\n"
     << "    \"configs\": [" << rows.str() << "\n    ],\n"
     << "    \"engine\": " << engineJson << ",\n"
     << "    \"pool\": {\"workers\": " << scrub(pool.workers)
     << ", \"runs\": " << scrub(static_cast<double>(pool.runs))
     << ", \"steals\": " << scrub(static_cast<double>(pool.steals))
     << ", \"external_runs\": "
     << scrub(static_cast<double>(pool.externalRuns))
     << ", \"idle_seconds\": " << scrub(pool.idleSeconds)
     << ", \"queue_high_water\": "
     << scrub(static_cast<double>(pool.queueHighWater)) << "},\n";
  if (gStripTimes) {
    // Utilization is wall-clock-derived, so it is null under
    // --strip-times (the regression gate only requires it of timed
    // parallel runs).
    js << "    \"utilization\": null\n";
  } else {
    js << "    \"utilization\": {\"workers\": " << jobs
       << ", \"suites\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const SuiteRun& run = runs[i];
      js << "      {\"suite\": \"" << run.suite
         << "\", \"wall_seconds\": " << run.wallSeconds
         << ", \"cpu_seconds\": " << run.cpuSeconds
         << ", \"parallel_efficiency\": "
         << efficiency(run.cpuSeconds, run.wallSeconds) << "}"
         << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    js << "    ], \"overall_parallel_efficiency\": "
       << efficiency(suitesCpu, suitesWall) << "}\n";
  }
  js << "  },\n"
     << "  \"sweep\": {\n"
     << "    \"jobs\": " << (gStripTimes ? 0 : jobs) << ",\n"
     << "    \"hardware_threads\": " << (gStripTimes ? 0 : hardwareThreads)
     << ",\n"
     << "    \"cosim_shards\": " << lis::bench::kCosimShards << ",\n"
     << "    \"flow_wall_seconds\": " << scrub(flowWall) << ",\n"
     << "    \"serial_wall_seconds\": " << scrub(serialWall) << ",\n"
     << "    \"speedup_vs_jobs1\": " << scrub(flowSpeedup) << ",\n"
     << "    \"serial_fraction_est\": " << scrub(serialFraction) << ",\n"
     << "    \"stage_walls\": " << jsonSeconds(stageWalls) << "\n"
     << "  }\n}\n";

  std::ofstream out(outPath);
  out << js.str();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", outPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", outPath.c_str());
  if (!tracePath.empty()) {
    lis::obs::Tracer::instance().disable();
    if (!lis::obs::Tracer::instance().writeChromeTrace(tracePath)) {
      std::fprintf(stderr, "failed to write trace %s\n", tracePath.c_str());
      return 1;
    }
    std::printf("wrote %s\n", tracePath.c_str());
  }
  if (failedConfigs != 0) {
    std::fprintf(stderr, "%zu config(s) failed (marked in %s)\n",
                 failedConfigs, outPath.c_str());
    return 1;
  }
  return 0;
}
