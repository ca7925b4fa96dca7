// Tests for the flow layer: Design's lazy cached artifacts and wall-time
// accounting, Pipeline pass sequencing, the diagnostic channel (errors
// stop the pipeline; exceptions become diagnostics), per-pass metrics and
// their single write into the design registry, and JSON / Verilog report
// emission.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "flow/design.hpp"
#include "flow/pipeline.hpp"
#include "flow_checks.hpp"
#include "netlist/generate.hpp"
#include "test_util.hpp"

using lis::flow::Design;
using lis::flow::Pipeline;
using lis::flow::RunResult;
namespace gen = lis::netlist::gen;

namespace {

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

void dumpDiags(const RunResult& run) {
  for (const auto& d : run.diagnostics) {
    std::printf("%s [%s]: %s\n", severityName(d.severity), d.pass.c_str(),
                d.message.c_str());
  }
}

void testWrapperPipelineHappyPath() {
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 2;
  cfg.encoding = lis::sync::Encoding::Binary;
  Design d(cfg);

  lis::sync::CosimOptions cosim;
  cosim.cycles = 800;
  Pipeline pipe;
  pipe.synthesizeControl()
      .mapLuts(4)
      .sta()
      .proveEncodingEquiv()
      .cosim(cosim)
      .report({/*verilog=*/true});
  const RunResult run = pipe.run(d);
  if (!run.ok) dumpDiags(run);
  CHECK(run.ok);
  CHECK_EQ(run.records.size(), 6u);
  for (const auto& rec : run.records) CHECK(rec.ok);
  checkSingleWrite(run, d);

  // Metrics surfaced by the standard passes.
  const lis::flow::PassRecord* map = run.record("map-luts");
  CHECK(map != nullptr);
  bool sawLuts = false;
  for (const auto& [key, value] : map->metrics) {
    if (key == "luts") {
      sawLuts = true;
      CHECK(value > 0);
    }
  }
  CHECK(sawLuts);
  // The registry mirrors the artifacts the bench rows are read from.
  const lis::obs::Registry& m = d.metrics();
  CHECK(m.value("map.luts") == static_cast<double>(d.area().luts));
  CHECK(m.value("map.ffs") == static_cast<double>(d.area().ffs));
  CHECK(m.value("map.k") == 4.0);
  CHECK(m.value("sta.fmax_mhz") == d.timing().fmaxMHz);
  CHECK(m.value("sta.critical_path_ns") == d.timing().criticalPathNs);
  CHECK(m.value("synth.sop_literals") ==
        static_cast<double>(d.controlStats()->literalsAfter));
  CHECK(m.value("synth.nodes") ==
        static_cast<double>(d.netlist().nodeCount()));
  CHECK(m.value("synth.inputs") ==
        static_cast<double>(d.netlist().stats().inputs));
  CHECK(m.value("cosim.ok") == 1.0);
  CHECK(m.value("cosim.cycles") == 800.0);
  // proveEncodingEquiv's SAT work, the design's only proof here.
  CHECK(d.proofStats() != nullptr);
  CHECK(m.value("proof.sat_conflicts") ==
        static_cast<double>(d.proofStats()->satConflicts));
  CHECK(m.value("proof.sat_propagations") ==
        static_cast<double>(d.proofStats()->satPropagations));
  const lis::flow::PassRecord* cos = run.record("cosim");
  CHECK(cos != nullptr);
  CHECK(d.cosimResult() != nullptr);
  CHECK(d.cosimResult()->ok);
  CHECK_EQ(d.cosimResult()->cyclesRun, 800u);

  // Wall times are recorded per artifact stage.
  CHECK(d.stageSeconds("synthesize") > 0.0);
  CHECK(d.stageSeconds("map") > 0.0);
  CHECK(d.stageSeconds("sta") > 0.0);
  CHECK_EQ(d.stageSeconds("nonsense"), 0.0);

  // Report pass artifacts: the design's name, registry and stage times,
  // plus structural Verilog. The report records no number of its own.
  CHECK(contains(d.reportJson(), "\"design\": \"wrapper_n2m2d2_binary\""));
  CHECK(contains(d.reportJson(), "\"stage_seconds\""));
  CHECK(run.record("report")->metrics.empty());
  CHECK(contains(d.verilog(), "module wrapper_n2m2d2_binary"));
  CHECK(contains(d.verilog(), "always @(posedge clk)"));

  // The run's JSON carries the pass records and an empty diagnostics list.
  const std::string js = run.json();
  CHECK(contains(js, "\"ok\": true"));
  CHECK(contains(js, "\"map-luts\""));
  CHECK(contains(js, "\"fmax_mhz\""));
}

void testLazyCachingAndRemap() {
  Design d(gen::adder(8));
  const lis::netlist::Netlist* nl = &d.netlist();
  CHECK(nl == &d.netlist()); // cached, stable address
  const unsigned depth4 = d.mapped(4).depth;
  CHECK(&d.mapped(4) == &d.mapped(4)); // same k -> cached
  CHECK_EQ(d.mappedK(), 4u);
  const double fmax4 = d.timing().fmaxMHz;
  CHECK(d.hasTiming());

  // A different k remaps and invalidates the timing cache.
  const lis::techmap::MappedNetlist& m6 = d.mapped(6);
  CHECK_EQ(d.mappedK(), 6u);
  CHECK(!d.hasTiming());
  CHECK(m6.depth <= depth4); // wider LUTs never deepen the cover
  const double fmax6 = d.timing().fmaxMHz;
  CHECK(fmax6 + 1e-9 >= fmax4); // nor slow the clock

  // Prebuilt designs have no spec-backed artifacts.
  CHECK(d.wrapperConfig() == nullptr);
  CHECK(d.systemSpec() == nullptr);
  CHECK(d.controlStats() == nullptr);
}

void testInvalidConfigStopsPipeline() {
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 0; // invalid: must throw inside synthesis
  Design d(cfg);
  Pipeline pipe;
  pipe.synthesizeControl().mapLuts(4).sta();
  const RunResult run = pipe.run(d);
  CHECK(!run.ok);
  // Only the failing pass ran, and the diagnostic names the bad field.
  CHECK_EQ(run.records.size(), 1u);
  CHECK(!run.records.front().ok);
  bool sawError = false;
  for (const auto& diag : run.diagnostics) {
    if (diag.severity == lis::flow::Severity::Error &&
        contains(diag.message, "numInputs")) {
      sawError = true;
    }
  }
  CHECK(sawError);
  CHECK(contains(run.json(), "\"ok\": false"));
  checkSingleWrite(run, d);
}

void testPrebuiltDesignSkipsModelPasses() {
  // Spec-less designs pass through the verification passes with notes, and
  // map/sta still work on them through the same pipeline surface.
  Design d(gen::muxTree(3, gen::MuxStyle::Tree));
  Pipeline pipe;
  pipe.synthesizeControl().mapLuts(4).sta().proveEncodingEquiv().cosim();
  const RunResult run = pipe.run(d);
  if (!run.ok) dumpDiags(run);
  CHECK(run.ok);
  CHECK_EQ(run.records.size(), 5u);
  bool sawNote = false;
  for (const auto& diag : run.diagnostics) {
    if (diag.severity == lis::flow::Severity::Note) sawNote = true;
  }
  CHECK(sawNote);
  checkSingleWrite(run, d);
  // A prebuilt netlist still reports its size; the skipped passes record
  // nothing.
  CHECK(d.metrics().value("synth.gates") > 0);
  CHECK(run.record("cosim")->metrics.empty());
}

void testSystemDesignThroughPipeline() {
  Design d(lis::sync::chainSpec(2, 1, lis::sync::Encoding::OneHot));
  Pipeline pipe;
  lis::sync::CosimOptions cosim;
  cosim.cycles = 600;
  pipe.synthesizeControl().mapLuts(4).sta().cosim(cosim).report();
  const RunResult run = pipe.run(d);
  if (!run.ok) dumpDiags(run);
  CHECK(run.ok);
  checkSingleWrite(run, d);
  CHECK(d.systemSpec() != nullptr);
  CHECK(d.controlStats() != nullptr);
  CHECK(d.controlStats()->functions > 0);
  CHECK(d.systemPorts() != nullptr);
  CHECK_EQ(d.systemPorts()->inValid.size(), 1u);
  const lis::obs::Registry& m = d.metrics();
  CHECK(m.value("synth.pearls") ==
        static_cast<double>(d.systemSpec()->pearls.size()));
  CHECK(m.value("synth.channels") ==
        static_cast<double>(d.systemSpec()->channels.size()));
  CHECK(m.value("synth.relay_stations") ==
        static_cast<double>(d.system()->relayStations));
  CHECK(m.value("synth.relay_stations") > 0);
  CHECK(contains(d.reportJson(), "chain2_d1_onehot"));
}

void testFlowbenchWrapperNames() {
  // flowbench reads a wrapper design through wrapperConfig(), wrapper()
  // and wrapperPorts(), and builds its fault target and capacity bound from
  // the config. Each forwards to the system path the library itself uses.
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 2;
  cfg.numOutputs = 2;
  Design w(cfg);
  CHECK(w.name() == "wrapper_n2m2d2_binary");
  CHECK(w.systemSpec() != nullptr);
  CHECK(w.wrapperConfig() != nullptr);
  if (const lis::sync::WrapperConfig* c = w.wrapperConfig()) {
    CHECK_EQ(c->numInputs, 2u);
    CHECK_EQ(c->numOutputs, 2u);
    CHECK_EQ(c->relayDepth, cfg.relayDepth);
  }
  CHECK(w.system() != nullptr);
  CHECK(w.wrapper() == w.system());
  CHECK(w.wrapperPorts() == w.systemPorts());
  CHECK(w.system()->netlist.name() == w.name());
  CHECK_EQ(lis::sat::capacityBound(cfg),
           lis::sat::capacityBound(*w.systemSpec()));
  const lis::fault::Target viaCfg =
      lis::fault::targetOf(*w.system(), cfg);
  CHECK(viaCfg.netlist == &w.netlist());
  CHECK(viaCfg.spec.name == w.systemSpec()->name);
  CHECK_EQ(viaCfg.spec.channels.size(), w.systemSpec()->channels.size());

  Design sys(lis::sync::chainSpec(2, 1, lis::sync::Encoding::Binary));
  CHECK(sys.system() != nullptr);
  CHECK(sys.wrapperConfig() == nullptr);
  CHECK(sys.wrapper() == nullptr);
  CHECK(sys.wrapperPorts() == nullptr);
}

void testPassDeadlineCancelsCosim() {
  // A pass deadline reaches cooperative passes through the cancellation
  // token: a cosim sized far beyond the budget winds down early with a
  // cancellation error, while the earlier (fast) passes stay green and the
  // partial result is kept on the design for inspection.
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 1;
  Design d(cfg);
  lis::sync::CosimOptions cosim;
  cosim.cycles = 50'000'000; // far more work than the deadline allows
  Pipeline pipe;
  pipe.synthesizeControl().cosim(cosim).passDeadline(0.5);
  const RunResult run = pipe.run(d);
  CHECK(!run.ok);
  CHECK_EQ(run.records.size(), 2u);
  CHECK(run.records.front().ok);
  CHECK(!run.records.back().ok);
  checkSingleWrite(run, d);
  bool sawCancel = false;
  for (const auto& diag : run.diagnostics) {
    if (diag.severity == lis::flow::Severity::Error &&
        contains(diag.message, "cancelled")) {
      sawCancel = true;
    }
  }
  CHECK(sawCancel);
  CHECK(d.cosimResult() != nullptr);
  CHECK(d.cosimResult()->cyclesRun < cosim.cycles);
}

void testPassDeadlineFlagsStubbornPass() {
  // A pass that never polls the token still can't bust the budget
  // silently: the pipeline flags it the moment it returns.
  lis::sync::WrapperConfig cfg;
  cfg.numInputs = 1;
  Design d(cfg);
  Pipeline pipe;
  pipe.synthesizeControl().passDeadline(1e-9);
  const RunResult run = pipe.run(d);
  CHECK(!run.ok);
  CHECK_EQ(run.records.size(), 1u);
  CHECK(!run.records.front().ok);
  checkSingleWrite(run, d);
  bool sawDeadline = false;
  for (const auto& diag : run.diagnostics) {
    if (contains(diag.message, "deadline")) sawDeadline = true;
  }
  CHECK(sawDeadline);
}

void testReusablePipeline() {
  // One pipeline, many designs — each run returns its own records.
  Pipeline pipe;
  pipe.synthesizeControl().mapLuts(4).sta();
  for (unsigned n = 1; n <= 2; ++n) {
    lis::sync::WrapperConfig cfg;
    cfg.numInputs = n;
    Design d(cfg);
    const RunResult run = pipe.run(d);
    CHECK(run.ok);
    CHECK(run.design == d.name());
    CHECK_EQ(run.records.size(), 3u);
    CHECK(d.area(4).slices > 0);
    checkSingleWrite(run, d);
  }
}

} // namespace

int main() {
  testWrapperPipelineHappyPath();
  testLazyCachingAndRemap();
  testInvalidConfigStopsPipeline();
  testPrebuiltDesignSkipsModelPasses();
  testSystemDesignThroughPipeline();
  testFlowbenchWrapperNames();
  testPassDeadlineCancelsCosim();
  testPassDeadlineFlagsStubbornPass();
  testReusablePipeline();
  return testExit();
}
