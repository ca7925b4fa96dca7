#pragma once
// The flow layer's single-write contract, checked over the pipeline runs
// of flow_test and determinism_test: every number a pass recorded is the
// design registry's value under the pass's namespace, and the Report pass
// prints that registry verbatim.

#include <string>
#include <utility>

#include "flow/design.hpp"
#include "flow/pipeline.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

/// The registry namespace each standard pass records under; the bench rows
/// and the regression gate read these names.
inline std::string metricNamespaceOf(const std::string& pass) {
  static const std::pair<const char*, const char*> kNamespaces[] = {
      {"synthesize-control", "synth"}, {"optimize-aig", "aig"},
      {"map-luts", "map"},             {"sta", "sta"},
      {"prove-encoding-equiv", "proof"}, {"cosim", "cosim"},
      {"fault-campaign", "fault"},     {"sat-sweep", "sweep"},
      {"check-invariants", "bmc"},     {"prove-unbounded", "pdr"},
      {"report", "report"}};
  for (const auto& [name, ns] : kNamespaces) {
    if (pass == name) return ns;
  }
  return "";
}

/// The value `key` has in a registry's JSON, as printed ("" if absent).
inline std::string registryEntry(const std::string& json,
                                 const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t from = at + tag.size();
  return json.substr(from, json.find_first_of(",}", from) - from);
}

inline void checkSingleWrite(const lis::flow::RunResult& run,
                             const lis::flow::Design& d) {
  const std::string registry = d.metrics().json();
  for (const lis::flow::PassRecord& rec : run.records) {
    const std::string ns = metricNamespaceOf(rec.name);
    CHECK(!ns.empty());
    for (const auto& [key, value] : rec.metrics) {
      const bool same =
          registryEntry(registry, ns + "." + key) == lis::obs::formatValue(value);
      if (!same) {
        std::printf("  %s: %s.%s = %s in the registry, %s in the record\n",
                    run.design.c_str(), ns.c_str(), key.c_str(),
                    registryEntry(registry, ns + "." + key).c_str(),
                    lis::obs::formatValue(value).c_str());
      }
      CHECK(same);
      // flowbench's judge takes the last bare equiv_proved of a run.
      if (key == "equiv_proved") {
        CHECK(rec.name == "optimize-aig" || rec.name == "sat-sweep");
      }
    }
  }
  if (run.record("report") != nullptr) {
    CHECK(d.reportJson().find("\"metrics\": " + registry + ",") !=
          std::string::npos);
  }
}
