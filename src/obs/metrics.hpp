#pragma once
// obs::Registry — named counters and gauges.
//
// One registry per flow::Design collects per-config engine stats (AIG
// rewrite adoptions, cosim cycles, fault coverage, ...); Registry::global()
// absorbs process-wide counters flushed by engines that have no design
// context (Solver and BitSim destructors, the thread pool). Values are
// doubles throughout: every stat we track is either a count or a ratio, and
// one type keeps the JSON serialization uniform. All methods are
// thread-safe; callers on hot paths should accumulate locally and flush
// once (the engine destructor pattern) rather than call add() per event.

#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace lis::obs {

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Increment a monotonic counter.
  void add(std::string_view name, double delta = 1.0);
  /// Set a gauge to its latest value.
  void set(std::string_view name, double value);

  /// Current counter or gauge value; 0 when the name is unknown.
  double value(std::string_view name) const;

  void reset();

  /// One flat JSON object, keys sorted, values printed by formatValue().
  /// Deterministic for deterministic values.
  std::string json() const;

  /// Process-wide registry for engine-level counters.
  static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
};

/// A value as the registry prints it: integral values as integers, any
/// other value in shortest round-trip form, so it reads back exactly.
std::string formatValue(double v);

}  // namespace lis::obs
