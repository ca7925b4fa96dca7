#pragma once
// flow::Executor — the parallelism surface of the flow layer. One Executor
// wraps one work-stealing ThreadPool and hands passes a single primitive,
// forEach(n, f): run f(0..n-1), blocking until all complete, with the
// calling thread draining queued tasks while it waits (so nested fan-outs
// — a pooled design task sharding its cosim — cannot deadlock).
//
// Helping is scoped: each forEach is one pool batch, nested under the
// batch of the task that issued it, and its waiting caller runs only
// iterations of that forEach or of fan-outs nested inside them. A design
// task waiting for its PDR properties therefore never picks up another
// design and serializes it behind its own join; idle workers take those.
//
// Determinism contract: forEach makes no ordering promise between
// iterations, so callers must write results into per-index slots and join
// them in index order afterwards. An Executor built with jobs == 1 has no
// pool at all and runs iterations inline in index order — the serial and
// parallel paths therefore produce identical joined results, which is what
// lets `--jobs 1` and `--jobs 8` emit byte-identical artifacts.
//
// Exceptions thrown by iterations are captured per index and surfaced
// after every iteration has finished — index-deterministic, independent of
// execution interleaving. One failure rethrows the original exception;
// several failures aggregate into a ForEachError carrying every (index,
// message) pair, so multi-failure sweeps are diagnosable instead of
// silently reporting only the lowest index. forEachAll exposes the raw
// per-index exceptions for callers (runMany) that isolate failures
// per item rather than throwing at all.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/cancellation.hpp"
#include "support/thread_pool.hpp"

namespace lis::flow {

/// Thrown by forEach when two or more iterations failed. what() carries
/// the count and the first line of every failure; failures() the full
/// per-index messages, in index order.
class ForEachError : public std::runtime_error {
public:
  struct Item {
    std::size_t index;
    std::string message;
  };

  ForEachError(const std::string& what, std::vector<Item> failures)
      : std::runtime_error(what), failures_(std::move(failures)) {}

  const std::vector<Item>& failures() const { return failures_; }

private:
  std::vector<Item> failures_;
};

class Executor {
public:
  /// jobs == 0 or 1: serial (no threads). jobs >= 2: a pool of `jobs`
  /// workers shared by every forEach issued through this Executor.
  explicit Executor(unsigned jobs);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  unsigned jobs() const { return jobs_; }
  bool parallel() const { return pool_ != nullptr; }

  /// Aggregated work-stealing pool counters (all zero for a serial
  /// executor). Exact once every forEach has joined.
  struct PoolStats {
    unsigned workers = 0;
    std::uint64_t runs = 0;         // tasks executed on pool workers
    std::uint64_t steals = 0;       // of those, taken from a foreign deque
    std::uint64_t externalRuns = 0; // tasks drained by helping callers
    double idleSeconds = 0.0;       // summed worker CV-park time
    std::size_t queueHighWater = 0; // deepest single deque seen
  };
  PoolStats poolStats() const;

  /// Run f(i) for every i in [0, n); returns when all are done. Serial
  /// executors run inline in index order (every index still runs even if
  /// an earlier one threw — same coverage as the pool). Exactly one
  /// failing iteration rethrows its original exception; two or more
  /// aggregate into a ForEachError. A cancelled token makes not-yet-
  /// started iterations no-ops (completed work is unaffected).
  ///
  /// A non-null `label` makes the call observable: when tracing is enabled
  /// it emits one batch span named `label` on the caller plus one
  /// "<label>/task" span (category "task", the utilization report's busy
  /// signal) per iteration — on the serial and pooled paths alike, so trace
  /// structure is jobs-count-invariant. Leave null on hot fan-outs.
  void forEach(std::size_t n, const std::function<void(std::size_t)>& f,
               const support::CancellationToken* cancel = nullptr,
               const char* label = nullptr);

  /// Like forEach but never throws for iteration failures: returns the
  /// per-index exceptions (null where the iteration succeeded or was
  /// skipped by cancellation). The error-isolation primitive under
  /// Pipeline::runMany.
  std::vector<std::exception_ptr> forEachAll(
      std::size_t n, const std::function<void(std::size_t)>& f,
      const support::CancellationToken* cancel = nullptr,
      const char* label = nullptr);

private:
  unsigned jobs_;
  std::unique_ptr<support::ThreadPool> pool_;
};

} // namespace lis::flow
