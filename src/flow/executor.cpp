#include "flow/executor.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/trace.hpp"

namespace lis::flow {

namespace {

std::string describeException(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// First line only: aggregate messages stay one-per-failure readable even
/// when an iteration threw something multi-line.
std::string firstLine(const std::string& s) {
  const std::size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

} // namespace

Executor::Executor(unsigned jobs) : jobs_(jobs == 0 ? 1 : jobs) {
  if (jobs_ > 1) pool_ = std::make_unique<support::ThreadPool>(jobs_);
}

Executor::~Executor() = default;

Executor::PoolStats Executor::poolStats() const {
  PoolStats stats;
  if (pool_ == nullptr) return stats;
  stats.workers = pool_->workerCount();
  for (std::size_t w = 0; w < stats.workers; ++w) {
    const support::ThreadPool::WorkerStats ws = pool_->workerStats(w);
    stats.runs += ws.runs;
    stats.steals += ws.steals;
    stats.idleSeconds += ws.idleSeconds;
  }
  stats.externalRuns = pool_->externalRuns();
  stats.queueHighWater = pool_->queueHighWater();
  return stats;
}

std::vector<std::exception_ptr> Executor::forEachAll(
    std::size_t n, const std::function<void(std::size_t)>& f,
    const support::CancellationToken* cancel, const char* label) {
  std::vector<std::exception_ptr> errors(n);
  if (n == 0) return errors;

  // One batch span on the caller plus a "task" span per iteration, emitted
  // identically on the serial and pooled paths so trace structure does not
  // depend on the job count.
  std::optional<obs::Span> batch;
  std::string taskName;
  if (label != nullptr && obs::Tracer::enabled()) {
    batch.emplace(label);
    batch->arg("n", static_cast<double>(n));
    taskName = std::string(label) + "/task";
  }
  const bool spanTasks = !taskName.empty();

  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->cancelled()) break;
      std::optional<obs::Span> span;
      if (spanTasks) {
        span.emplace(taskName, "task");
        span->arg("i", static_cast<double>(i));
      }
      try {
        f(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    return errors;
  }

  // The join state is shared-owned by every task: the caller may observe
  // remaining == 0 through the atomic and return while the last task is
  // still inside its notify — the state must outlive this stack frame.
  // It carries the batch the tasks are tagged with, nested under the
  // batch of the task this call runs in.
  struct JoinState {
    support::ThreadPool::Batch batch;
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done;
  };
  auto state = std::make_shared<JoinState>();
  state->batch.parent = support::ThreadPool::currentBatch();
  state->remaining.store(n, std::memory_order_relaxed);

  for (std::size_t i = 0; i < n; ++i) {
    // f and errors are only touched before the decrement, so the caller
    // (which waits for remaining == 0 before returning) keeps them alive
    // long enough; only `state` is used afterwards.
    pool_->submit([state, &f, &errors, cancel, i, spanTasks, taskName] {
      if (cancel == nullptr || !cancel->cancelled()) {
        std::optional<obs::Span> span;
        if (spanTasks) {
          span.emplace(taskName, "task");
          span->arg("i", static_cast<double>(i));
        }
        try {
          f(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->done.notify_all();
      }
    }, &state->batch);
  }

  // Help instead of sleeping, but only with this batch and the batches
  // nested in it: every iteration was submitted above, so when tryRunOne
  // finds nothing in scope, the stragglers are running on other threads
  // and the last one will ring `done`. Other queued work is left to idle
  // workers. The timed wait covers the benign race where a task finishes
  // between the scan and the wait, and picks up nested tasks submitted
  // meanwhile.
  while (state->remaining.load(std::memory_order_acquire) != 0) {
    if (pool_->tryRunOne(&state->batch)) continue;
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait_for(lock, std::chrono::milliseconds(20), [&] {
      return state->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  return errors;
}

void Executor::forEach(std::size_t n,
                       const std::function<void(std::size_t)>& f,
                       const support::CancellationToken* cancel,
                       const char* label) {
  const std::vector<std::exception_ptr> errors =
      forEachAll(n, f, cancel, label);

  std::vector<ForEachError::Item> failures;
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) failures.push_back({i, describeException(errors[i])});
  }
  if (failures.empty()) return;
  if (failures.size() == 1) {
    // Preserve the original exception type for the single-failure case —
    // callers often catch something more specific than runtime_error.
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  std::string what = std::to_string(failures.size()) + " of " +
                     std::to_string(n) + " iterations failed:";
  for (const ForEachError::Item& item : failures) {
    what += " [" + std::to_string(item.index) + "] " +
            firstLine(item.message) + ";";
  }
  what.pop_back();
  throw ForEachError(what, std::move(failures));
}

} // namespace lis::flow
