#pragma once
// Work-stealing thread pool shared by the flow executor. Each worker owns a
// deque: it pushes and pops work at the back (LIFO, cache-warm), thieves
// take from the front (FIFO, oldest first). External submissions are dealt
// round-robin across the worker deques.
//
// Helping is scoped. Every task carries the Batch it was submitted for,
// and a Batch records the batch of the task that opened it, so batches
// form a tree along the nesting of fan-outs. A caller blocked on a join
// drains queued work through tryRunOne(&batch), which runs only tasks of
// that batch or of batches nested inside it (TBB's
// this_task_arena::isolate): the waiter helps with its own subtasks and
// never stacks an unrelated task — another design, say — on its call
// stack. Idle workers call tryRunOne() unscoped and take any task. Nested
// fan-out stays deadlock-free: a queued task can always be run by the
// thread waiting on its batch.
//
// Tasks must not throw (wrap and capture; the flow executor does). The
// pool is deliberately mutex-per-deque rather than lock-free: flow tasks
// are coarse (whole synthesis passes, cosim shards), so queue contention
// is noise, and the simple locking is ThreadSanitizer-clean by
// construction.
//
// Each worker keeps relaxed-atomic run/steal/idle counters (surfaced
// through workerStats() and the bench "metrics.pool" section); the deques
// track a queue-depth high-water mark under their own mutex.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace lis::support {

class ThreadPool {
public:
  /// One fan-out's tag. Owned by whoever submits its tasks, and kept alive
  /// until the last of them has run; `parent` is the batch of the task
  /// that opened it (null at top level).
  struct Batch {
    const Batch* parent = nullptr;
  };

  /// Batch of the task the calling thread is running, or null outside any
  /// pool task — the parent of a batch opened from here.
  static const Batch* currentBatch() { return tlsBatch_; }

  /// Per-worker counters, sampled with relaxed loads (totals are exact once
  /// the pool has quiesced, e.g. after a join).
  struct WorkerStats {
    std::uint64_t runs = 0;   // tasks executed by this worker
    std::uint64_t steals = 0; // of those, taken from another worker's deque
    double idleSeconds = 0.0; // time spent parked on the sleep CV
  };

  /// Spawns `workers` threads (at least one).
  explicit ThreadPool(unsigned workers) {
    queues_.resize(workers == 0 ? 1 : workers);
    for (auto& q : queues_) q = std::make_unique<Queue>();
    threads_.reserve(queues_.size());
    for (std::size_t w = 0; w < queues_.size(); ++w) {
      threads_.emplace_back([this, w] { workerLoop(w); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(sleepMutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }
  unsigned workerCount() const { return workers(); }

  WorkerStats workerStats(std::size_t worker) const {
    const Queue& q = *queues_[worker];
    WorkerStats stats;
    stats.runs = q.runs.load(std::memory_order_relaxed);
    stats.steals = q.steals.load(std::memory_order_relaxed);
    stats.idleSeconds =
        static_cast<double>(q.idleNs.load(std::memory_order_relaxed)) * 1e-9;
    return stats;
  }

  /// Tasks drained by non-worker threads helping through tryRunOne().
  std::uint64_t externalRuns() const {
    return externalRuns_.load(std::memory_order_relaxed);
  }

  /// Deepest any single deque has been since construction.
  std::size_t queueHighWater() const {
    std::size_t high = 0;
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> lock(q->mutex);
      if (q->highWater > high) high = q->highWater;
    }
    return high;
  }

  /// Enqueue a task of `batch`. Called from any thread; a worker
  /// submitting from inside a task pushes onto its own deque (depth-first,
  /// keeps nested fan-outs from flooding the queues), other threads deal
  /// round-robin.
  void submit(std::function<void()> task, const Batch* batch = nullptr) {
    const std::size_t self = currentWorker();
    const std::size_t target =
        self != kNotAWorker
            ? self
            : nextQueue_.fetch_add(1, std::memory_order_relaxed) %
                  queues_.size();
    {
      std::lock_guard<std::mutex> lock(queues_[target]->mutex);
      auto& deque = queues_[target]->tasks;
      deque.push_back({std::move(task), batch});
      if (deque.size() > queues_[target]->highWater) {
        queues_[target]->highWater = deque.size();
      }
    }
    // Pair the notify with the sleepers' re-check: taking (and dropping)
    // the sleep lock here means a worker between its empty re-scan and
    // its wait cannot miss this task — we block until it is waiting.
    { std::lock_guard<std::mutex> lock(sleepMutex_); }
    wake_.notify_one();
  }

  /// Run one queued task on the calling thread, if any is pending. With a
  /// `scope`, only a task of that batch or of a batch nested inside it
  /// qualifies. Returns false when no deque held a qualifying task at the
  /// time of the scan — that work is then either finished or running on
  /// other threads.
  bool tryRunOne(const Batch* scope = nullptr) {
    const std::size_t self = currentWorker();
    const std::size_t home = self != kNotAWorker ? self : 0;
    for (std::size_t k = 0; k < queues_.size(); ++k) {
      const std::size_t q = (home + k) % queues_.size();
      Task task;
      {
        std::lock_guard<std::mutex> lock(queues_[q]->mutex);
        auto& deque = queues_[q]->tasks;
        // The owner takes its newest qualifying task, a thief (or an
        // external caller) the oldest.
        const auto inScope = [scope](const Task& t) {
          return scope == nullptr || nestedIn(t.batch, scope);
        };
        if (q == self) {
          const auto it = std::find_if(deque.rbegin(), deque.rend(), inScope);
          if (it == deque.rend()) continue;
          task = std::move(*it);
          deque.erase(std::next(it).base());
        } else {
          const auto it = std::find_if(deque.begin(), deque.end(), inScope);
          if (it == deque.end()) continue;
          task = std::move(*it);
          deque.erase(it);
        }
      }
      if (self != kNotAWorker) {
        queues_[self]->runs.fetch_add(1, std::memory_order_relaxed);
        if (q != self) {
          queues_[self]->steals.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        externalRuns_.fetch_add(1, std::memory_order_relaxed);
      }
      const Batch* const outer = tlsBatch_;
      tlsBatch_ = task.batch;
      task.run();
      tlsBatch_ = outer;
      return true;
    }
    return false;
  }

private:
  struct Task {
    std::function<void()> run;
    const Batch* batch = nullptr;
  };

  struct Queue {
    mutable std::mutex mutex;
    std::deque<Task> tasks;
    std::size_t highWater = 0; // guarded by mutex
    // Counters for the worker with this queue's index (not the queue the
    // task came from). Written by the owning worker, read by anyone.
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> idleNs{0};
  };

  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  // Idle backoff: a few yield-scans after the queues drain, then CV waits
  // whose timeout doubles while no work shows up. The submit/sleepMutex
  // pairing guarantees wakeups, so the timeout is purely a backstop — the
  // growth just stops idle workers re-scanning every queue 100x a second.
  static constexpr unsigned kIdleSpinScans = 4;
  static constexpr std::chrono::microseconds kIdlePauseMin{500};
  static constexpr std::chrono::microseconds kIdlePauseMax{50000};

  // Worker identity via thread-locals, not a scan of threads_ — workers
  // start (and call currentWorker) while the constructor is still
  // emplacing into that vector.
  inline static thread_local const ThreadPool* tlsPool_ = nullptr;
  inline static thread_local std::size_t tlsWorker_ = 0;
  inline static thread_local const Batch* tlsBatch_ = nullptr;

  /// Is `batch` `scope` or nested inside it? The chain is safe to walk
  /// while the task carrying `batch` is still queued: every batch on it
  /// has a task blocked on its join, so none has been released.
  static bool nestedIn(const Batch* batch, const Batch* scope) {
    for (; batch != nullptr; batch = batch->parent) {
      if (batch == scope) return true;
    }
    return false;
  }

  /// Index of the pool worker running the calling thread, or kNotAWorker.
  std::size_t currentWorker() const {
    return tlsPool_ == this ? tlsWorker_ : kNotAWorker;
  }

  /// Any deque non-empty? (Scans under the queue locks; called with
  /// sleepMutex_ held — submit only takes sleepMutex_ after releasing the
  /// queue lock, so the order sleep → queue never deadlocks.)
  bool anyQueued() {
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> lock(q->mutex);
      if (!q->tasks.empty()) return true;
    }
    return false;
  }

  void workerLoop(std::size_t worker) {
    tlsPool_ = this;
    tlsWorker_ = worker;
    obs::setThreadName("pool-" + std::to_string(worker));
    std::chrono::microseconds pause = kIdlePauseMin;
    unsigned idleScans = 0;
    while (true) {
      if (tryRunOne()) {
        pause = kIdlePauseMin;
        idleScans = 0;
        continue;
      }
      if (++idleScans <= kIdleSpinScans) {
        std::this_thread::yield();
        continue;
      }
      const auto idleStart = std::chrono::steady_clock::now();
      {
        std::unique_lock<std::mutex> lock(sleepMutex_);
        if (stop_) return;
        // Re-check for work under the sleep lock: a submit between our
        // empty scan and this point either pushed before the re-check (we
        // see it) or is now blocked on sleepMutex_ and will notify once we
        // wait. The timeout is only a belt-and-braces backstop, so it can
        // back off exponentially while the pool stays idle.
        if (!anyQueued()) {
          wake_.wait_for(lock, pause);
          pause = std::min(pause * 2, kIdlePauseMax);
        }
        if (stop_) return;
      }
      queues_[worker]->idleNs.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - idleStart)
                  .count()),
          std::memory_order_relaxed);
    }
  }

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> nextQueue_{0};
  std::atomic<std::uint64_t> externalRuns_{0};
  std::mutex sleepMutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

} // namespace lis::support
