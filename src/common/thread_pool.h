// Fixed-size thread pool for the repo's fan-outs.
//
// Deliberately work-stealing-free: tasks are pulled from one shared FIFO
// queue, which is all the fan-out patterns here need and keeps the
// scheduling order easy to reason about. The pool steps fleet regions in
// parallel between control barriers (fleet/fleet_controller.h) and runs
// independent campaign cells side by side (exp/runner.h).
//
// Thread-safety: Submit and ParallelFor may be called from any thread that
// is NOT a pool worker (a pool task that blocks on ParallelFor of the same
// pool can deadlock when all workers are busy). The destructor drains every
// queued task before joining.
//
// Determinism: the pool itself schedules nondeterministically; determinism
// is the *caller's* contract. ParallelFor hands each task a stable `slot`
// index in [0, slots) such that two tasks with the same slot never run
// concurrently — callers keep per-slot scratch state (a campaign slot's
// harness) and fold results by item index, which makes outputs independent
// of thread count and scheduling (see docs/ARCHITECTURE.md, "Threading and
// determinism").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace clover {

class ThreadPool {
 public:
  // `num_threads` <= 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task. The future reports completion and rethrows any
  // exception the task threw. Must not be called after shutdown began.
  std::future<void> Submit(std::function<void()> task);

  // Runs body(slot, index) for every index in [0, n), distributing indices
  // dynamically over min(n, num_threads()) runner tasks. `slot` identifies
  // the runner: two invocations with the same slot are always sequenced, so
  // per-slot state needs no locking. Blocks until all indices ran. If any
  // body invocation threw, rethrows the exception of the lowest throwing
  // index (deterministic regardless of thread count).
  void ParallelFor(std::size_t n,
                   const std::function<void(int slot, std::size_t index)>& body);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::packaged_task<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace clover
