#pragma once

/// \file
/// \brief The persistent worker pool draining mailbox waves in the batched
/// runtime's multi-worker mode: fork/join rounds that can be left running
/// (Start) while the calling thread does other work, then joined (Join).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace albic::engine {

/// \brief A minimal persistent pool for the batched runtime's drain waves.
///
/// Start(fn) invokes fn(w) once on every pool thread w in [1, num_workers)
/// and returns at once; Join() blocks until those invocations finished.
/// Run(fn) is Start, then fn(0) on the calling thread, then Join — the
/// synchronous fork/join round. A 1-worker pool spawns no threads at all,
/// so Run degenerates to a plain call and Start/Join to no-ops.
///
/// Wake-up: an idle pool thread, and a joining caller, spin on an atomic
/// before parking on a condition variable. Waves follow each other
/// closely when the engine is saturated, so the spin catches the next wave
/// (or the last worker finishing) without a futex wake. The spin is
/// bounded and adaptive: each waiter's budget doubles after a spin that
/// paid off and halves after one that did not, between kMinSpinNs and
/// kSpinNs, so an idle engine or an oversubscribed machine parks almost
/// at once instead of burning cores others need.
class WorkerPool {
 public:
  /// Upper bound of a waiter's spin before it parks. The batched runtime
  /// launches a wave per staging threshold; on the saturated wiki top-k
  /// job (8192-tuple waves, 4 workers, 4-core x86 VM) a pool thread's gap
  /// between finishing one wave and the next launch measured p50 27 us,
  /// p90 112 us and p99 516 us (window fires and period harvests make the
  /// tail). 250 us covers the common gap without a futex wake-up; the
  /// tail parks.
  static constexpr int64_t kSpinNs = 250'000;
  /// Lower bound of the adaptive spin: short enough to cost nothing next
  /// to a wake-up, long enough to catch a wave already being launched.
  static constexpr int64_t kMinSpinNs = 4'000;

  explicit WorkerPool(int num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// \brief Launches fn(w) on every pool thread w >= 1 and returns without
  /// waiting. \p fn must stay alive until Join returns. At most one round
  /// is outstanding: a Start must be followed by Join before the next
  /// Start or Run. Calling thread only.
  void Start(const std::function<void(int)>& fn);

  /// \brief Waits until the round launched by Start finished; returns at
  /// once when none is outstanding (so it may be called repeatedly).
  /// Calling thread only. Supplies the happens-before edge from every
  /// pool thread's work in the round to the caller.
  void Join();

  /// \brief Runs fn(w) for each worker index, worker 0 on the calling
  /// thread; blocks until all complete. Not reentrant.
  void Run(const std::function<void(int)>& fn);

  /// \brief Rounds executed so far (Start or Run; one per drain wave in
  /// the batched runtime) — published as a worker-pool utilization signal.
  int64_t runs() const { return runs_; }

 private:
  void ThreadLoop(int worker_index);

  const int num_workers_;
  int64_t runs_ = 0;        ///< Calling thread only.
  bool outstanding_round_ = false;  ///< Started, not yet joined.
  std::vector<std::thread> threads_;

  /// The current round's job; written before generation_ is bumped and
  /// read by pool threads after observing the bump.
  const std::function<void(int)>* job_ = nullptr;
  std::atomic<int64_t> generation_{0};
  std::atomic<int> outstanding_{0};  ///< Pool threads still in the round.
  std::atomic<bool> stop_{false};

  /// Parking. A parker registers itself under mu_ before its final check
  /// of the condition; the waker changes the condition first and only then
  /// reads the registration (both sequentially consistent), so one of the
  /// two always sees the other and no wake is lost.
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::atomic<int> parked_threads_{0};
  std::atomic<bool> join_parked_{false};
  int64_t join_spin_budget_ns_ = kSpinNs;  ///< Calling thread only.
};

}  // namespace albic::engine
