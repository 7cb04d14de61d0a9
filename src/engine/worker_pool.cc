#include "engine/worker_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace albic::engine {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins until \p done() holds or \p *budget_ns elapsed; true when the
/// condition was met while spinning. Adapts the caller's budget: a spin
/// that paid off doubles it (up to WorkerPool::kSpinNs), a fruitless one
/// halves it (down to WorkerPool::kMinSpinNs). When waits outlast the
/// spin — an idle engine, or an oversubscribed machine where the thread
/// being waited for is descheduled — the spinner soon parks almost at
/// once instead of burning a core others need.
template <typename Pred>
bool SpinUntil(Pred done, int64_t* budget_ns) {
  const int64_t deadline = SteadyNowNs() + *budget_ns;
  for (int i = 1;; ++i) {
    if (done()) {
      *budget_ns = std::min(WorkerPool::kSpinNs, 2 * *budget_ns);
      return true;
    }
    CpuRelax();
    if ((i & 63) == 0 && SteadyNowNs() > deadline) {
      if (done()) return true;
      *budget_ns = std::max(WorkerPool::kMinSpinNs, *budget_ns / 2);
      return false;
    }
  }
}

}  // namespace

WorkerPool::WorkerPool(int num_workers)
    : num_workers_(num_workers < 1 ? 1 : num_workers) {
  threads_.reserve(static_cast<size_t>(num_workers_ - 1));
  for (int w = 1; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { ThreadLoop(w); });
  }
}

WorkerPool::~WorkerPool() {
  Join();
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(mu_);
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::ThreadLoop(int worker_index) {
  int64_t seen_generation = 0;
  int64_t spin_budget_ns = kSpinNs;
  const auto has_work = [&] {
    return stop_.load() || generation_.load() != seen_generation;
  };
  for (;;) {
    if (!SpinUntil(has_work, &spin_budget_ns)) {
      std::unique_lock<std::mutex> lock(mu_);
      parked_threads_.fetch_add(1);
      start_cv_.wait(lock, has_work);
      parked_threads_.fetch_sub(1);
    }
    if (stop_.load()) return;
    seen_generation = generation_.load();
    (*job_)(worker_index);
    if (outstanding_.fetch_sub(1) == 1 && join_parked_.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_one();
    }
  }
}

void WorkerPool::Start(const std::function<void(int)>& fn) {
  assert(!outstanding_round_);
  ++runs_;
  if (num_workers_ == 1) return;
  outstanding_round_ = true;
  job_ = &fn;
  outstanding_.store(num_workers_ - 1);
  generation_.fetch_add(1);
  if (parked_threads_.load() > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    start_cv_.notify_all();
  }
}

void WorkerPool::Join() {
  if (!outstanding_round_) return;
  outstanding_round_ = false;
  const auto done = [&] { return outstanding_.load() == 0; };
  if (!SpinUntil(done, &join_spin_budget_ns_)) {
    std::unique_lock<std::mutex> lock(mu_);
    join_parked_.store(true);
    done_cv_.wait(lock, done);
    join_parked_.store(false);
  }
  job_ = nullptr;
}

void WorkerPool::Run(const std::function<void(int)>& fn) {
  Start(fn);
  fn(0);
  Join();
}

}  // namespace albic::engine
