// The worker pool behind the batched runtime's multi-worker waves: Start
// launches a round on the pool threads and returns, Join waits for it, Run
// is the synchronous round with the caller as worker 0. Idle threads and
// Join spin for WorkerPool::kSpinNs and then park, so these tests cover
// back-to-back rounds (spin path), rounds separated by sleeps (park/wake
// path), mixing Run with Start/Join, and destruction while parked.
// Per-worker plain writes, read after Join, double as a ThreadSanitizer
// check of Join's happens-before edge.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "engine/worker_pool.h"

namespace albic::engine {
namespace {

/// Sleeps long enough for every idle pool thread to give up spinning.
void SleepPastSpin() {
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(4 * WorkerPool::kSpinNs));
}

/// Records, per worker index, how often and in which round it ran.
struct RoundLog {
  explicit RoundLog(int workers)
      : calls(static_cast<size_t>(workers), 0),
        last_round(static_cast<size_t>(workers), -1) {}
  std::vector<int> calls;
  std::vector<int> last_round;
};

TEST(WorkerPoolTest, ManyStartJoinGenerations) {
  constexpr int kWorkers = 4;
  constexpr int kRounds = 2000;
  WorkerPool pool(kWorkers);
  RoundLog log(kWorkers);
  int round = 0;
  const std::function<void(int)> job = [&](int w) {
    ASSERT_GE(w, 1);  // Start never runs worker 0
    ++log.calls[static_cast<size_t>(w)];
    log.last_round[static_cast<size_t>(w)] = round;
  };
  for (round = 0; round < kRounds; ++round) {
    pool.Start(job);
    pool.Join();
    for (int w = 1; w < kWorkers; ++w) {
      ASSERT_EQ(log.last_round[static_cast<size_t>(w)], round) << "worker " << w;
    }
  }
  EXPECT_EQ(log.calls[0], 0);
  for (int w = 1; w < kWorkers; ++w) {
    EXPECT_EQ(log.calls[static_cast<size_t>(w)], kRounds);
  }
  EXPECT_EQ(pool.runs(), kRounds);
}

TEST(WorkerPoolTest, CallerWorksWhileRoundRuns) {
  // The pipelined pattern: launch, do unrelated work, join later.
  constexpr int kWorkers = 3;
  WorkerPool pool(kWorkers);
  std::vector<int64_t> sums(kWorkers, 0);
  const std::function<void(int)> job = [&](int w) {
    for (int i = 0; i < 1000; ++i) sums[static_cast<size_t>(w)] += i;
  };
  int64_t caller = 0;
  for (int round = 0; round < 200; ++round) {
    pool.Start(job);
    for (int i = 0; i < 1000; ++i) caller += i;
    pool.Join();
  }
  EXPECT_EQ(sums[0], 0);
  EXPECT_EQ(sums[1], 200 * 499500);
  EXPECT_EQ(sums[2], 200 * 499500);
  EXPECT_EQ(caller, 200 * 499500);
}

TEST(WorkerPoolTest, SleepBetweenRoundsWakesParkedThreads) {
  constexpr int kWorkers = 4;
  WorkerPool pool(kWorkers);
  RoundLog log(kWorkers);
  int round = 0;
  const std::function<void(int)> job = [&](int w) {
    ++log.calls[static_cast<size_t>(w)];
    log.last_round[static_cast<size_t>(w)] = round;
  };
  for (round = 0; round < 8; ++round) {
    SleepPastSpin();  // every pool thread parks before the round starts
    pool.Start(job);
    pool.Join();
    for (int w = 1; w < kWorkers; ++w) {
      ASSERT_EQ(log.last_round[static_cast<size_t>(w)], round);
    }
  }
  // Join parks too when the round outlasts the spin.
  const std::function<void(int)> slow = [&](int w) {
    SleepPastSpin();
    ++log.calls[static_cast<size_t>(w)];
  };
  pool.Start(slow);
  pool.Join();
  for (int w = 1; w < kWorkers; ++w) {
    EXPECT_EQ(log.calls[static_cast<size_t>(w)], 9);
  }
}

TEST(WorkerPoolTest, RunMixesWithStartJoin) {
  constexpr int kWorkers = 3;
  WorkerPool pool(kWorkers);
  RoundLog log(kWorkers);
  const std::function<void(int)> job = [&](int w) {
    ++log.calls[static_cast<size_t>(w)];
  };
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 0) {
      pool.Run(job);  // worker 0 on this thread, the rest on the pool
    } else {
      pool.Start(job);
      pool.Join();
      pool.Join();  // joining twice is a no-op
    }
    if (i % 50 == 0) SleepPastSpin();
  }
  EXPECT_EQ(log.calls[0], 100);
  EXPECT_EQ(log.calls[1], 300);
  EXPECT_EQ(log.calls[2], 300);
  EXPECT_EQ(pool.runs(), 300);
}

TEST(WorkerPoolTest, SingleWorkerPoolRunsInline) {
  WorkerPool pool(1);
  int calls = 0;
  const std::function<void(int)> job = [&](int w) {
    EXPECT_EQ(w, 0);
    ++calls;
  };
  pool.Start(job);  // no pool threads: nothing runs
  pool.Join();
  EXPECT_EQ(calls, 0);
  pool.Run(job);
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPoolTest, DestroysWhileThreadsParked) {
  for (int i = 0; i < 3; ++i) {
    WorkerPool pool(4);
    int calls = 0;
    const std::function<void(int)> job = [&](int w) {
      if (w == 1) ++calls;
    };
    pool.Run(job);
    SleepPastSpin();  // every thread parked; the destructor must wake them
    EXPECT_EQ(calls, 1);
  }
  {
    WorkerPool never_used(3);  // destroyed before any round
  }
  {
    // Destroyed with a round launched and not joined: the destructor
    // joins it before the job goes out of scope.
    int calls[3] = {0, 0, 0};
    const std::function<void(int)> job = [&](int w) {
      SleepPastSpin();
      ++calls[w];
    };
    {
      WorkerPool pool(3);
      pool.Start(job);
    }
    EXPECT_EQ(calls[1], 1);
    EXPECT_EQ(calls[2], 1);
  }
}

}  // namespace
}  // namespace albic::engine
