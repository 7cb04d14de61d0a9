// Tests of the benchmark's own helpers. Run: .bench_build/perfbench/perfbench_selftest
// (perfbench/run.py runs it after every build and refuses to benchmark if
// it fails). Exits non-zero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void TestPercentileWithSupport() {
  using perfbench::PercentileWithSupport;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // 1000 samples: p99 is rank 990, with exactly 10 samples beyond it.
  perfbench::Percentile p = PercentileWithSupport(v, 99.0);
  Check(Near(p.value, 990.0) && p.beyond == 10 && p.supported, "p99 at 1000 samples");
  Check(Near(p.rank_pct, 99.0), "p99 rank at 1000 samples");
  // 500 samples: p99 would leave 5 beyond; lowered to rank 490 (p98).
  v.resize(500);
  p = PercentileWithSupport(v, 99.0);
  Check(Near(p.value, 490.0) && p.beyond == 10 && Near(p.rank_pct, 98.0),
        "p99 lowered to p98 at 500 samples");
  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 12, 11, 13, 15, 14};
  p = PercentileWithSupport(shuffled, 50.0);
  Check(Near(p.value, 5.0) && p.beyond == 10, "p50 lowered on 15 samples");
  // Too few samples: no rank qualifies.
  p = PercentileWithSupport({1, 2, 3}, 99.0);
  Check(!p.supported, "3 samples cannot support a tail percentile");
}

void TestOpenLoopAccounting() {
  // Simulated clock: chunks due every 10 units; every call takes 2 units
  // except chunk 2, which stalls for 35.
  int64_t clock = 0;
  const std::vector<int64_t> service = {2, 2, 35, 2, 2, 2, 2, 2};
  const perfbench::OpenLoopSchedule schedule{100, 10.0};
  std::vector<size_t> prepared;
  const auto timings = perfbench::RunOpenLoop(
      schedule, service.size(), [&] { return clock; },
      [&](int64_t due) { clock = std::max(clock, due); },
      [&](size_t k) { prepared.push_back(k); },
      [&](size_t k) { clock += service[k]; }, [](size_t, const perfbench::ChunkTiming&) {});
  Check(prepared.size() == service.size(), "every chunk prepared");
  // Chunk 2 is due at 120 and returns at 155.
  Check(timings[2].end_ns - timings[2].due_ns == 35, "stalled call's own latency");
  // Chunk 3 was due at 130 but could only start at 155: it waited 25 and
  // served 2, so its latency is 27, not 2.
  Check(timings[3].start_ns - timings[3].due_ns == 25, "lag after the stall");
  Check(timings[3].end_ns - timings[3].due_ns == 27, "stall shows on the next chunk");
  // Chunk 4 (due 140) starts at 157 -> latency 19; chunk 5 (due 150) at
  // 159 -> 11; chunk 6 (due 160) at 161 -> 3; chunk 7 (due 170) is on
  // time again -> 2.
  Check(timings[4].end_ns - timings[4].due_ns == 19, "stall shows two chunks later");
  Check(timings[5].end_ns - timings[5].due_ns == 11, "stall shows three chunks later");
  Check(timings[6].end_ns - timings[6].due_ns == 3, "stall shows four chunks later");
  Check(timings[7].end_ns - timings[7].due_ns == 2 && timings[7].start_ns == timings[7].due_ns,
        "schedule recovers");
  Check(timings[0].end_ns - timings[0].due_ns == 2, "unstalled latency is the service");
}

void TestCollocationPct() {
  using perfbench::GroupEdge;
  // Period 0: edges 0->2 (30 tuples) and 1->3 (10); groups 0,2 share a node.
  // Period 1: group 3 moved next to group 1, so everything is local.
  const std::vector<std::vector<GroupEdge>> traffic = {
      {{0, 2, 30}, {1, 3, 10}}, {{0, 2, 30}, {1, 3, 10}}, {}};
  const std::vector<std::vector<int>> placement = {
      {0, 1, 0, 2}, {0, 1, 0, 1}, {0, 0, 0, 0}};
  // (75% + 100%) / 2; the empty period does not count.
  Check(Near(perfbench::CollocationPct(traffic, placement), 87.5), "collocation_pct");
  Check(Near(perfbench::CollocationPct({}, {}), 0.0), "collocation_pct without traffic");
}

void TestRoundHistories() {
  using perfbench::RoundView;
  std::vector<RoundView> rounds(6);
  rounds[0].load_distance = 10;
  rounds[1].load_distance = 4;
  rounds[2].load_distance = 1;
  rounds[3].load_distance = 5;
  rounds[0].moves = {{7, 0, 1}, {8, 2, 3}};
  rounds[1].moves = {{7, 1, 0}};             // back to node 0 within 1 round
  rounds[2].moves = {{8, 3, 4}};             // onward, not back
  rounds[3].moves = {{9, 5, 2}};             // group 9 never left node 2
  rounds[5].moves = {{8, 4, 2}, {7, 0, 5}};  // 8 left node 2 four rounds ago
  Check(perfbench::ReturnMoves(rounds) == 1, "return_moves within 3 rounds");
  Check(perfbench::ReturnMoves(rounds, 5) == 2, "return_moves within 5 rounds");
  Check(Near(perfbench::LoadDistanceMean(rounds), 20.0 / 6.0), "load_distance_mean");
}

void TestOracleCatchesPerturbedWindow() {
  // Real Job 1 on 6 nodes must equal the 1-node oracle window by window,
  // and one perturbed window must show as exactly one mismatch.
  const perfbench::WikiInput input = perfbench::MakeWikiInput(3, 2000, 2000.0, 400000);
  const auto oracle = perfbench::TopkWindows(input, 1);
  auto got = perfbench::TopkWindows(input, 6);
  Check(oracle.size() >= 3, "oracle closes windows");
  Check(perfbench::CountWindowMismatches(got, oracle) == 0, "6 nodes agree with the oracle");
  if (got.size() < 3 || got[1].empty()) return;
  got[1][0].second += 1;
  Check(perfbench::CountWindowMismatches(got, oracle) == 1, "one perturbed window caught");
  got.pop_back();
  Check(perfbench::CountWindowMismatches(got, oracle) == 2, "missing window caught");
}

}  // namespace

int main() {
  TestPercentileWithSupport();
  TestOpenLoopAccounting();
  TestCollocationPct();
  TestRoundHistories();
  TestOracleCatchesPerturbedWindow();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
