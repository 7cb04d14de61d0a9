#pragma once

// Pure helpers of the benchmark: order statistics, open-loop due-time
// accounting, and the metrics computed from placement and round histories.
// They hold no engine state, so selftest.cc checks them on hand-built inputs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of \p v (mean of the middle two for even sizes); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A tail percentile together with the support it rests on.
struct Percentile {
  double value = 0.0;
  double rank_pct = 0.0;  ///< Percentile actually reported (<= requested).
  size_t beyond = 0;      ///< Samples strictly above the reported rank.
  bool supported = false; ///< beyond >= the requested minimum.
};

/// Nearest-rank percentile \p pct of \p samples, lowered to the highest rank
/// that still leaves \p min_beyond samples above it. p99 therefore needs
/// >= 1000 samples; with fewer it reports e.g. p98 at 500 samples. With
/// \p min_beyond or fewer samples no rank qualifies: the result is the
/// smallest sample and `supported` is false.
inline Percentile PercentileWithSupport(std::vector<double> samples,
                                        double pct, size_t min_beyond = 10) {
  Percentile out;
  const size_t n = samples.size();
  if (n == 0) return out;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n > min_beyond) {
    rank = std::min(rank, n - min_beyond);
  } else {
    rank = 1;
  }
  out.value = samples[rank - 1];
  out.rank_pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  out.beyond = n - rank;
  out.supported = out.beyond >= min_beyond;
  return out;
}

/// Constant-rate schedule of an open-loop generator: chunk k is due at
/// t0 + k * interval, whatever happened to the chunks before it.
struct OpenLoopSchedule {
  int64_t t0_ns = 0;
  double interval_ns = 0.0;
  int64_t Due(size_t k) const {
    return t0_ns + static_cast<int64_t>(std::llround(
                       static_cast<double>(k) * interval_ns));
  }
};

/// One chunk's timing: when it was due, when the call carrying it started
/// and when that call returned.
struct ChunkTiming {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Latency as the client sees it: from the due time, so a stalled call
  /// shows on every chunk queued behind it.
  double latency_ms() const { return 1e-6 * static_cast<double>(end_ns - due_ns); }
  /// How late the generator offered the chunk.
  double lag_ms() const { return 1e-6 * static_cast<double>(start_ns - due_ns); }
};

/// Drives \p chunks chunks on \p schedule. For each chunk k: prepare(k),
/// wait_until(due), call(k) timed with now(), then after(k, timing); only
/// the call is inside the timed interval. The clock functions are
/// parameters so the accounting is testable with a simulated clock.
template <class Now, class WaitUntil, class Prepare, class Call, class After>
std::vector<ChunkTiming> RunOpenLoop(const OpenLoopSchedule& schedule,
                                     size_t chunks, Now now,
                                     WaitUntil wait_until, Prepare prepare,
                                     Call call, After after) {
  std::vector<ChunkTiming> timings;
  timings.reserve(chunks);
  for (size_t k = 0; k < chunks; ++k) {
    prepare(k);
    ChunkTiming t;
    t.due_ns = schedule.Due(k);
    wait_until(t.due_ns);
    t.start_ns = now();
    call(k);
    t.end_ns = now();
    after(k, t);
    timings.push_back(t);
  }
  return timings;
}

/// Traffic on one inter-operator edge between two key groups in a period.
struct GroupEdge {
  int src = 0;
  int dst = 0;
  double tuples = 0.0;
};

/// Share (%) of inter-operator tuples whose sender and receiver groups sat
/// on the same node, per period under that period's placement
/// (placement[p][group] = node), averaged over periods with traffic.
inline double CollocationPct(
    const std::vector<std::vector<GroupEdge>>& traffic,
    const std::vector<std::vector<int>>& placement) {
  std::vector<double> per_period;
  const size_t periods = std::min(traffic.size(), placement.size());
  for (size_t p = 0; p < periods; ++p) {
    double total = 0.0, local = 0.0;
    for (const GroupEdge& e : traffic[p]) {
      total += e.tuples;
      if (placement[p][static_cast<size_t>(e.src)] ==
          placement[p][static_cast<size_t>(e.dst)]) {
        local += e.tuples;
      }
    }
    if (total > 0.0) per_period.push_back(100.0 * local / total);
  }
  return Mean(per_period);
}

/// One applied migration of a controller round.
struct Move {
  int group = 0;
  int from = 0;
  int to = 0;
};

/// The part of a controller round the history metrics read.
struct RoundView {
  double load_distance = 0.0;
  std::vector<Move> moves;
};

inline double LoadDistanceMean(const std::vector<RoundView>& rounds) {
  std::vector<double> d;
  d.reserve(rounds.size());
  for (const RoundView& r : rounds) d.push_back(r.load_distance);
  return Mean(d);
}

/// Moves that send a group back to a node it left within the previous
/// \p window rounds.
inline int ReturnMoves(const std::vector<RoundView>& rounds, int window = 3) {
  int returns = 0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    for (const Move& m : rounds[r].moves) {
      bool found = false;
      const size_t first = r >= static_cast<size_t>(window)
                               ? r - static_cast<size_t>(window)
                               : 0;
      for (size_t q = first; q < r && !found; ++q) {
        for (const Move& prev : rounds[q].moves) {
          if (prev.group == m.group && prev.from == m.to) {
            found = true;
            break;
          }
        }
      }
      if (found) ++returns;
    }
  }
  return returns;
}

/// One closed window's global result: (article id, weight) sorted by id.
using WindowResult = std::vector<std::pair<uint64_t, int64_t>>;

/// Windows of \p got that differ from the oracle's \p want, plus windows
/// present on one side only.
inline int64_t CountWindowMismatches(const std::vector<WindowResult>& got,
                                     const std::vector<WindowResult>& want) {
  const size_t common = std::min(got.size(), want.size());
  int64_t bad = static_cast<int64_t>(std::max(got.size(), want.size()) -
                                     common);
  for (size_t w = 0; w < common; ++w) {
    if (got[w] != want[w]) ++bad;
  }
  return bad;
}

}  // namespace perfbench
