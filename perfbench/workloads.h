#pragma once

// The benchmark's three workloads, their input generators and oracles, and
// the layer microbenchmarks. Each workload runs from one process: it
// generates its input from the seed before anything is timed, measures for
// the requested number of seconds, checks its outputs against a
// single-node, single-worker, controller-free run of the same input, and
// returns its metrics.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/tuple.h"
#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;  ///< Reported in the result line.
  std::vector<Metric> report;   ///< Printed for people only.
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    report.push_back({name, value, unit});
  }
};

RunResult RunTopkSaturated(const RunConfig& cfg);
RunResult RunTopkLive(const RunConfig& cfg);
RunResult RunAirlineScaleIn(const RunConfig& cfg);

/// One pre-generated Wikipedia edit, packed to 16 bytes (the topk_live
/// input is tens of millions of tuples).
struct PackedEdit {
  uint32_t key = 0;     ///< Article id (1-based).
  uint32_t aux = 0;     ///< Editor id.
  float num = 0.0f;     ///< Revision size, KB.
  uint32_t ts_off = 0;  ///< Event time minus the stream's first, in us.
};

/// Which articles are hot when: every \p every_periods 1-minute periods
/// the article ids are remapped by the bijection
/// id -> (id - 1) * 7919 + offset (mod articles) + 1, with a fresh offset
/// per epoch. every_periods == 0 leaves ids alone.
struct HotSetSchedule {
  int every_periods = 0;
  uint64_t articles = 1;
  std::vector<uint64_t> offsets;  ///< Per epoch.

  /// Schedule number \p index: the same for every seed, so the hot set moves
  /// the same way in every run and the seed varies only the sampled stream.
  static HotSetSchedule Make(int index, int every_periods, uint64_t articles,
                             int64_t span_us);
  uint32_t Map(uint32_t key, uint32_t ts_off) const {
    if (every_periods == 0) return key;
    const uint64_t epoch = ts_off / (static_cast<uint64_t>(every_periods) * 60000000ULL);
    return static_cast<uint32_t>(((key - 1) * 7919ULL + offsets[epoch]) % articles + 1);
  }
};

/// Wikipedia edit stream of Real Job 1 (Zipf 0.8 article popularity). The
/// edits are shared, so switching a copy to another hot-set schedule is
/// cheap.
struct WikiInput {
  std::shared_ptr<const std::vector<PackedEdit>> edits;
  int64_t ts0 = 0;
  HotSetSchedule hot;

  size_t size() const { return edits == nullptr ? 0 : edits->size(); }
  albic::engine::Tuple At(size_t i) const {
    const PackedEdit& e = (*edits)[i];
    albic::engine::Tuple t;
    t.key = hot.Map(e.key, e.ts_off);
    t.aux = e.aux;
    t.num = e.num;
    t.ts = ts0 + e.ts_off;
    return t;
  }
  void Decode(size_t begin, size_t n, albic::engine::Tuple* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = At(begin + i);
  }
  /// The same edits under hot-set schedule \p index.
  WikiInput WithSchedule(int index, int every_periods) const;
};

/// Generates \p tuples edits over \p articles articles, under hot-set
/// schedule 0 when \p remap_every_periods > 0. Returns an empty input if
/// the event times would not fit the packed form.
WikiInput MakeWikiInput(uint64_t seed, int articles, double events_per_second,
                        size_t tuples, int remap_every_periods = 0);

/// Every closed window's global top-k output of Real Job 1 over \p input,
/// run on \p nodes nodes with one worker, no controller, no checkpointing.
std::vector<WindowResult> TopkWindows(const WikiInput& input, int nodes);

/// Per-layer microbenchmarks at a workload's key distribution.
struct MicroResults {
  double route_key_ns = 0.0;
  double flatmap_upsert_ns = 0.0;
  double flatmap_find_ns = 0.0;
  double lease_flip_ns = 0.0;
  double topk_serialize_base_us = 0.0;   ///< 0 unless requested.
  double topk_serialize_delta_us = 0.0;  ///< 0 unless requested.
};
/// \p group_window_tuples > 0 also times top-k serialization of a group
/// warmed with that many of the keys (what one group counts per window).
MicroResults RunMicrobench(const std::vector<uint64_t>& keys, int groups,
                           size_t group_window_tuples);

}  // namespace perfbench
