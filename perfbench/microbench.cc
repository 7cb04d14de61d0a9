// Layer microbenchmarks: each times one public function of one layer in a
// tight loop over the workload's own key distribution and reports the
// median of several timed passes, in ns (or us) per call.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map64.h"
#include "engine/assignment.h"
#include "engine/local_engine.h"
#include "engine/state_arena.h"
#include "ops/topk.h"
#include "engine/operator.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kPasses = 7;

/// Sink for operators that might emit while being measured.
class DiscardEmitter final : public albic::engine::Emitter {
 public:
  void Emit(const albic::engine::Tuple&) override {}
};

/// Median over kPasses of ns per operation of fn(), which does \p ops ops.
template <class Fn>
double NsPerOp(size_t ops, Fn fn) {
  std::vector<double> samples;
  for (int pass = 0; pass < kPasses; ++pass) {
    const int64_t t0 = NowNs();
    fn();
    samples.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(ops));
  }
  return Median(samples);
}

}  // namespace

MicroResults RunMicrobench(const std::vector<uint64_t>& keys, int groups,
                           size_t group_window_tuples) {
  MicroResults r;
  if (keys.empty()) return r;
  volatile uint64_t sink = 0;

  r.route_key_ns = NsPerOp(keys.size(), [&] {
    uint64_t acc = 0;
    for (uint64_t k : keys) acc += static_cast<uint64_t>(albic::engine::LocalEngine::RouteKey(k, groups));
    sink = sink + acc;
  });

  // Upsert into a fresh map (growth included, as a window's first minute
  // sees it), then find over the filled map.
  albic::FlatMap64<int64_t> filled;
  r.flatmap_upsert_ns = NsPerOp(keys.size(), [&] {
    albic::FlatMap64<int64_t> m;
    for (uint64_t k : keys) m[k] += 1;
    sink = sink + m.size();
    filled = std::move(m);
  });
  r.flatmap_find_ns = NsPerOp(keys.size(), [&] {
    int64_t acc = 0;
    for (uint64_t k : keys) {
      const int64_t* v = filled.find(k);
      if (v != nullptr) acc += *v;
    }
    sink = sink + static_cast<uint64_t>(acc);
  });

  {
    constexpr int kNodes = 6;
    const int num_groups = 3 * groups;
    albic::engine::Assignment a(num_groups);
    for (int g = 0; g < num_groups; ++g) a.set_node(g, g % kNodes);
    albic::engine::LeaseTable leases(a);
    constexpr size_t kFlips = 1 << 20;
    r.lease_flip_ns = NsPerOp(kFlips, [&] {
      for (size_t i = 0; i < kFlips; ++i) {
        const auto g = static_cast<albic::engine::KeyGroupId>(i % static_cast<size_t>(num_groups));
        leases.Flip(g, (leases.owner_of(g) + 1) % kNodes);
      }
      sink = sink + static_cast<uint64_t>(leases.flips());
    });
  }

  if (group_window_tuples > 0) {
    // One warmed group holding what one top-k group counts in a window of
    // this workload, with a dirty-key tracker as delta checkpoints attach it.
    albic::ops::WindowedTopKOperator op(1, 5);
    albic::engine::StateChangeTracker tracker;
    op.AttachChangeTracker(0, &tracker);
    albic::engine::TupleBatch batch;
    for (size_t i = 0; i < keys.size() && i < group_window_tuples; ++i) {
      albic::engine::Tuple t;
      t.key = keys[i];
      batch.push_back(t);
    }
    DiscardEmitter none;
    op.ProcessBatch(batch, 0, &none);
    r.topk_serialize_base_us = 1e-3 * NsPerOp(1, [&] {
      sink = sink + op.SerializeGroupState(0).size();
    });
    // A delta covers what changed since the last checkpoint: here one
    // 4096-tuple chunk of the same keys.
    albic::engine::TupleBatch chunk;
    for (size_t i = 0; i < batch.size() && i < 4096; ++i) chunk.push_back(batch[i]);
    std::vector<double> delta_us;
    for (int pass = 0; pass < kPasses; ++pass) {
      tracker.Clear();
      op.ProcessBatch(chunk, 0, &none);
      const int64_t t0 = NowNs();
      sink = sink + op.SerializeGroupDelta(0).size();
      delta_us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
    }
    r.topk_serialize_delta_us = Median(delta_us);
  }
  return r;
}

}  // namespace perfbench
