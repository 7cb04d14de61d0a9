#pragma once

// Measurement hooks the traced run attaches from the benchmark side:
// benchmark spans (recorded into the engine's Tracer and folded into
// self-times), operator probes, and timing wrappers for the planner and
// the checkpoint store. None of them steers the system under test.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "balance/rebalancer.h"
#include "common/trace.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "engine/operator.h"
#include "harness.h"
#include "ops/topk.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans of the driving thread. Each span is recorded into the global
/// Tracer (without enabling the engine's own spans) and accumulated by
/// name, with its self time: its duration minus the spans nested in it.
class SpanLog {
 public:
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<double> durations_ms;
  };

  void Begin(const char* name) { stack_.push_back({name, NowNs(), 0}); }

  void End() {
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t dur = NowNs() - open.start_ns;
    albic::TraceSpan span;
    span.name = open.name;
    span.cat = "bench";
    span.start_ns = open.start_ns;
    span.dur_ns = dur;
    albic::Tracer::Global().Record(span);
    Totals& t = totals_[open.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - open.child_ns;
    t.durations_ms.push_back(1e-6 * static_cast<double>(dur));
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  const std::map<std::string, Totals>& totals() const { return totals_; }

  const Totals& Get(const std::string& name) const {
    static const Totals kEmpty;
    auto it = totals_.find(name);
    return it == totals_.end() ? kEmpty : it->second;
  }

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
};

/// RAII span; a null log makes it free (the untraced run).
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->Begin(name);
  }
  ~Span() {
    if (log_ != nullptr) log_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

/// Per-operator counters a Probe fills, one padded slot per key group so
/// workers serving different groups never share a line.
class OpCounters {
 public:
  explicit OpCounters(int groups) : slots_(static_cast<size_t>(groups)) {}

  void AddBatch(int g, int64_t ns, int64_t in, int64_t out) {
    Slot& s = slots_[static_cast<size_t>(g)];
    s.batch_ns.fetch_add(ns, std::memory_order_relaxed);
    s.in.fetch_add(in, std::memory_order_relaxed);
    s.out.fetch_add(out, std::memory_order_relaxed);
  }
  void AddWindow(int g, int64_t ns, int64_t out) {
    Slot& s = slots_[static_cast<size_t>(g)];
    s.window_ns.fetch_add(ns, std::memory_order_relaxed);
    s.out.fetch_add(out, std::memory_order_relaxed);
    if (g == 0) window_fires_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t batch_ns() const { return Sum(&Slot::batch_ns); }
  int64_t window_ns() const { return Sum(&Slot::window_ns); }
  int64_t in() const { return Sum(&Slot::in); }
  int64_t out() const { return Sum(&Slot::out); }
  int64_t window_fires() const {
    return window_fires_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> batch_ns{0};
    std::atomic<int64_t> window_ns{0};
    std::atomic<int64_t> in{0};
    std::atomic<int64_t> out{0};
  };
  int64_t Sum(std::atomic<int64_t> Slot::*field) const {
    int64_t total = 0;
    for (const Slot& s : slots_) total += (s.*field).load(std::memory_order_relaxed);
    return total;
  }
  std::vector<Slot> slots_;
  std::atomic<int64_t> window_fires_{0};
};

/// Forwards emitted tuples and counts them.
class CountingEmitter final : public albic::engine::Emitter {
 public:
  explicit CountingEmitter(albic::engine::Emitter* inner) : inner_(inner) {}
  void Emit(const albic::engine::Tuple& t) override {
    ++n_;
    inner_->Emit(t);
  }
  int64_t n() const { return n_; }

 private:
  albic::engine::Emitter* inner_;
  int64_t n_ = 0;
};

/// Operator probe: derives from the operator it measures rather than
/// wrapping it. StreamOperator::AttachChangeTracker is non-virtual, so a
/// wrapping decorator would keep the engine's dirty-key trackers for
/// itself and silently turn delta checkpoints off; a derived probe shares
/// the operator's trackers, so it is safe on checkpointed engines too.
template <class Op>
class Probe final : public Op {
 public:
  template <class... Args>
  Probe(OpCounters* counters, Args&&... args)
      : Op(std::forward<Args>(args)...), counters_(counters) {}

  void ProcessBatch(const albic::engine::TupleBatch& batch, int group_index,
                    albic::engine::Emitter* out) override {
    CountingEmitter counting(out);
    const int64_t t0 = NowNs();
    Op::ProcessBatch(batch, group_index, &counting);
    counters_->AddBatch(group_index, NowNs() - t0,
                        static_cast<int64_t>(batch.size()), counting.n());
  }

  void OnWindow(int group_index, albic::engine::Emitter* out) override {
    CountingEmitter counting(out);
    const int64_t t0 = NowNs();
    Op::OnWindow(group_index, &counting);
    counters_->AddWindow(group_index, NowNs() - t0, counting.n());
  }

 private:
  OpCounters* counters_;
};

/// Global top-k that keeps every closed window's output for the oracle
/// comparison. Windows fire group 0 first, so group 0 opens a new record.
class CapturingTopK : public albic::ops::WindowedTopKOperator {
 public:
  using WindowedTopKOperator::WindowedTopKOperator;

  void OnWindow(int group_index, albic::engine::Emitter* out) override {
    if (group_index == 0) windows_.emplace_back();
    Capture capture(out, &windows_.back());
    WindowedTopKOperator::OnWindow(group_index, &capture);
  }

  /// Closed windows, each sorted by article id.
  std::vector<WindowResult> Windows() const {
    std::vector<WindowResult> out = windows_;
    for (WindowResult& w : out) std::sort(w.begin(), w.end());
    return out;
  }

 private:
  class Capture final : public albic::engine::Emitter {
   public:
    Capture(albic::engine::Emitter* inner, WindowResult* into)
        : inner_(inner), into_(into) {}
    void Emit(const albic::engine::Tuple& t) override {
      into_->emplace_back(t.aux, static_cast<int64_t>(t.num));
      inner_->Emit(t);
    }

   private:
    albic::engine::Emitter* inner_;
    WindowResult* into_;
  };
  std::vector<WindowResult> windows_;
};

/// What the planner saw and predicted in one controller round.
struct PlanRecord {
  int calls = 0;
  double plan_ms = 0.0;              ///< Summed over the round's calls.
  double realized_distance = 0.0;    ///< Load distance entering the round.
  double predicted_distance = 0.0;   ///< Of the round's last plan.
  double group_work_skew = 0.0;      ///< Max / mean group load.
  double serde_work_share = 0.0;     ///< Serde work / all work.
};

/// Rebalancer decorator: times ComputePlan and records per round what the
/// snapshot says about the period that just ended. The benchmark calls
/// BeginRound before each controller round.
class TimedRebalancer final : public albic::balance::Rebalancer {
 public:
  TimedRebalancer(albic::balance::Rebalancer* inner, SpanLog* spans,
                  double serde_cost, double node_capacity_work_units)
      : inner_(inner),
        spans_(spans),
        serde_cost_(serde_cost),
        capacity_(node_capacity_work_units) {}

  void BeginRound() { rounds_.emplace_back(); }
  const std::vector<PlanRecord>& rounds() const { return rounds_; }

  albic::Result<albic::balance::RebalancePlan> ComputePlan(
      const albic::engine::SystemSnapshot& snapshot,
      const albic::balance::RebalanceConstraints& constraints) override {
    if (rounds_.empty()) rounds_.emplace_back();
    PlanRecord& rec = rounds_.back();
    if (rec.calls == 0) Observe(snapshot, &rec);
    const int64_t t0 = NowNs();
    albic::Result<albic::balance::RebalancePlan> plan = [&] {
      Span span(spans_, "balance.plan");
      return inner_->ComputePlan(snapshot, constraints);
    }();
    rec.plan_ms += 1e-6 * static_cast<double>(NowNs() - t0);
    ++rec.calls;
    if (plan.ok()) rec.predicted_distance = plan->predicted_load_distance;
    return plan;
  }

  std::string name() const override { return inner_->name(); }

 private:
  void Observe(const albic::engine::SystemSnapshot& snap, PlanRecord* rec) {
    rec->realized_distance =
        albic::engine::LoadDistance(snap.node_loads, *snap.cluster);
    double max_load = 0.0, sum_load = 0.0;
    for (double l : snap.group_loads) {
      max_load = std::max(max_load, l);
      sum_load += l;
    }
    const double n = static_cast<double>(snap.group_loads.size());
    rec->group_work_skew = sum_load > 0.0 ? max_load / (sum_load / n) : 0.0;
    // The engine charges serde_cost on both nodes of every tuple that
    // crosses nodes; group loads are the processing work in percent of a
    // capacity-1 node.
    double cross = 0.0;
    if (snap.comm != nullptr) {
      for (int g = 0; g < snap.comm->num_groups(); ++g) {
        for (const auto& e : snap.comm->row(g)) {
          if (snap.assignment.node_of(g) != snap.assignment.node_of(e.to)) {
            cross += e.rate;
          }
        }
      }
    }
    const double serde = 2.0 * serde_cost_ * cross;
    const double proc = sum_load * capacity_ / 100.0;
    rec->serde_work_share = proc + serde > 0.0 ? serde / (proc + serde) : 0.0;
  }

  albic::balance::Rebalancer* inner_;
  SpanLog* spans_;
  double serde_cost_;
  double capacity_;
  std::vector<PlanRecord> rounds_;
};

/// Checkpoint-store decorator timing Put / PutDelta; everything else
/// forwards unchanged.
class TimedStore final : public albic::engine::CheckpointStore {
 public:
  TimedStore(albic::engine::CheckpointStore* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  albic::Result<albic::engine::CheckpointInfo> Put(
      albic::engine::KeyGroupId group, uint64_t seq,
      const std::string& state) override {
    Span span(spans_, "ckpt.store_put");
    return inner_->Put(group, seq, state);
  }
  albic::Result<albic::engine::CheckpointInfo> PutDelta(
      albic::engine::KeyGroupId group, uint64_t seq,
      const std::string& delta) override {
    Span span(spans_, "ckpt.store_put");
    return inner_->PutDelta(group, seq, delta);
  }
  bool Latest(albic::engine::KeyGroupId group,
              albic::engine::CheckpointInfo* info,
              std::string* state) const override {
    return inner_->Latest(group, info, state);
  }
  bool LatestChain(albic::engine::KeyGroupId group,
                   albic::engine::CheckpointInfo* info, std::string* base,
                   std::vector<std::string>* deltas) const override {
    return inner_->LatestChain(group, info, base, deltas);
  }
  uint64_t ChainDeltaBytes(albic::engine::KeyGroupId group) const override {
    return inner_->ChainDeltaBytes(group);
  }
  uint64_t ChainBytes(albic::engine::KeyGroupId group) const override {
    return inner_->ChainBytes(group);
  }
  bool Get(albic::engine::KeyGroupId group, uint64_t version,
           albic::engine::CheckpointInfo* info,
           std::string* state) const override {
    return inner_->Get(group, version, info, state);
  }
  albic::Status PutManifest(
      const albic::engine::CheckpointManifest& manifest) override {
    return inner_->PutManifest(manifest);
  }
  bool LatestManifest(albic::engine::CheckpointManifest* out) const override {
    return inner_->LatestManifest(out);
  }
  int64_t puts() const override { return inner_->puts(); }
  int64_t delta_puts() const override { return inner_->delta_puts(); }
  int64_t stored_bytes() const override { return inner_->stored_bytes(); }

 private:
  albic::engine::CheckpointStore* inner_;
  SpanLog* spans_;
};

}  // namespace perfbench
