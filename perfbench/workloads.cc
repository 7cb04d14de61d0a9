#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "common/metrics_registry.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "core/adaptation_framework.h"
#include "core/albic.h"
#include "core/controller_loop.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "engine/local_engine.h"
#include "ops/aggregate.h"
#include "ops/extract.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "probes.h"
#include "workload/streams.h"

namespace perfbench {
namespace {

using albic::Status;
using albic::WavePhase;
using albic::engine::Tuple;
namespace engine = albic::engine;
namespace ops = albic::ops;
namespace core = albic::core;
namespace balance = albic::balance;

constexpr int64_t kMinuteUs = 60LL * 1000 * 1000;

// Real Job 1 as examples/wiki_topk_job.cpp configures it.
constexpr int kTopkNodes = 6;
constexpr int kTopkGroups = 18;
constexpr int kTopkK = 5;
constexpr int kGeoCells = 1024;
constexpr double kTopkSerde = 0.3;

double Seconds(int64_t ns) { return 1e-9 * static_cast<double>(ns); }

/// Peak resident set of the process so far, in MB.
double MaxRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Share of the wall time a profiled run spent in one wave phase.
double PhaseShare(const int64_t* ns, int64_t wall_ns, WavePhase p) {
  return wall_ns > 0 ? static_cast<double>(ns[static_cast<int>(p)]) /
                           static_cast<double>(wall_ns)
                     : 0.0;
}

void AddPhaseShares(RunResult* r, const int64_t* ns, int64_t wall_ns) {
  r->Add("engine.phase.ingest_share", PhaseShare(ns, wall_ns, WavePhase::kIngest), "ratio");
  r->Add("engine.phase.service_share", PhaseShare(ns, wall_ns, WavePhase::kService), "ratio");
  r->Add("engine.phase.wave_barrier_share", PhaseShare(ns, wall_ns, WavePhase::kWaveBarrier), "ratio");
  r->Add("engine.phase.window_share", PhaseShare(ns, wall_ns, WavePhase::kWindow), "ratio");
  r->Add("engine.phase.checkpoint_share", PhaseShare(ns, wall_ns, WavePhase::kCheckpoint), "ratio");
  r->Add("engine.phase.migration_share", PhaseShare(ns, wall_ns, WavePhase::kMigration), "ratio");
}

/// Phase shares over the periods the controller harvested.
void AddRoundPhaseShares(RunResult* r, const std::vector<albic::core::ControllerRound>& rounds) {
  int64_t ns[albic::kNumWavePhases] = {};
  int64_t wall = 0;
  for (const albic::core::ControllerRound& round : rounds) {
    for (int p = 0; p < albic::kNumWavePhases; ++p) ns[p] += round.phase_ns[p];
    wall += round.phase_wall_ns;
  }
  AddPhaseShares(r, ns, wall);
}

/// Per-operator probe metrics: ns per input tuple, tuples in and out per
/// source tuple, and (windowed operators) microseconds per window fire.
void AddOpMetrics(RunResult* r, const std::string& op, const OpCounters* c,
                  double source_tuples, bool windowed) {
  const double in = c != nullptr ? static_cast<double>(c->in()) : 0.0;
  r->Add("ops." + op + ".ns_per_tuple",
         in > 0 ? static_cast<double>(c->batch_ns()) / in : 0.0, "ns");
  r->Add("ops." + op + ".tuples_in", source_tuples > 0 ? in / source_tuples : 0.0,
         "per_src_tuple");
  r->Add("ops." + op + ".tuples_out",
         c != nullptr && source_tuples > 0
             ? static_cast<double>(c->out()) / source_tuples
             : 0.0,
         "per_src_tuple");
  if (windowed) {
    r->Add("ops." + op + ".window_us",
           c != nullptr && c->window_fires() > 0
               ? 1e-3 * static_cast<double>(c->window_ns()) /
                     static_cast<double>(c->window_fires())
               : 0.0,
           "us");
  }
}

/// Every per-layer metric a workload cannot produce, reported as 0 so the
/// traced result always carries the full set (README: "0 = not exercised").
void AddZeros(RunResult* r, const std::vector<std::pair<const char*, const char*>>& names) {
  for (const auto& [name, unit] : names) r->Add(name, 0.0, unit);
}

void AddMicro(RunResult* r, const MicroResults& m) {
  r->Add("engine.route_key_ns", m.route_key_ns, "ns");
  r->Add("common.flatmap.upsert_ns", m.flatmap_upsert_ns, "ns");
  r->Add("common.flatmap.find_ns", m.flatmap_find_ns, "ns");
  r->Add("state_arena.flip_ns", m.lease_flip_ns, "ns");
  r->Add("ops.topk.serialize_base_us", m.topk_serialize_base_us, "us");
  r->Add("ops.topk.serialize_delta_us", m.topk_serialize_delta_us, "us");
}

/// Round-history metrics shared by the two controller workloads.
std::vector<RoundView> Views(const std::vector<core::ControllerRound>& history) {
  std::vector<RoundView> views;
  for (const core::ControllerRound& round : history) {
    RoundView v;
    v.load_distance = round.load_distance;
    for (const core::MigrationDecision& d : round.migration_decisions) {
      v.moves.push_back({d.group, d.from, d.to});
    }
    views.push_back(std::move(v));
  }
  return views;
}

/// Controller, planner and migration per-layer metrics of a traced run.
void AddControllerMetrics(RunResult* r,
                          const std::vector<core::ControllerRound>& history,
                          const TimedRebalancer& planner,
                          const SpanLog& spans, int scale_in_periods) {
  int lease = 0, direct = 0, applied = 0;
  double pause_us = 0.0;
  for (const core::ControllerRound& round : history) {
    lease += round.migrations_lease;
    direct += round.migrations_direct;
    applied += round.migrations_applied;
    pause_us += round.migration_pause_us;
  }
  r->Add("migration.lease", lease, "count");
  r->Add("migration.direct", direct, "count");
  r->Add("migration.pause_ms_modeled", 1e-3 * pause_us, "ms");
  r->Add("core.rounds", static_cast<double>(history.size()), "count");
  r->Add("core.round_ms_p50", Median(spans.Get("core.round").durations_ms), "ms");
  r->Add("core.return_moves", ReturnMoves(Views(history)), "count");
  r->Add("core.migrations", applied, "count");
  r->Add("core.scale_in_periods", scale_in_periods, "periods");

  const std::vector<PlanRecord>& recs = planner.rounds();
  std::vector<double> plan_ms, calls, error, skew, serde;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].calls == 0) continue;
    plan_ms.push_back(recs[i].plan_ms);
    calls.push_back(recs[i].calls);
    skew.push_back(recs[i].group_work_skew);
    serde.push_back(recs[i].serde_work_share);
    if (i + 1 < recs.size() && recs[i + 1].calls > 0) {
      error.push_back(std::fabs(recs[i].predicted_distance -
                                recs[i + 1].realized_distance));
    }
  }
  r->Add("balance.plan_ms_p50", Median(plan_ms), "ms");
  r->Add("balance.plans_per_round", Mean(calls), "count");
  r->Add("balance.prediction_error", Mean(error), "%");
  r->Add("engine.group_work_skew", Mean(skew), "ratio");
  r->Add("engine.serde_work_share", Mean(serde), "ratio");
}

/// Waves and mailbox high-water from the engine's metrics registry (the
/// controller harvests the engine's period statistics itself).
void AddRegistryEngineMetrics(RunResult* r, albic::MetricsRegistry* reg,
                              double source_tuples) {
  const double waves =
      static_cast<double>(reg->Counter("engine_waves_total")->value());
  const double processed = static_cast<double>(
      reg->Counter("engine_tuples_processed_total")->value());
  r->Add("engine.waves", source_tuples > 0 ? 1e6 * waves / source_tuples : 0.0,
         "per_Mtuple");
  r->Add("engine.tuples_per_wave", waves > 0 ? processed / waves : 0.0, "tuples");
  r->Add("engine.mailbox_highwater",
         static_cast<double>(reg->Gauge("engine_mailbox_highwater")->value()),
         "batches");
}

/// Span totals and self times, for the report.
void NoteSpans(RunResult* r, const SpanLog& spans) {
  for (const auto& [name, t] : spans.totals()) {
    r->Note("span." + name + ".total_ms", 1e-6 * static_cast<double>(t.total_ns), "ms");
    r->Note("span." + name + ".self_ms", 1e-6 * static_cast<double>(t.self_ns), "ms");
  }
}

/// Waits for a due time: sleeps most of the way, spins the rest.
void WaitUntil(int64_t due_ns) {
  int64_t now = NowNs();
  if (due_ns - now > 200000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - 150000));
  }
  while (NowNs() < due_ns) {
  }
}

// ---------------------------------------------------------------------------
// Real Job 1: geohash -> per-cell 1-min windowed top-k -> global top-k.
// ---------------------------------------------------------------------------

struct TopkPipeline {
  engine::Topology topo;
  engine::Cluster cluster;
  std::unique_ptr<ops::GeoHashOperator> geohash;
  std::unique_ptr<ops::WindowedTopKOperator> topk;
  std::unique_ptr<CapturingTopK> global;
  std::unique_ptr<engine::LocalEngine> engine;
  bool ok = false;

  /// \p probes, when set, points at three counters (geohash, topk, global)
  /// the operators are probed into.
  TopkPipeline(int nodes, engine::LocalEngineOptions eopts,
               OpCounters* probes = nullptr)
      : cluster(nodes) {
    topo.AddOperator("geohash", kTopkGroups, 1 << 16);
    topo.AddOperator("topk-1min", kTopkGroups, 1 << 18);
    topo.AddOperator("global-topk", kTopkGroups, 1 << 16);
    if (!topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning).ok() ||
        !topo.AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning).ok()) {
      return;
    }
    if (probes != nullptr) {
      geohash = std::make_unique<Probe<ops::GeoHashOperator>>(&probes[0], kTopkGroups, kGeoCells);
      topk = std::make_unique<Probe<ops::WindowedTopKOperator>>(&probes[1], kTopkGroups, kTopkK);
      global = std::make_unique<Probe<CapturingTopK>>(
          &probes[2], kTopkGroups, kTopkK, ops::TopKCountMode::kSumNum);
    } else {
      geohash = std::make_unique<ops::GeoHashOperator>(kTopkGroups, kGeoCells);
      topk = std::make_unique<ops::WindowedTopKOperator>(kTopkGroups, kTopkK);
      global = std::make_unique<CapturingTopK>(kTopkGroups, kTopkK,
                                               ops::TopKCountMode::kSumNum);
    }
    engine::Assignment assign(topo.num_key_groups());
    for (engine::KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % nodes);
    }
    eopts.serde_cost = kTopkSerde;
    eopts.window_every_us = kMinuteUs;
    eopts.mode = engine::ExecutionMode::kBatched;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{geohash.get(), topk.get(), global.get()},
        eopts);
    ok = true;
  }

  int64_t GeohashProcessed() const {
    int64_t n = 0;
    for (int g = 0; g < kTopkGroups; ++g) n += geohash->processed(g);
    return n;
  }
};

/// Tuples per period on every geohash -> topk group pair, from the input.
std::vector<std::vector<GroupEdge>> TopkTraffic(const WikiInput& input) {
  std::vector<std::vector<GroupEdge>> traffic;
  const ops::GeoHashOperator geo(kTopkGroups, kGeoCells);
  std::vector<std::vector<double>> counts;
  for (size_t i = 0; i < input.size(); ++i) {
    const Tuple t = input.At(i);
    const size_t p = static_cast<size_t>((t.ts - input.ts0) / kMinuteUs);
    if (counts.size() <= p) counts.resize(p + 1, std::vector<double>(kTopkGroups * kTopkGroups, 0.0));
    const int src = engine::LocalEngine::RouteKey(t.key, kTopkGroups);
    const int dst = engine::LocalEngine::RouteKey(geo.CellFor(t.key), kTopkGroups);
    counts[p][static_cast<size_t>(src * kTopkGroups + dst)] += 1.0;
  }
  for (const std::vector<double>& c : counts) {
    std::vector<GroupEdge> edges;
    for (int s = 0; s < kTopkGroups; ++s) {
      for (int d = 0; d < kTopkGroups; ++d) {
        const double n = c[static_cast<size_t>(s * kTopkGroups + d)];
        if (n > 0) edges.push_back({s, kTopkGroups + d, n});
      }
    }
    traffic.push_back(std::move(edges));
  }
  return traffic;
}

std::vector<int> Placement(const engine::Assignment& a) {
  return std::vector<int>(a.raw().begin(), a.raw().end());
}

/// Placement of every key group of Real Job 1 at the start: group g on g % 6.
std::vector<int> TopkStartPlacement() {
  std::vector<int> p(3 * kTopkGroups);
  for (size_t g = 0; g < p.size(); ++g) p[g] = static_cast<int>(g) % kTopkNodes;
  return p;
}

/// Load distance of one harvested period under the controller's definition
/// (tuple-count loads in percent of a reference node).
double PeriodLoadDistance(const engine::EnginePeriodStats& stats,
                          const engine::Topology& topo,
                          const engine::Cluster& cluster,
                          const engine::Assignment& assignment,
                          double capacity_work_units) {
  std::vector<double> loads(stats.group_work.size());
  for (size_t g = 0; g < loads.size(); ++g) {
    loads[g] = stats.group_work[g] * 100.0 / capacity_work_units;
  }
  const engine::LoadModel model(engine::CostModel{});
  const engine::NodeLoads nl =
      model.ComputeNodeLoads(topo, loads, &stats.comm, assignment, cluster);
  return engine::LoadDistance(nl.bottleneck_loads(), cluster);
}

std::vector<uint64_t> KeySample(const WikiInput& input, size_t n) {
  std::vector<uint64_t> keys;
  keys.reserve(std::min(n, input.size()));
  for (size_t i = 0; i < input.size() && keys.size() < n; ++i) {
    keys.push_back(input.At(i).key);
  }
  return keys;
}

}  // namespace

HotSetSchedule HotSetSchedule::Make(int index, int every_periods,
                                   uint64_t articles, int64_t span_us) {
  HotSetSchedule h;
  h.every_periods = every_periods;
  h.articles = articles;
  if (every_periods <= 0) return h;
  albic::Rng rng(0x5eed5eedULL + static_cast<uint64_t>(index));
  const int64_t epochs = span_us / (every_periods * kMinuteUs) + 1;
  for (int64_t e = 0; e < epochs; ++e) h.offsets.push_back(rng.NextU64() % articles);
  return h;
}

WikiInput WikiInput::WithSchedule(int index, int every_periods) const {
  WikiInput w = *this;
  const int64_t span = edits->empty() ? 0 : edits->back().ts_off;
  w.hot = HotSetSchedule::Make(index, every_periods, hot.articles, span);
  return w;
}

WikiInput MakeWikiInput(uint64_t seed, int articles, double events_per_second,
                        size_t tuples, int remap_every_periods) {
  albic::workload::WikipediaEditStream stream(articles, seed, events_per_second);
  auto edits = std::make_shared<std::vector<PackedEdit>>();
  edits->reserve(tuples);
  WikiInput input;
  for (size_t i = 0; i < tuples; ++i) {
    const Tuple t = stream.Next();
    if (i == 0) input.ts0 = t.ts;
    const int64_t off = t.ts - input.ts0;
    if (off > static_cast<int64_t>(UINT32_MAX)) return WikiInput{};
    PackedEdit e;
    e.key = static_cast<uint32_t>(t.key);
    e.aux = static_cast<uint32_t>(t.aux);
    e.num = static_cast<float>(t.num);
    e.ts_off = static_cast<uint32_t>(off);
    edits->push_back(e);
  }
  input.edits = std::move(edits);
  input.hot.articles = static_cast<uint64_t>(articles);
  return remap_every_periods > 0 ? input.WithSchedule(0, remap_every_periods) : input;
}

std::vector<WindowResult> TopkWindows(const WikiInput& input, int nodes) {
  engine::LocalEngineOptions eopts;
  eopts.num_workers = 1;
  TopkPipeline p(nodes, eopts);
  if (!p.ok) return {};
  constexpr size_t kChunk = 4096;
  std::vector<Tuple> buf(kChunk);
  for (size_t i = 0; i < input.size(); i += kChunk) {
    const size_t n = std::min(kChunk, input.size() - i);
    input.Decode(i, n, buf.data());
    if (!p.engine->InjectBatch(0, buf.data(), n).ok()) return {};
  }
  p.engine->Flush();
  return p.global->Windows();
}

// ---------------------------------------------------------------------------
// topk_saturated: closed loop, 4 workers interleaved with 1 worker.
// ---------------------------------------------------------------------------

RunResult RunTopkSaturated(const RunConfig& cfg) {
  constexpr size_t kTuples = 4'000'000;
  constexpr size_t kChunk = 8192;
  constexpr double kRate = 2000.0;  // events per event-second
  // 50% mean load at 2 work units per edit, as wiki_topk_job sizes it.
  constexpr double kCapacity = 2.0 * kRate * 60 / kTopkNodes / 0.5;

  RunResult result;
  const WikiInput input = MakeWikiInput(cfg.seed, 20000, kRate, kTuples);
  std::vector<Tuple> stream(input.size());
  input.Decode(0, input.size(), stream.data());
  const std::vector<std::vector<GroupEdge>> traffic = TopkTraffic(input);
  const double rss0 = MaxRssMb();

  // One cycle interleaves the configurations; the first cycle is warm-up.
  struct Config {
    int workers;
    bool traced;
  };
  std::vector<Config> cycle = {{4, false}, {1, false}};
  if (cfg.trace) cycle = {{4, false}, {4, true}, {1, false}, {1, true}};

  struct ConfigStats {
    std::vector<double> tps, busy_ns_per_tuple, latency_ms;
    int reps = 0;
  };
  ConfigStats stats[2][2];  // [workers == 4][traced]
  std::vector<double> setup_s, load_distance;
  std::vector<std::vector<WindowResult>> outputs;
  SpanLog spans4, spans1;
  OpCounters probes4[3] = {OpCounters(kTopkGroups), OpCounters(kTopkGroups),
                           OpCounters(kTopkGroups)};
  OpCounters probes1[3] = {OpCounters(kTopkGroups), OpCounters(kTopkGroups),
                           OpCounters(kTopkGroups)};
  int64_t traced_src4 = 0, traced_src1 = 0, traced_waves = 0;
  int64_t traced_processed = 0, traced_mailbox = 0, phase_wall = 0;
  int64_t phase_ns[albic::kNumWavePhases] = {};
  std::vector<double> skew, serde;

  const int64_t t_start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(cfg.seconds) * 1000000000LL;
  for (size_t rep = 0; NowNs() - t_start < budget_ns || rep < 2 * cycle.size(); ++rep) {
    const Config& c = cycle[rep % cycle.size()];
    const bool warmup = rep < cycle.size();
    const bool four = c.workers == 4;
    engine::LocalEngineOptions eopts;
    eopts.num_workers = c.workers;
    eopts.max_batch_tuples = static_cast<int>(kChunk);
    eopts.profile_wave_phases = c.traced;
    // Warm-up reps are not counted, so they do not feed the probes either.
    OpCounters* probes = c.traced && !warmup ? (four ? probes4 : probes1) : nullptr;
    const int64_t s0 = NowNs();
    auto p = std::make_unique<TopkPipeline>(kTopkNodes, eopts, probes);
    setup_s.push_back(Seconds(NowNs() - s0));
    if (!p->ok) {
      result.correct = false;
      break;
    }
    SpanLog* spans = c.traced && !warmup ? (four ? &spans4 : &spans1) : nullptr;
    std::vector<double> lat;
    lat.reserve(stream.size() / kChunk + 1);
    std::vector<engine::EnginePeriodStats> periods;
    int64_t next_boundary = input.ts0 + kMinuteUs;
    int64_t busy = 0;
    // Flush, then harvest the period; timed as part of the run.
    const auto close_period = [&] {
      const int64_t h0 = NowNs();
      {
        Span span(spans, "engine.inject");
        p->engine->Flush();
      }
      periods.push_back(p->engine->HarvestPeriod());
      busy += NowNs() - h0;
    };
    for (size_t i = 0; i < stream.size(); i += kChunk) {
      const size_t n = std::min(kChunk, stream.size() - i);
      const int64_t t0 = NowNs();
      Status st;
      {
        Span span(spans, "engine.inject");
        st = p->engine->InjectBatch(0, stream.data() + i, n);
      }
      const int64_t t1 = NowNs();
      ++result.attempted;
      if (!st.ok()) ++result.failed;
      lat.push_back(1e-6 * static_cast<double>(t1 - t0));
      busy += t1 - t0;
      if (stream[i + n - 1].ts >= next_boundary) {
        while (stream[i + n - 1].ts >= next_boundary) next_boundary += kMinuteUs;
        close_period();
      }
    }
    close_period();
    outputs.push_back(p->global->Windows());
    if (load_distance.empty()) {
      for (const engine::EnginePeriodStats& ps : periods) {
        load_distance.push_back(PeriodLoadDistance(
            ps, p->topo, p->cluster, p->engine->assignment(), kCapacity));
      }
    }
    if (warmup) continue;
    ConfigStats& cs = stats[four][c.traced];
    ++cs.reps;
    cs.tps.push_back(static_cast<double>(stream.size()) / Seconds(busy));
    cs.busy_ns_per_tuple.push_back(static_cast<double>(busy) /
                                   static_cast<double>(stream.size()));
    cs.latency_ms.insert(cs.latency_ms.end(), lat.begin(), lat.end());
    if (!c.traced) continue;
    (four ? traced_src4 : traced_src1) += static_cast<int64_t>(stream.size());
    if (!four) continue;
    for (const engine::EnginePeriodStats& ps : periods) {
      traced_waves += ps.waves;
      traced_processed += ps.tuples_processed;
      traced_mailbox = std::max(traced_mailbox, ps.mailbox_highwater);
      for (int ph = 0; ph < albic::kNumWavePhases; ++ph) phase_ns[ph] += ps.phases.ns[ph];
      phase_wall += ps.phases.wall_ns;
      double gmax = 0, gsum = 0, nsum = 0;
      for (double w : ps.group_work) {
        gmax = std::max(gmax, w);
        gsum += w;
      }
      for (double w : ps.node_work) nsum += w;
      if (gsum > 0) {
        skew.push_back(gmax / (gsum / static_cast<double>(ps.group_work.size())));
        serde.push_back(nsum > 0 ? (nsum - gsum) / nsum : 0.0);
      }
    }
  }
  const double mem_mb = MaxRssMb() - rss0;

  // Oracle: one node, one worker, no controller.
  const std::vector<WindowResult> oracle = TopkWindows(input, 1);
  for (const std::vector<WindowResult>& got : outputs) {
    result.failed += CountWindowMismatches(got, oracle);
    result.attempted += static_cast<int64_t>(oracle.size());
  }
  if (result.failed > 0 || oracle.empty()) result.correct = false;

  const ConfigStats& u4 = stats[1][0];
  const ConfigStats& u1 = stats[0][0];
  // Chunk latency comes from the 1-worker reps: 4-worker tails split into
  // two groups across identical runs (README, findings).
  const Percentile p99 = PercentileWithSupport(u1.latency_ms, 99.0);
  std::vector<RoundView> period_views;
  for (double d : load_distance) period_views.push_back({d, {}});
  const std::vector<std::vector<int>> placement(traffic.size(), TopkStartPlacement());

  if (!cfg.trace) {
    result.Add("throughput_tps", Median(u4.tps), "tuples/s");
    result.Add("throughput_1w_tps", Median(u1.tps), "tuples/s");
    result.Add("latency_p50_ms", Median(u1.latency_ms), "ms");
    result.Add("latency_p99_ms", p99.value, "ms");
    result.Add("load_distance_mean", LoadDistanceMean(period_views), "%");
    result.Add("collocation_pct", CollocationPct(traffic, placement), "%");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("mem_peak_mb", mem_mb, "MB");
  } else {
    const MicroResults micro = RunMicrobench(KeySample(input, 1 << 20), kTopkGroups,
                                              static_cast<size_t>(kRate * 60 / kTopkGroups));
    const double src4 = static_cast<double>(traced_src4);
    const double src1 = static_cast<double>(traced_src1);
    const double inject4 = static_cast<double>(spans4.Get("engine.inject").self_ns) / src4;
    const double inject1 = static_cast<double>(spans1.Get("engine.inject").self_ns) / src1;
    result.Add("engine.inject_ns_per_tuple", inject4, "ns");
    result.Add("engine.waves", 1e6 * static_cast<double>(traced_waves) / src4, "per_Mtuple");
    result.Add("engine.tuples_per_wave",
               traced_waves > 0 ? static_cast<double>(traced_processed) / static_cast<double>(traced_waves) : 0.0,
               "tuples");
    result.Add("engine.mailbox_highwater", static_cast<double>(traced_mailbox), "batches");
    AddPhaseShares(&result, phase_ns, phase_wall);
    result.Add("engine.group_work_skew", Mean(skew), "ratio");
    result.Add("engine.serde_work_share", Mean(serde), "ratio");
    AddOpMetrics(&result, "geohash", &probes4[0], src4, false);
    AddOpMetrics(&result, "topk", &probes4[1], src4, true);
    AddOpMetrics(&result, "global_topk", &probes4[2], src4, true);
    AddOpMetrics(&result, "extract", nullptr, src4, false);
    AddOpMetrics(&result, "sum", nullptr, src4, false);
    AddMicro(&result, micro);
    AddZeros(&result, {{"ckpt.rounds", "count"}, {"ckpt.forced_rounds", "count"},
                       {"ckpt.round_us_mean", "us"}, {"ckpt.bytes_base", "B/round"},
                       {"ckpt.bytes_delta", "B/round"}, {"ckpt.store_put_us", "us"},
                       {"migration.lease", "count"}, {"migration.direct", "count"},
                       {"migration.pause_ms_modeled", "ms"}, {"core.rounds", "count"},
                       {"core.round_ms_p50", "ms"}, {"core.return_moves", "count"},
                       {"core.migrations", "count"}, {"core.scale_in_periods", "periods"},
                       {"balance.plan_ms_p50", "ms"}, {"balance.plans_per_round", "count"},
                       {"balance.prediction_error", "%"}, {"harness.gen_lag_p99_ms", "ms"}});
    result.Add("harness.trace_overhead_pct",
               100.0 * (Median(stats[1][1].busy_ns_per_tuple) /
                            Median(u4.busy_ns_per_tuple) - 1.0),
               "%");
    // What the 1-worker inject time per source tuple is made of: the three
    // operators' batches plus two routing hops (source -> geohash -> topk).
    const double op_ns1 = static_cast<double>(probes1[0].batch_ns() + probes1[1].batch_ns() +
                                              probes1[2].batch_ns());
    const double layers1 = op_ns1 / src1 + 2.0 * micro.route_key_ns;
    result.Add("harness.layer_gap_ns_per_tuple", inject1 - layers1, "ns");
    NoteSpans(&result, spans4);
    result.Note("engine.inject_ns_per_tuple_1w", inject1, "ns");
    result.Note("summed_layer_ns_per_tuple_1w", layers1, "ns");
  }
  result.Note("latency_p50_ms_4w", Median(u4.latency_ms), "ms");
  result.Note("latency_p99_ms_4w", PercentileWithSupport(u4.latency_ms, 99.0).value, "ms");
  result.Note("reps_4w", u4.reps, "count");
  result.Note("reps_1w", u1.reps, "count");
  result.Note("latency_p99_rank", p99.rank_pct, "pct");
  result.Note("latency_samples", static_cast<double>(u1.latency_ms.size()), "count");
  result.Note("windows_checked", static_cast<double>(oracle.size() * outputs.size()), "count");
  return result;
}

// ---------------------------------------------------------------------------
// topk_live: open loop through the controller, checkpointing on, 1 worker.
// ---------------------------------------------------------------------------

namespace {

constexpr double kLiveRate = 10000.0;  // events per event-second
constexpr double kLiveCapacity = 2.0 * kLiveRate * 60 / kTopkNodes / 0.5;

struct LiveSetup {
  OpCounters probes[3] = {OpCounters(kTopkGroups), OpCounters(kTopkGroups),
                          OpCounters(kTopkGroups)};
  std::unique_ptr<albic::MetricsRegistry> registry;
  std::unique_ptr<TopkPipeline> p;
  std::unique_ptr<engine::MemoryCheckpointStore> store;
  std::unique_ptr<TimedStore> timed_store;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  std::unique_ptr<balance::MilpRebalancer> milp;
  std::unique_ptr<TimedRebalancer> planner;
  std::unique_ptr<core::AdaptationFramework> framework;
  std::unique_ptr<engine::LoadModel> load_model;
  std::unique_ptr<core::ControllerLoop> controller;
  bool ok = false;
};

/// Real Job 1 as wiki_topk_job deploys it: heuristic MILP (10 ms, <= 4
/// moves per round) with lease migration, plus checkpointing into a memory
/// store with the coordinator's defaults. \p spans non-null = traced.
std::unique_ptr<LiveSetup> MakeLive(SpanLog* spans) {
  const bool traced = spans != nullptr;
  auto s = std::make_unique<LiveSetup>();
  engine::LocalEngineOptions eopts;
  eopts.num_workers = 1;
  eopts.profile_wave_phases = traced;
  if (traced) {
    s->registry = std::make_unique<albic::MetricsRegistry>();
    eopts.metrics = s->registry.get();
  }
  s->p = std::make_unique<TopkPipeline>(kTopkNodes, eopts, traced ? s->probes : nullptr);
  if (!s->p->ok) return s;
  s->store = std::make_unique<engine::MemoryCheckpointStore>();
  engine::CheckpointStore* store = s->store.get();
  if (traced) {
    s->timed_store = std::make_unique<TimedStore>(s->store.get(), spans);
    store = s->timed_store.get();
  }
  s->coordinator = std::make_unique<engine::CheckpointCoordinator>(store);
  if (!s->p->engine->EnableCheckpointing(s->coordinator.get()).ok()) return s;

  balance::MilpRebalancerOptions mopts;
  mopts.mode = balance::MilpRebalancerOptions::Mode::kHeuristic;
  mopts.time_budget_ms = 10;
  s->milp = std::make_unique<balance::MilpRebalancer>(mopts);
  s->planner = std::make_unique<TimedRebalancer>(s->milp.get(), spans, kTopkSerde,
                                                 kLiveCapacity);
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 4;
  s->framework = std::make_unique<core::AdaptationFramework>(
      s->planner.get(), /*policy=*/nullptr, aopts);
  s->load_model = std::make_unique<engine::LoadModel>(engine::CostModel{});
  core::ControllerLoopOptions copts;
  // The benchmark runs each round at its 1-minute boundary, inline on the
  // ingest thread where the loop's own pacing would run it, so that every
  // round is a span of its own.
  copts.period_every_us = 0;
  copts.node_capacity_work_units = kLiveCapacity;
  copts.use_comm = true;
  copts.use_lease_migration = true;
  s->controller = std::make_unique<core::ControllerLoop>(
      s->p->engine.get(), s->framework.get(), s->load_model.get(), &s->p->topo,
      &s->p->cluster, copts);
  s->ok = true;
  return s;
}

struct LivePass {
  std::vector<ChunkTiming> timings;
  int64_t busy_ns = 0;
  int64_t failed = 0;
  int64_t attempted = 0;
  std::vector<std::vector<int>> placement;  ///< Per period.
  std::vector<WindowResult> windows;
  double mem_mb = 0.0;
};

/// Offers \p input at 2M tuples/s in 4096-tuple chunks. The call carrying
/// a chunk also runs the controller round of any 1-minute boundary inside
/// it, and ends with a Flush: the chunk must be fully drained on return.
LivePass RunLivePass(LiveSetup* s, const WikiInput& input, SpanLog* spans,
                     double rss0) {
  constexpr size_t kChunk = 4096;
  constexpr double kOfferedRate = 2e6;
  LivePass out;
  TopkPipeline& p = *s->p;
  out.placement.push_back(Placement(p.engine->assignment()));
  int64_t next_boundary = input.ts0 + kMinuteUs;
  int64_t injected = 0;
  std::vector<Tuple> buf(kChunk);
  size_t buf_n = 0;
  const size_t chunks = (input.size() + kChunk - 1) / kChunk;
  const auto ingest = [&](const Tuple* t, size_t n) {
    ++out.attempted;
    Span span(spans, "engine.inject");
    if (!s->controller->IngestBatch(0, t, n).ok()) ++out.failed;
  };
  const auto prepare = [&](size_t k) {
    buf_n = std::min(kChunk, input.size() - k * kChunk);
    input.Decode(k * kChunk, buf_n, buf.data());
  };
  const auto call = [&](size_t) {
    size_t at = 0;
    while (at < buf_n) {
      size_t cut = at;
      while (cut < buf_n && buf[cut].ts < next_boundary) ++cut;
      if (cut > at) ingest(buf.data() + at, cut - at);
      at = cut;
      if (at < buf_n) {
        // buf[at] opens the next period: close this one first.
        Span round(spans, "core.round");
        s->planner->BeginRound();
        ++out.attempted;
        if (!s->controller->RunRoundNow().ok()) ++out.failed;
        next_boundary += kMinuteUs;
      }
    }
    Span span(spans, "engine.inject");
    p.engine->Flush();
  };
  const auto after = [&](size_t, const ChunkTiming& t) {
    out.busy_ns += t.end_ns - t.start_ns;
    injected += static_cast<int64_t>(buf_n);
    // Fully drained: the source operator has seen every offered tuple.
    if (p.GeohashProcessed() != injected) ++out.failed;
    // Placement in force for the next tuples; lease flips land at the
    // call's wave barriers, so it is read after the call.
    const size_t period = static_cast<size_t>((buf[buf_n - 1].ts - input.ts0) / kMinuteUs);
    while (out.placement.size() <= period) {
      out.placement.push_back(Placement(p.engine->assignment()));
    }
  };
  const OpenLoopSchedule schedule{NowNs() + 1000000, 1e9 * kChunk / kOfferedRate};
  out.timings = RunOpenLoop(schedule, chunks, NowNs, WaitUntil, prepare, call, after);
  out.mem_mb = MaxRssMb() - rss0;
  out.windows = p.global->Windows();
  if (!s->coordinator->last_error().ok()) ++out.failed;
  return out;
}

}  // namespace

RunResult RunTopkLive(const RunConfig& cfg) {
  // Each pass offers 5 s of input to a fresh deployment; passes repeat
  // until the time budget is spent (trace mode alternates untraced and
  // traced passes). Pass k replays the seed's edits under hot-set schedule
  // k, so every pass is a different input and the run averages over them.
  constexpr double kPassSeconds = 5.0;
  // Extra setups before each pass, so set-up time is sampled across the run.
  constexpr int kExtraSetups = 8;
  RunResult result;
  const WikiInput input = MakeWikiInput(cfg.seed, 1000000, kLiveRate,
                                        static_cast<size_t>(2e6 * kPassSeconds),
                                        /*remap_every_periods=*/4);
  if (input.size() == 0) {
    result.correct = false;
    return result;
  }
  const double rss0 = MaxRssMb();

  std::vector<double> setup_s;
  size_t windows = 0;
  std::vector<double> latency, lag, load_distance, collocation, busy_u, busy_t;
  int64_t busy_ns = 0, tuples = 0;
  int migrations = 0, return_moves = 0, rounds = 0;
  double mem_mb = 0.0;
  std::unique_ptr<SpanLog> spans;  // of the last traced pass
  std::unique_ptr<LiveSetup> ts;   // the last traced pass
  LivePass traced;
  const int64_t t_start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(cfg.seconds) * 1000000000LL;
  const int64_t pass_ns = static_cast<int64_t>(kPassSeconds * 1e9);
  for (int pass = 0; NowNs() - t_start + pass_ns <= budget_ns || pass < (cfg.trace ? 2 : 1);
       ++pass) {
    const bool is_traced = cfg.trace && pass % 2 == 1;
    auto pass_spans = is_traced ? std::make_unique<SpanLog>() : nullptr;
    for (int i = 0; i < kExtraSetups; ++i) {
      const int64_t t0 = NowNs();
      std::unique_ptr<LiveSetup> s = MakeLive(nullptr);
      setup_s.push_back(Seconds(NowNs() - t0));
    }
    const int64_t t0 = NowNs();
    std::unique_ptr<LiveSetup> s = MakeLive(pass_spans.get());
    setup_s.push_back(Seconds(NowNs() - t0));
    if (!s->ok) {
      result.correct = false;
      return result;
    }
    const WikiInput pass_input = input.WithSchedule(pass, 4);
    LivePass run = RunLivePass(s.get(), pass_input, pass_spans.get(), rss0);
    if (pass == 0) mem_mb = run.mem_mb;
    const std::vector<WindowResult> oracle = TopkWindows(pass_input, 1);
    windows += oracle.size();
    result.attempted += run.attempted + static_cast<int64_t>(oracle.size());
    result.failed += run.failed + CountWindowMismatches(run.windows, oracle);
    if (oracle.empty()) ++result.failed;
    if (is_traced) {
      busy_t.push_back(static_cast<double>(run.busy_ns));
      spans = std::move(pass_spans);
      ts = std::move(s);
      traced = std::move(run);
      continue;
    }
    busy_u.push_back(static_cast<double>(run.busy_ns));
    busy_ns += run.busy_ns;
    tuples += static_cast<int64_t>(input.size());
    for (const ChunkTiming& t : run.timings) {
      latency.push_back(t.latency_ms());
      lag.push_back(t.lag_ms());
    }
    const std::vector<core::ControllerRound>& history = s->controller->history();
    for (const core::ControllerRound& r : history) {
      load_distance.push_back(r.load_distance);
      migrations += r.migrations_applied;
    }
    rounds += static_cast<int>(history.size());
    return_moves += ReturnMoves(Views(history));
    collocation.push_back(CollocationPct(TopkTraffic(pass_input), run.placement));
  }
  if (result.failed > 0) result.correct = false;
  const double tps = static_cast<double>(tuples) / Seconds(busy_ns);
  const Percentile p99 = PercentileWithSupport(latency, 99.0);

  if (!cfg.trace) {
    result.Add("throughput_tps", tps, "tuples/s");
    result.Add("throughput_1w_tps", tps, "tuples/s");
    result.Add("latency_p50_ms", Median(latency), "ms");
    result.Add("latency_p99_ms", p99.value, "ms");
    result.Add("load_distance_mean", Mean(load_distance), "%");
    result.Add("collocation_pct", Mean(collocation), "%");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("mem_peak_mb", mem_mb, "MB");
  } else {
    const double src = static_cast<double>(input.size());
    const std::vector<core::ControllerRound>& th = ts->controller->history();
    result.Add("engine.inject_ns_per_tuple",
               static_cast<double>(spans->Get("engine.inject").self_ns) / src, "ns");
    AddRegistryEngineMetrics(&result, ts->registry.get(), src);
    AddRoundPhaseShares(&result, th);
    AddOpMetrics(&result, "geohash", &ts->probes[0], src, false);
    AddOpMetrics(&result, "topk", &ts->probes[1], src, true);
    AddOpMetrics(&result, "global_topk", &ts->probes[2], src, true);
    AddOpMetrics(&result, "extract", nullptr, src, false);
    AddOpMetrics(&result, "sum", nullptr, src, false);
    AddMicro(&result, RunMicrobench(KeySample(input, 1 << 20), kTopkGroups,
                                    static_cast<size_t>(kLiveRate * 60 / kTopkGroups)));
    const engine::CheckpointCoordinatorStats& cs = ts->coordinator->stats();
    const double ckpt_rounds = static_cast<double>(std::max<int64_t>(1, cs.rounds));
    result.Add("ckpt.rounds", static_cast<double>(cs.rounds), "count");
    result.Add("ckpt.forced_rounds", static_cast<double>(cs.forced_rounds), "count");
    result.Add("ckpt.round_us_mean", cs.round_wall_us / ckpt_rounds, "us");
    result.Add("ckpt.bytes_base",
               static_cast<double>(cs.snapshot_bytes - cs.delta_snapshot_bytes) / ckpt_rounds,
               "B/round");
    result.Add("ckpt.bytes_delta", static_cast<double>(cs.delta_snapshot_bytes) / ckpt_rounds,
               "B/round");
    const SpanLog::Totals& put = spans->Get("ckpt.store_put");
    result.Add("ckpt.store_put_us",
               put.count > 0 ? 1e-3 * static_cast<double>(put.total_ns) /
                                   static_cast<double>(put.count)
                             : 0.0,
               "us");
    AddControllerMetrics(&result, th, *ts->planner, *spans, 0);
    NoteSpans(&result, *spans);
    std::vector<double> traced_lag;
    for (const ChunkTiming& t : traced.timings) traced_lag.push_back(t.lag_ms());
    result.Add("harness.gen_lag_p99_ms", PercentileWithSupport(traced_lag, 99.0).value, "ms");
    result.Add("harness.trace_overhead_pct", 100.0 * (Median(busy_t) / Median(busy_u) - 1.0),
               "%");
    result.Add("harness.layer_gap_ns_per_tuple", 0.0, "ns");
  }
  result.Note("passes", static_cast<double>(busy_u.size() + busy_t.size()), "count");
  result.Note("migrations", migrations, "count");
  result.Note("rounds", rounds, "count");
  result.Note("return_moves", return_moves, "count");
  result.Note("chunks", static_cast<double>(latency.size()), "count");
  result.Note("latency_p99_rank", p99.rank_pct, "pct");
  result.Note("gen_lag_p99_ms", PercentileWithSupport(lag, 99.0).value, "ms");
  result.Note("windows_checked", static_cast<double>(windows), "count");
  return result;
}

// ---------------------------------------------------------------------------
// airline_scalein: Real Job 2 under ALBIC, with a scale-in a third of the way.
// ---------------------------------------------------------------------------

namespace {

constexpr int kAirNodes = 16;
constexpr int kAirGroups = 96;
constexpr int kAirPlanes = 5000;
// Scale-in usually completes in 5-7 periods but its tail reached 16 in
// probes, so an episode leaves 24 periods after the marking.
constexpr int kAirPeriods = 36;
constexpr int kAirMarkPeriod = kAirPeriods / 3;
constexpr size_t kAirPerPeriod = 50000;
constexpr double kAirSerde = 1.0;
// ~1.4 work units per flight (extract, plus the ~40% delayed ones summed):
// 50% mean load on 16 nodes.
constexpr double kAirCapacity = 1.4 * kAirPerPeriod / kAirNodes / 0.5;

struct AirSetup {
  engine::Topology topo;
  engine::Cluster cluster{kAirNodes};
  OpCounters c_extract{kAirGroups};
  OpCounters c_sum{kAirGroups};
  std::unique_ptr<albic::MetricsRegistry> registry;
  std::unique_ptr<ops::DelayExtractOperator> extract;
  std::unique_ptr<ops::SumByKeyOperator> sum;
  std::unique_ptr<engine::LocalEngine> engine;
  std::unique_ptr<core::Albic> albic;
  std::unique_ptr<TimedRebalancer> planner;
  std::unique_ptr<core::AdaptationFramework> framework;
  std::unique_ptr<engine::LoadModel> load_model;
  std::unique_ptr<core::ControllerLoop> controller;
  bool ok = false;
};

/// Builds Real Job 2 on \p nodes nodes. With a controller (the measured
/// run) the start is adversarial: no extract group shares a node with its
/// sum partner.
std::unique_ptr<AirSetup> MakeAir(int nodes, bool controller, bool traced,
                                  SpanLog* spans) {
  auto s = std::make_unique<AirSetup>();
  s->cluster = engine::Cluster(nodes);
  s->topo.AddOperator("extract-delay", kAirGroups, 1 << 16);
  s->topo.AddOperator("sum-delay-by-plane", kAirGroups, 1 << 16);
  if (!s->topo.AddStream(0, 1, engine::PartitioningPattern::kOneToOne).ok()) return s;
  engine::Assignment assign(2 * kAirGroups);
  for (int i = 0; i < kAirGroups; ++i) {
    assign.set_node(i, i % nodes);
    assign.set_node(kAirGroups + i, (i + nodes / 2) % nodes);
  }
  if (traced) {
    s->extract = std::make_unique<Probe<ops::DelayExtractOperator>>(&s->c_extract, kAirGroups);
    s->sum = std::make_unique<Probe<ops::SumByKeyOperator>>(
        &s->c_sum, kAirGroups, ops::GroupField::kKey, /*emit_updates=*/false);
  } else {
    s->extract = std::make_unique<ops::DelayExtractOperator>(kAirGroups);
    s->sum = std::make_unique<ops::SumByKeyOperator>(kAirGroups, ops::GroupField::kKey,
                                                     /*emit_updates=*/false);
  }
  engine::LocalEngineOptions eopts;
  eopts.serde_cost = kAirSerde;
  eopts.window_every_us = 0;
  eopts.mode = engine::ExecutionMode::kBatched;
  eopts.num_workers = 1;
  eopts.profile_wave_phases = traced;
  if (traced) {
    s->registry = std::make_unique<albic::MetricsRegistry>();
    eopts.metrics = s->registry.get();
  }
  s->engine = std::make_unique<engine::LocalEngine>(
      &s->topo, &s->cluster, assign,
      std::vector<engine::StreamOperator*>{s->extract.get(), s->sum.get()}, eopts);
  if (controller) {
    core::AlbicOptions aopts;
    aopts.milp.mode = balance::MilpRebalancerOptions::Mode::kHeuristic;
    aopts.milp.time_budget_ms = 20;
    s->albic = std::make_unique<core::Albic>(aopts);
    s->planner = std::make_unique<TimedRebalancer>(s->albic.get(), spans, kAirSerde,
                                                   kAirCapacity);
    core::AdaptationOptions fopts;
    fopts.constraints.max_migrations = 12;
    s->framework = std::make_unique<core::AdaptationFramework>(s->planner.get(),
                                                               nullptr, fopts);
    s->load_model = std::make_unique<engine::LoadModel>(engine::CostModel{});
    core::ControllerLoopOptions copts;
    copts.period_every_us = 0;  // one RunRoundNow per period, as in fig5
    copts.node_capacity_work_units = kAirCapacity;
    copts.use_comm = true;
    s->controller = std::make_unique<core::ControllerLoop>(
        s->engine.get(), s->framework.get(), s->load_model.get(), &s->topo,
        &s->cluster, copts);
  }
  s->ok = true;
  return s;
}

std::vector<double> PlaneSums(const AirSetup& s) {
  std::vector<double> sums(kAirPlanes, 0.0);
  for (int plane = 0; plane < kAirPlanes; ++plane) {
    const int g = engine::LocalEngine::RouteKey(static_cast<uint64_t>(plane), kAirGroups);
    sums[static_cast<size_t>(plane)] = s.sum->SumFor(g, static_cast<uint64_t>(plane));
  }
  return sums;
}

struct Episode {
  double tps = 0.0;
  double ingest_ns = 0.0;
  std::vector<double> latency_ms;
  double load_distance = 0.0;
  double collocation = 0.0;
  int scale_in_periods = -1;
  int migrations = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t scale_in_unfinished = 0;
  int64_t oracle_mismatches = 0;
};


/// One episode's flights and the extract -> sum traffic per period they
/// imply (extract group i feeds sum group i with its delayed flights).
struct AirInput {
  std::vector<Tuple> stream;
  std::vector<std::vector<GroupEdge>> traffic;
};

AirInput MakeAirInput(uint64_t seed) {
  AirInput in;
  albic::workload::AirlineFlightStream flights(kAirPlanes, 30, seed);
  in.stream.reserve(kAirPeriods * kAirPerPeriod);
  for (size_t i = 0; i < kAirPeriods * kAirPerPeriod; ++i) in.stream.push_back(flights.Next());
  in.traffic.resize(kAirPeriods);
  for (size_t p = 0; p < kAirPeriods; ++p) {
    std::vector<double> per_group(kAirGroups, 0.0);
    for (size_t i = p * kAirPerPeriod; i < (p + 1) * kAirPerPeriod; ++i) {
      if (in.stream[i].num > 0.0) {
        per_group[static_cast<size_t>(engine::LocalEngine::RouteKey(in.stream[i].key, kAirGroups))] += 1.0;
      }
    }
    for (int g = 0; g < kAirGroups; ++g) {
      const double n = per_group[static_cast<size_t>(g)];
      if (n > 0) in.traffic[p].push_back({g, kAirGroups + g, n});
    }
  }
  return in;
}

/// Every plane's delay sum over \p stream on one node, one worker, no
/// controller; empty if the run failed.
std::vector<double> AirOracle(const std::vector<Tuple>& stream) {
  constexpr size_t kChunk = 4096;
  std::unique_ptr<AirSetup> o = MakeAir(1, false, false, nullptr);
  if (!o->ok) return {};
  for (size_t i = 0; i < stream.size(); i += kChunk) {
    if (!o->engine->InjectBatch(0, stream.data() + i, std::min(kChunk, stream.size() - i)).ok()) {
      return {};
    }
  }
  o->engine->Flush();
  return PlaneSums(*o);
}

}  // namespace

RunResult RunAirlineScaleIn(const RunConfig& cfg) {
  constexpr size_t kChunk = 4096;
  RunResult result;
  std::vector<Episode> untraced, traced;
  std::vector<double> setup_s;
  SpanLog spans;
  std::unique_ptr<AirSetup> last_traced;
  std::vector<core::ControllerRound> traced_history;
  size_t tuples_per_episode = 0;
  double rss0 = 0.0;
  // Episodes repeat on fresh deployments until the budget is spent; each
  // one gets its own input (seed, episode), generated before it is timed.
  const int64_t t_start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(cfg.seconds) * 1000000000LL;
  for (int ep = 0; NowNs() - t_start < budget_ns || ep < (cfg.trace ? 4 : 2); ++ep) {
    const AirInput input = MakeAirInput(cfg.seed * 1000003ULL + static_cast<uint64_t>(ep));
    const std::vector<Tuple>& stream = input.stream;
    tuples_per_episode = stream.size();
    if (ep == 0) rss0 = MaxRssMb();
    const bool is_traced = cfg.trace && ep % 2 == 1;
    SpanLog* sp = is_traced ? &spans : nullptr;
    const int64_t s0 = NowNs();
    std::unique_ptr<AirSetup> s = MakeAir(kAirNodes, true, is_traced, sp);
    setup_s.push_back(Seconds(NowNs() - s0));
    Episode e;
    if (!s->ok) {
      result.correct = false;
      break;
    }
    std::vector<std::vector<int>> placement;
    int64_t ingest_ns = 0;
    for (int period = 0; period < kAirPeriods; ++period) {
      placement.push_back(Placement(s->engine->assignment()));
      const size_t begin = static_cast<size_t>(period) * kAirPerPeriod;
      for (size_t i = begin; i < begin + kAirPerPeriod; i += kChunk) {
        const size_t n = std::min(kChunk, begin + kAirPerPeriod - i);
        const int64_t t0 = NowNs();
        Status st;
        {
          Span span(sp, "engine.inject");
          st = s->controller->IngestBatch(0, stream.data() + i, n);
        }
        const int64_t t1 = NowNs();
        ingest_ns += t1 - t0;
        e.latency_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
        ++e.attempted;
        if (!st.ok()) ++e.failed;
      }
      if (period == kAirMarkPeriod) {
        for (engine::NodeId n = kAirNodes - 4; n < kAirNodes; ++n) {
          if (!s->cluster.MarkForRemoval(n).ok()) ++e.failed;
        }
      }
      {
        Span round(sp, "core.round");
        if (s->planner != nullptr) s->planner->BeginRound();
        ++e.attempted;
        if (!s->controller->RunRoundNow().ok()) ++e.failed;
      }
      if (period >= kAirMarkPeriod && e.scale_in_periods < 0) {
        int remaining = 0;
        for (engine::NodeId n = kAirNodes - 4; n < kAirNodes; ++n) {
          remaining += s->engine->assignment().count_on(n);
        }
        if (remaining == 0) e.scale_in_periods = period - kAirMarkPeriod + 1;
      }
    }
    s->engine->Flush();
    ++e.attempted;
    if (e.scale_in_periods < 0) {  // scale-in did not finish
      ++e.failed;
      ++e.scale_in_unfinished;
    }
    e.ingest_ns = static_cast<double>(ingest_ns);
    e.tps = static_cast<double>(stream.size()) / Seconds(ingest_ns);
    e.load_distance = LoadDistanceMean(Views(s->controller->history()));
    e.collocation = CollocationPct(input.traffic, placement);
    for (const core::ControllerRound& r : s->controller->history()) e.migrations += r.migrations_applied;
    // Oracle: the same input on one node, one worker, no controller.
    const std::vector<double> got = PlaneSums(*s);
    const std::vector<double> want = AirOracle(stream);
    e.attempted += kAirPlanes;
    for (int plane = 0; plane < kAirPlanes; ++plane) {
      if (want.empty() || got[static_cast<size_t>(plane)] != want[static_cast<size_t>(plane)]) {
        ++e.failed;
        ++e.oracle_mismatches;
      }
    }
    if (is_traced) {
      traced.push_back(std::move(e));
      const auto& h = s->controller->history();
      traced_history.insert(traced_history.end(), h.begin(), h.end());
      last_traced = std::move(s);
    } else {
      untraced.push_back(std::move(e));
    }
  }
  const double mem_mb = MaxRssMb() - rss0;
  std::vector<double> latency, tps, ld, col, scale, migrations, ingest_u, ingest_t;
  int64_t unfinished = 0, mismatches = 0;
  for (std::vector<Episode>* set : {&untraced, &traced}) {
    for (const Episode& e : *set) {
      result.attempted += e.attempted;
      result.failed += e.failed;
      unfinished += e.scale_in_unfinished;
      mismatches += e.oracle_mismatches;
    }
  }
  for (const Episode& e : untraced) {
    latency.insert(latency.end(), e.latency_ms.begin(), e.latency_ms.end());
    tps.push_back(e.tps);
    ld.push_back(e.load_distance);
    col.push_back(e.collocation);
    scale.push_back(e.scale_in_periods);
    migrations.push_back(e.migrations);
    ingest_u.push_back(e.ingest_ns);
  }
  for (const Episode& e : traced) ingest_t.push_back(e.ingest_ns);
  if (result.failed > 0) result.correct = false;
  const Percentile p99 = PercentileWithSupport(latency, 99.0);

  if (!cfg.trace) {
    result.Add("throughput_tps", Median(tps), "tuples/s");
    result.Add("throughput_1w_tps", Median(tps), "tuples/s");
    result.Add("latency_p50_ms", Median(latency), "ms");
    result.Add("latency_p99_ms", p99.value, "ms");
    result.Add("load_distance_mean", Mean(ld), "%");
    result.Add("collocation_pct", Mean(col), "%");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("mem_peak_mb", mem_mb, "MB");
  } else if (last_traced != nullptr) {
    const double src = static_cast<double>(tuples_per_episode * traced.size());
    result.Add("engine.inject_ns_per_tuple",
               static_cast<double>(spans.Get("engine.inject").self_ns) / src, "ns");
    AddRegistryEngineMetrics(&result, last_traced->registry.get(),
                             static_cast<double>(tuples_per_episode));
    AddRoundPhaseShares(&result, traced_history);
    const double src1 = static_cast<double>(tuples_per_episode);
    AddOpMetrics(&result, "geohash", nullptr, src1, false);
    AddOpMetrics(&result, "topk", nullptr, src1, true);
    AddOpMetrics(&result, "global_topk", nullptr, src1, true);
    AddOpMetrics(&result, "extract", &last_traced->c_extract, src1, false);
    AddOpMetrics(&result, "sum", &last_traced->c_sum, src1, false);
    std::vector<uint64_t> keys;
    for (const Tuple& t : MakeAirInput(cfg.seed * 1000003ULL).stream) keys.push_back(t.key);
    AddMicro(&result, RunMicrobench(keys, kAirGroups, 0));
    AddZeros(&result, {{"ckpt.rounds", "count"}, {"ckpt.forced_rounds", "count"},
                       {"ckpt.round_us_mean", "us"}, {"ckpt.bytes_base", "B/round"},
                       {"ckpt.bytes_delta", "B/round"}, {"ckpt.store_put_us", "us"}});
    AddControllerMetrics(&result, last_traced->controller->history(), *last_traced->planner,
                         spans, traced.back().scale_in_periods);
    NoteSpans(&result, spans);
    result.Add("harness.gen_lag_p99_ms", 0.0, "ms");
    result.Add("harness.trace_overhead_pct",
               100.0 * (Median(ingest_t) / std::max(1.0, Median(ingest_u)) - 1.0), "%");
    result.Add("harness.layer_gap_ns_per_tuple", 0.0, "ns");
  }
  result.Note("episodes", static_cast<double>(untraced.size() + traced.size()), "count");
  result.Note("scale_in_periods", Median(scale), "periods");
  result.Note("scale_in_periods_max", scale.empty() ? 0.0 : *std::max_element(scale.begin(), scale.end()), "periods");
  result.Note("scale_in_unfinished", static_cast<double>(unfinished), "episodes");
  result.Note("oracle_mismatches", static_cast<double>(mismatches), "planes");
  result.Note("migrations", Median(migrations), "count");
  result.Note("latency_p99_rank", p99.rank_pct, "pct");
  return result;
}

}  // namespace perfbench
