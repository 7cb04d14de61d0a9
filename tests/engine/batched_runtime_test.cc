// The batched runtime must be a drop-in replacement for the synchronous
// tuple-at-a-time path: with num_workers = 1 it produces identical
// EnginePeriodStats and operator outputs on the Real Job 1 pipeline
// (including across migrations), migrations started while batches are
// staged buffer and drain in arrival order, and multi-worker execution
// reaches the same final state — also with 2–4 workers pipelining waves
// behind ingestion while the schedule reconfigures and checkpoints.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/checkpoint.h"
#include "engine/local_engine.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "tests/engine/reconfig_harness.h"
#include "workload/streams.h"

namespace albic {
namespace {

using engine::ExecutionMode;
using engine::KeyGroupId;
using engine::NodeId;
using engine::Tuple;

constexpr int kNodes = 4;
constexpr int kGroups = 8;

struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 64};
  ops::WindowedTopKOperator global{kGroups, 64, ops::TopKCountMode::kSumNum};
  std::unique_ptr<engine::LocalEngine> engine;

  explicit Pipeline(engine::LocalEngineOptions opts) {
    topo.AddOperator("geohash", kGroups, 1 << 14);
    topo.AddOperator("topk", kGroups, 1 << 14);
    topo.AddOperator("global", kGroups, 1 << 14);
    EXPECT_TRUE(
        topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    EXPECT_TRUE(
        topo.AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    engine::Assignment assign(topo.num_key_groups());
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % kNodes);
    }
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global}, opts);
  }

  /// Runs the wiki edit stream with a rotating migration every 2000 tuples
  /// and returns the final period's statistics.
  engine::EnginePeriodStats RunWiki(int tuples) {
    workload::WikipediaEditStream edits(300, 101, /*rate_per_second=*/400.0);
    for (int i = 0; i < tuples; ++i) {
      EXPECT_TRUE(engine->Inject(0, edits.Next()).ok());
      if (i % 2000 == 1999) {
        const KeyGroupId g =
            static_cast<KeyGroupId>((i / 2000) % topo.num_key_groups());
        const engine::NodeId target =
            (engine->assignment().node_of(g) + 1) % kNodes;
        engine->Flush();  // migrate between batches, as the controller does
        EXPECT_TRUE(engine->MigrateGroup(g, target).ok());
      }
    }
    engine->Flush();
    return engine->HarvestPeriod();
  }

  std::map<uint64_t, int64_t> GlobalCounts() const {
    std::map<uint64_t, int64_t> out;
    for (int g = 0; g < kGroups; ++g) {
      for (const auto& [article, count] : global.last_window_top(g)) {
        out[article] += count;
      }
    }
    return out;
  }
};

void ExpectStatsEqual(const engine::EnginePeriodStats& a,
                      const engine::EnginePeriodStats& b) {
  ASSERT_EQ(a.group_work.size(), b.group_work.size());
  for (size_t g = 0; g < a.group_work.size(); ++g) {
    EXPECT_EQ(a.group_work[g], b.group_work[g]) << "group " << g;
  }
  ASSERT_EQ(a.node_work.size(), b.node_work.size());
  for (size_t n = 0; n < a.node_work.size(); ++n) {
    EXPECT_EQ(a.node_work[n], b.node_work[n]) << "node " << n;
  }
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.tuples_buffered, b.tuples_buffered);
  EXPECT_EQ(a.migration_pause_us, b.migration_pause_us);
  ASSERT_EQ(a.comm.num_groups(), b.comm.num_groups());
  for (KeyGroupId from = 0; from < a.comm.num_groups(); ++from) {
    for (KeyGroupId to = 0; to < a.comm.num_groups(); ++to) {
      EXPECT_EQ(a.comm.Rate(from, to), b.comm.Rate(from, to))
          << "comm " << from << " -> " << to;
    }
  }
}

TEST(BatchedRuntimeTest, SingleWorkerMatchesTupleAtATimeOnWikiPipeline) {
  engine::LocalEngineOptions legacy_opts;
  Pipeline legacy(legacy_opts);

  engine::LocalEngineOptions batched_opts;
  batched_opts.mode = ExecutionMode::kBatched;
  batched_opts.num_workers = 1;
  Pipeline batched(batched_opts);

  constexpr int kTuples = 70000;  // > 2 one-minute windows at 400 tuples/s
  engine::EnginePeriodStats legacy_stats = legacy.RunWiki(kTuples);
  engine::EnginePeriodStats batched_stats = batched.RunWiki(kTuples);

  ExpectStatsEqual(legacy_stats, batched_stats);

  // The job answer must be identical too: same per-window global counts.
  std::map<uint64_t, int64_t> a = legacy.GlobalCounts();
  std::map<uint64_t, int64_t> b = batched.GlobalCounts();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // And the rotating migrations must have landed both engines on the same
  // allocation.
  EXPECT_TRUE(legacy.engine->assignment() == batched.engine->assignment());
}

TEST(BatchedRuntimeTest, MultiWorkerMatchesSingleWorker) {
  engine::LocalEngineOptions one;
  one.mode = ExecutionMode::kBatched;
  one.num_workers = 1;
  Pipeline single(one);
  constexpr int kTuples = 30000;
  const engine::EnginePeriodStats s1 = single.RunWiki(kTuples);

  // Two workers pipeline on one drain thread; three and four split the
  // nodes over two and three.
  for (int workers = 2; workers <= 4; ++workers) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    engine::LocalEngineOptions multi_opts;
    multi_opts.mode = ExecutionMode::kBatched;
    multi_opts.num_workers = workers;
    Pipeline multi(multi_opts);
    const engine::EnginePeriodStats sw = multi.RunWiki(kTuples);
    // All work/serde constants in this job are exactly representable, so
    // the sums must agree exactly regardless of the merge order.
    ExpectStatsEqual(s1, sw);
    EXPECT_EQ(single.GlobalCounts(), multi.GlobalCounts());
  }
}

/// Sums the counters ExpectStatsEqual compares across harvested periods.
void Accumulate(engine::EnginePeriodStats* into,
                const engine::EnginePeriodStats& from) {
  into->tuples_processed += from.tuples_processed;
  for (size_t g = 0; g < from.group_work.size(); ++g) {
    if (into->group_work.size() < from.group_work.size()) {
      into->group_work.resize(from.group_work.size(), 0.0);
    }
    into->group_work[g] += from.group_work[g];
  }
}

TEST(BatchedRuntimeTest, PipelinedWavesMatchOracleUnderReconfiguration) {
  // Multi-worker waves run while InjectBatch returns; every quiescence
  // point must join them correctly. The schedule calls HarvestPeriod,
  // StartMigration (lease, epoch, direct) and FailNode right after an
  // InjectBatch with no Flush, with checkpointing and delta chains on,
  // over chunks that cross window boundaries mid-chunk. Per-window output
  // at every harvest, and final state, must match a 1-node, 1-worker,
  // no-reconfiguration oracle fed the same chunks bit for bit.
  using testing::ReconfigOptions;
  using testing::ReconfigPipeline;
  constexpr int64_t kWindowUs = 500LL * 1000;  // ~1000 tuples per window
  const std::vector<Tuple> stream =
      testing::MakeWikiStream(24000, /*articles=*/250, /*seed=*/303);
  const size_t chunk_sizes[] = {1500, 777, 2100, 333, 1024};

  for (int workers = 2; workers <= 4; ++workers) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ReconfigOptions oracle_opts;
    oracle_opts.nodes = 1;
    oracle_opts.window_every_us = kWindowUs;
    ReconfigPipeline oracle(oracle_opts);

    ReconfigOptions run_opts;
    run_opts.nodes = 6;
    run_opts.window_every_us = kWindowUs;
    run_opts.num_workers = workers;
    run_opts.max_batch_tuples = 256;  // several launches per chunk
    ReconfigPipeline run(run_opts);
    engine::CheckpointCoordinatorOptions copts;
    copts.interval_us = 300LL * 1000;
    copts.max_delta_chain = 3;
    run.EnableCheckpointing(copts);

    engine::EnginePeriodStats oracle_sum, run_sum;
    KeyGroupId open_group = -1;  // lease/epoch move left open across a chunk
    int harvests = 0, kills = 0, moves = 0;
    size_t offset = 0;
    for (int step = 0; offset < stream.size(); ++step) {
      const size_t n = std::min(chunk_sizes[step % 5], stream.size() - offset);
      ASSERT_TRUE(oracle.engine->InjectBatch(0, stream.data() + offset, n).ok());
      ASSERT_TRUE(run.engine->InjectBatch(0, stream.data() + offset, n).ok());
      offset += n;
      // Right after the ingest call, with a wave possibly in flight:
      if (open_group >= 0) {
        ASSERT_TRUE(run.engine->FinishMigration(open_group).ok());
        open_group = -1;
      }
      const KeyGroupId g =
          static_cast<KeyGroupId>((step * 5) % run.topo.num_key_groups());
      NodeId to = (run.engine->assignment().node_of(g) + 1) % run_opts.nodes;
      while (!run.cluster.is_active(to)) to = (to + 1) % run_opts.nodes;
      switch (step % 6) {
        case 0:
        case 1: {
          // Zero-pause modes stay open across the next chunk's window fires.
          const engine::MigrationMode mode = step % 6 == 0
                                                 ? engine::MigrationMode::kLease
                                                 : engine::MigrationMode::kEpoch;
          ASSERT_TRUE(run.engine->StartMigration(g, to, mode).ok());
          open_group = g;
          ++moves;
          break;
        }
        case 2:
          // Buffering moves finish before the next chunk can fire a window.
          ASSERT_TRUE(run.engine->MigrateGroup(g, to).ok());
          ++moves;
          break;
        case 3:
          Accumulate(&oracle_sum, oracle.engine->HarvestPeriod());
          Accumulate(&run_sum, run.engine->HarvestPeriod());
          EXPECT_EQ(run.GlobalCounts(), oracle.GlobalCounts())
              << "window output at offset " << offset;
          ++harvests;
          break;
        case 4:
          if (run.cluster.num_active() > 3) {
            NodeId victim = static_cast<NodeId>(step % run_opts.nodes);
            while (!run.cluster.is_active(victim)) {
              victim = (victim + 1) % run_opts.nodes;
            }
            ASSERT_TRUE(run.engine->FailNode(victim).ok());
            ASSERT_TRUE(run.cluster.Fail(victim).ok());
            NodeId target = 0;
            while (!run.cluster.is_active(target)) ++target;
            const std::vector<KeyGroupId> lost = run.engine->lost_groups();
            for (const KeyGroupId lg : lost) {
              ASSERT_TRUE(run.engine->RecoverGroup(lg, target).ok());
            }
            ++kills;
          }
          break;
        default:
          break;  // plain ingestion: the wave stays in flight
      }
    }
    if (open_group >= 0) {
      ASSERT_TRUE(run.engine->FinishMigration(open_group).ok());
    }
    oracle.engine->Flush();
    run.engine->Flush();
    Accumulate(&oracle_sum, oracle.engine->HarvestPeriod());
    Accumulate(&run_sum, run.engine->HarvestPeriod());
    EXPECT_GT(harvests, 2);
    EXPECT_GT(kills, 0);
    EXPECT_GT(moves, 4);
    testing::ExpectSameOutputs(&run, &oracle,
                               "workers " + std::to_string(workers));
    EXPECT_EQ(run_sum.tuples_processed, oracle_sum.tuples_processed);
    EXPECT_EQ(run_sum.group_work, oracle_sum.group_work);
  }
}

TEST(BatchedRuntimeTest, InjectBatchMatchesPerTupleInject) {
  engine::LocalEngineOptions legacy_opts;
  Pipeline legacy(legacy_opts);

  engine::LocalEngineOptions batched_opts;
  batched_opts.mode = ExecutionMode::kBatched;
  batched_opts.num_workers = 1;
  Pipeline batched(batched_opts);

  // Same stream, ingested per tuple on the legacy engine and in arbitrary
  // chunk sizes on the batched one.
  constexpr int kTuples = 50000;
  workload::WikipediaEditStream edits(300, 101, /*rate_per_second=*/400.0);
  std::vector<Tuple> stream;
  stream.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i) stream.push_back(edits.Next());

  for (const Tuple& t : stream) ASSERT_TRUE(legacy.engine->Inject(0, t).ok());
  size_t offset = 0;
  const size_t chunks[] = {1, 7, 1000, 40000, 8992};
  for (size_t chunk : chunks) {
    ASSERT_TRUE(
        batched.engine->InjectBatch(0, stream.data() + offset, chunk).ok());
    offset += chunk;
  }
  ASSERT_EQ(offset, stream.size());

  legacy.engine->Flush();
  batched.engine->Flush();
  ExpectStatsEqual(legacy.engine->HarvestPeriod(),
                   batched.engine->HarvestPeriod());
  EXPECT_EQ(legacy.GlobalCounts(), batched.GlobalCounts());
}

/// Records the order in which tuples reach each group (via tuple.num).
class RecordingOperator : public engine::StreamOperator {
 public:
  explicit RecordingOperator(int num_groups) : seen_(num_groups) {}

  void Process(const Tuple& tuple, int group_index,
               engine::Emitter* out) override {
    (void)out;
    seen_[group_index].push_back(tuple.num);
  }

  const std::vector<double>& seen(int group_index) const {
    return seen_[group_index];
  }

 private:
  std::vector<std::vector<double>> seen_;
};

TEST(BatchedRuntimeTest, MigrationMidBatchBuffersAndDrainsInOrder) {
  engine::Topology topo;
  topo.AddOperator("rec", 4, 1 << 10);
  engine::Cluster cluster(2);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 2);
  }
  RecordingOperator rec(4);
  engine::LocalEngineOptions opts;
  opts.mode = ExecutionMode::kBatched;
  opts.max_batch_tuples = 1024;  // nothing auto-drains during the test
  opts.window_every_us = 0;
  engine::LocalEngine eng(&topo, &cluster, assign,
                          std::vector<engine::StreamOperator*>{&rec}, opts);

  // A key that lands in group 0.
  uint64_t key = 0;
  while (engine::LocalEngine::RouteKey(key, 4) != 0) ++key;
  const KeyGroupId group = 0;

  auto inject = [&](double seq) {
    Tuple t;
    t.key = key;
    t.num = seq;
    ASSERT_TRUE(eng.Inject(0, t).ok());
  };

  // Tuples 1-5 are staged, then the group starts migrating: the flush must
  // buffer them at the target instead of processing.
  for (int i = 1; i <= 5; ++i) inject(i);
  ASSERT_TRUE(eng.StartMigration(group, 1).ok());
  eng.Flush();
  EXPECT_TRUE(rec.seen(group).empty());

  // More arrive while the state is in flight.
  for (int i = 6; i <= 7; ++i) inject(i);

  // FinishMigration drains the buffer, then the staged tuples, in order.
  auto pause = eng.FinishMigration(group);
  ASSERT_TRUE(pause.ok());
  eng.Flush();
  EXPECT_EQ(eng.assignment().node_of(group), 1);
  EXPECT_EQ(rec.seen(group),
            (std::vector<double>{1, 2, 3, 4, 5, 6, 7}));

  engine::EnginePeriodStats stats = eng.HarvestPeriod();
  EXPECT_EQ(stats.tuples_processed, 7);
  EXPECT_EQ(stats.tuples_buffered, 5);
}

TEST(BatchedRuntimeTest, MixedIngestKeepsGroupOrderAcrossPipelinedWaves) {
  // Inject and InjectBatch interleaved on a multi-worker engine whose
  // waves launch every few tuples and are never flushed in between: each
  // group must still see its tuples in arrival order.
  engine::Topology topo;
  topo.AddOperator("rec", 2, 1 << 10);
  engine::Cluster cluster(2);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 2);
  }
  RecordingOperator rec(2);
  engine::LocalEngineOptions opts;
  opts.mode = ExecutionMode::kBatched;
  opts.num_workers = 3;
  opts.max_batch_tuples = 5;
  opts.window_every_us = 0;
  engine::LocalEngine eng(&topo, &cluster, assign,
                          std::vector<engine::StreamOperator*>{&rec}, opts);

  std::vector<Tuple> stream(200);
  std::vector<double> expected[2];
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].key = i % 7;
    stream[i].num = static_cast<double>(i);
    expected[engine::LocalEngine::RouteKey(stream[i].key, 2)].push_back(
        static_cast<double>(i));
  }
  size_t i = 0;
  for (size_t step = 0; i < stream.size(); ++step) {
    if (step % 2 == 0) {
      ASSERT_TRUE(eng.Inject(0, stream[i++]).ok());
    } else {
      const size_t n = std::min<size_t>(1 + step % 9, stream.size() - i);
      ASSERT_TRUE(eng.InjectBatch(0, stream.data() + i, n).ok());
      i += n;
    }
  }
  eng.Flush();
  EXPECT_EQ(rec.seen(0), expected[0]);
  EXPECT_EQ(rec.seen(1), expected[1]);
}

TEST(BatchedRuntimeTest, AutoDrainTriggersAtBatchLimit) {
  engine::Topology topo;
  topo.AddOperator("rec", 2, 1 << 10);
  engine::Cluster cluster(1);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) assign.set_node(g, 0);
  RecordingOperator rec(2);
  engine::LocalEngineOptions opts;
  opts.mode = ExecutionMode::kBatched;
  opts.max_batch_tuples = 8;
  opts.window_every_us = 0;
  engine::LocalEngine eng(&topo, &cluster, assign,
                          std::vector<engine::StreamOperator*>{&rec}, opts);

  for (int i = 0; i < 8; ++i) {
    Tuple t;
    t.key = static_cast<uint64_t>(i);
    t.num = i;
    ASSERT_TRUE(eng.Inject(0, t).ok());
  }
  // The eighth tuple hit the batch limit: everything processed, no Flush.
  EXPECT_EQ(rec.seen(0).size() + rec.seen(1).size(), 8u);
}

}  // namespace
}  // namespace albic
