#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/linear_scan.h"
#include "index/packed_codes.h"
#include "io/serialize.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/serve_stats.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace uhscm::serve {
namespace {

using index::LinearScanIndex;
using index::Neighbor;
using index::PackedCodes;
using linalg::Matrix;
using uhscm::testing::RandomSignCodes;

void ExpectSameNeighbors(const std::vector<Neighbor>& expect,
                         const std::vector<Neighbor>& got) {
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].id, got[i].id) << "rank " << i;
    EXPECT_EQ(expect[i].distance, got[i].distance) << "rank " << i;
  }
}

/// Shard-count sweep: sharded top-k must be byte-identical to a single
/// LinearScan over the unsharded corpus.
class ShardedIndexSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShardedIndexSweep, MatchesLinearScanGroundTruth) {
  const int num_shards = GetParam();
  Rng rng(100 + num_shards);
  const int n = 300, bits = 64, k = 10;
  Matrix db = RandomSignCodes(n, bits, &rng);
  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));

  ShardedIndexOptions options;
  options.num_shards = num_shards;
  ShardedIndex sharded(PackedCodes::FromSignMatrix(db), options);
  EXPECT_EQ(sharded.size(), n);
  EXPECT_LE(sharded.num_shards(), num_shards);

  for (int q = 0; q < 20; ++q) {
    Matrix query = RandomSignCodes(1, bits, &rng);
    PackedCodes pq = PackedCodes::FromSignMatrix(query);
    ExpectSameNeighbors(truth.TopK(pq.code(0), k),
                        sharded.TopK(pq.code(0), k));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ShardedIndexSweep,
                         ::testing::Values(1, 2, 3, 7, 16));

TEST(ShardedIndexTest, ShardCountClampedToCorpusSize) {
  Rng rng(7);
  Matrix db = RandomSignCodes(5, 32, &rng);
  ShardedIndexOptions options;
  options.num_shards = 64;
  ShardedIndex sharded(PackedCodes::FromSignMatrix(db), options);
  EXPECT_EQ(sharded.num_shards(), 5);
  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));
  Matrix query = RandomSignCodes(1, 32, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  ExpectSameNeighbors(truth.TopK(pq.code(0), 3), sharded.TopK(pq.code(0), 3));
}

TEST(ShardedIndexTest, KLargerThanCorpusReturnsWholeCorpus) {
  Rng rng(8);
  Matrix db = RandomSignCodes(50, 64, &rng);
  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));
  ShardedIndexOptions options;
  options.num_shards = 4;
  ShardedIndex sharded(PackedCodes::FromSignMatrix(db), options);
  Matrix query = RandomSignCodes(1, 64, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  const auto got = sharded.TopK(pq.code(0), 1000);
  ASSERT_EQ(got.size(), 50u);
  ExpectSameNeighbors(truth.TopK(pq.code(0), 1000), got);
}

TEST(ShardedIndexTest, ShardTopKBatchMatchesPerQueryShardTopK) {
  // The batched per-shard entry point (the SIMD cache-blocked scan) must
  // be byte-identical to the per-query path, global ids included.
  Rng rng(456);
  const int n = 350, bits = 128, k = 12;
  Matrix db = RandomSignCodes(n, bits, &rng);
  PackedCodes queries = PackedCodes::FromSignMatrix(RandomSignCodes(7, bits, &rng));

  ShardedIndexOptions options;
  options.num_shards = 3;
  ShardedIndex sharded(PackedCodes::FromSignMatrix(db), options);

  std::vector<const uint64_t*> qptrs;
  for (int q = 0; q < queries.size(); ++q) qptrs.push_back(queries.code(q));
  for (int s = 0; s < sharded.num_shards(); ++s) {
    const auto batched = sharded.ShardTopKBatch(
        s, qptrs.data(), static_cast<int>(qptrs.size()), k);
    ASSERT_EQ(batched.size(), qptrs.size());
    for (int q = 0; q < queries.size(); ++q) {
      ExpectSameNeighbors(sharded.ShardTopK(s, queries.code(q), k),
                          batched[static_cast<size_t>(q)]);
    }
  }
}

TEST(QueryEngineTest, MissBlockSizesAllMatchGroundTruth) {
  // The engine groups cache misses into miss_block-sized batch-scan
  // units; every grouping must produce identical results.
  Rng rng(457);
  const int n = 400, bits = 64, k = 9;
  Matrix db = RandomSignCodes(n, bits, &rng);
  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));
  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(33, bits, &rng));

  for (int miss_block : {1, 4, 16, 64}) {
    ShardedIndexOptions index_options;
    index_options.num_shards = 4;
    QueryEngineOptions engine_options;
    engine_options.num_threads = 2;
    engine_options.cache_capacity = 0;
    engine_options.miss_block = miss_block;
    QueryEngine engine(std::make_unique<ShardedIndex>(
                           PackedCodes::FromSignMatrix(db), index_options),
                       engine_options);
    const auto results = engine.Search(queries, k);
    ASSERT_EQ(results.size(), 33u);
    for (int q = 0; q < queries.size(); ++q) {
      ExpectSameNeighbors(truth.TopK(queries.code(q), k),
                          results[static_cast<size_t>(q)]);
    }
  }
}

TEST(ShardedIndexTest, MergeTopKHandlesEmptyLists) {
  std::vector<std::vector<Neighbor>> per_shard(3);
  per_shard[1] = {{4, 1}, {9, 3}};
  const auto merged = ShardedIndex::MergeTopK(per_shard, 5);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].id, 4);
  EXPECT_EQ(merged[1].id, 9);
  EXPECT_TRUE(ShardedIndex::MergeTopK({}, 5).empty());
}

TEST(QueryEngineTest, BatchedSearchMatchesGroundTruth) {
  Rng rng(21);
  const int n = 400, bits = 96, k = 7;
  Matrix db = RandomSignCodes(n, bits, &rng);
  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));

  ServingSnapshotOptions options;
  options.index.num_shards = 4;
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), options);

  Matrix queries = RandomSignCodes(25, bits, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(queries);
  const auto batched = engine->Search(pq, k);
  ASSERT_EQ(batched.size(), 25u);
  for (int q = 0; q < 25; ++q) {
    ExpectSameNeighbors(truth.TopK(pq.code(q), k),
                        batched[static_cast<size_t>(q)]);
  }
}

TEST(QueryEngineTest, CacheHitsReturnIdenticalNeighbors) {
  Rng rng(22);
  const int bits = 64, k = 5;
  Matrix db = RandomSignCodes(200, bits, &rng);
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), {});

  Matrix queries = RandomSignCodes(10, bits, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(queries);
  const auto first = engine->Search(pq, k);
  const auto second = engine->Search(pq, k);

  const ServeStatsSnapshot stats = engine->stats();
  EXPECT_EQ(stats.queries, 20);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.cache_misses, 10);
  EXPECT_EQ(stats.cache_hits, 10);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(engine->cache_size(), 10u);
  for (size_t q = 0; q < first.size(); ++q) {
    ExpectSameNeighbors(first[q], second[q]);
  }
}

TEST(QueryEngineTest, DifferentKIsADistinctCacheEntry) {
  Rng rng(23);
  Matrix db = RandomSignCodes(100, 32, &rng);
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), {});
  Matrix query = RandomSignCodes(1, 32, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  EXPECT_EQ(engine->Search(pq, 3)[0].size(), 3u);
  EXPECT_EQ(engine->Search(pq, 8)[0].size(), 8u);
  EXPECT_EQ(engine->stats().cache_hits, 0);
  EXPECT_EQ(engine->cache_size(), 2u);
}

TEST(QueryEngineTest, DisabledCacheStaysExact) {
  Rng rng(24);
  Matrix db = RandomSignCodes(150, 64, &rng);
  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));
  ServingSnapshotOptions options;
  options.engine.cache_capacity = 0;
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), options);

  Matrix queries = RandomSignCodes(5, 64, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(queries);
  engine->Search(pq, 4);
  const auto again = engine->Search(pq, 4);
  EXPECT_EQ(engine->stats().cache_hits, 0);
  EXPECT_EQ(engine->cache_size(), 0u);
  for (int q = 0; q < 5; ++q) {
    ExpectSameNeighbors(truth.TopK(pq.code(q), 4),
                        again[static_cast<size_t>(q)]);
  }
}

TEST(ResultCacheTest, LruEvictsOldestEntry) {
  ResultCache cache(2);
  CacheKey a{{1}, 5}, b{{2}, 5}, c{{3}, 5};
  cache.Insert(a, {{0, 0}});
  cache.Insert(b, {{1, 1}});
  std::vector<Neighbor> out;
  ASSERT_TRUE(cache.Lookup(a, &out));  // refresh a; b is now the LRU
  cache.Insert(c, {{2, 2}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(a, &out));
  EXPECT_FALSE(cache.Lookup(b, &out));
  EXPECT_TRUE(cache.Lookup(c, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2);
}

TEST(QueryEngineTest, ConcurrentSearchesAreRaceFreeAndExact) {
  Rng rng(31);
  const int n = 500, bits = 64, k = 9;
  Matrix db = RandomSignCodes(n, bits, &rng);
  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));

  ServingSnapshotOptions options;
  options.index.num_shards = 8;
  options.engine.cache_capacity = 32;  // small: force hits AND evictions
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), options);

  // A shared query set so threads collide on the same cache keys.
  Matrix queries = RandomSignCodes(40, bits, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(queries);
  std::vector<std::vector<Neighbor>> expected;
  for (int q = 0; q < pq.size(); ++q) {
    expected.push_back(truth.TopK(pq.code(q), k));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const auto results = engine->Search(pq, k);
        for (size_t q = 0; q < results.size(); ++q) {
          if (results[q].size() != expected[q].size()) {
            ++failures[t];
            continue;
          }
          for (size_t i = 0; i < results[q].size(); ++i) {
            if (results[q][i].id != expected[q][i].id ||
                results[q][i].distance != expected[q][i].distance) {
              ++failures[t];
              break;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t << " saw wrong results";
  }
  const ServeStatsSnapshot stats = engine->stats();
  EXPECT_EQ(stats.queries, int64_t{kThreads} * kRounds * pq.size());
  EXPECT_EQ(stats.batches, int64_t{kThreads} * kRounds);
}

TEST(ServeStatsTest, PercentilesAndThroughput) {
  ServeStats stats;
  // 100 queries at 10ms plus one slow 100ms batch.
  for (int i = 0; i < 100; ++i) stats.RecordBatch(1, 0.010);
  stats.RecordBatch(1, 0.100);
  const ServeStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, 101);
  // Percentiles come from the log-linear histogram: exact to within one
  // bucket, i.e. ~3.1% relative resolution.
  EXPECT_NEAR(snap.latency_p50_ms, 10.0, 10.0 * 0.032);
  EXPECT_NEAR(snap.latency_p99_ms, 10.0, 10.0 * 0.032);
  EXPECT_NEAR(snap.busy_seconds, 1.1, 1e-9);
  // busy_qps keeps the per-query-service-cost semantics; qps() divides
  // by wall-clock time, which a unit test cannot pin to a constant.
  EXPECT_NEAR(snap.busy_qps(), 101 / 1.1, 1e-6);
  EXPECT_GT(snap.wall_seconds, 0.0);
  EXPECT_GT(snap.qps(), 0.0);
  EXPECT_GT(snap.utilization(), 0.0);
  stats.Reset();
  EXPECT_EQ(stats.Snapshot().queries, 0);
}

TEST(ServeStatsTest, PercentileNearestRank) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 0), 1.0);
}

TEST(SnapshotTest, LoadQueryEngineRoundTrip) {
  Rng rng(41);
  const int bits = 64, k = 6;
  Matrix db = RandomSignCodes(120, bits, &rng);
  PackedCodes packed = PackedCodes::FromSignMatrix(db);
  const std::string path = ::testing::TempDir() + "/serve_codes.bin";
  ASSERT_TRUE(io::SavePackedCodes(packed, path).ok());

  ServingSnapshotOptions options;
  options.index.num_shards = 3;
  Result<std::unique_ptr<QueryEngine>> engine =
      LoadQueryEngine(path, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->index().size(), 120);
  EXPECT_EQ((*engine)->index().num_shards(), 3);

  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));
  Matrix query = RandomSignCodes(1, bits, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  ExpectSameNeighbors(truth.TopK(pq.code(0), k),
                      (*engine)->SearchOne(pq.code(0), k));
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileFailsLoudly) {
  Result<std::unique_ptr<QueryEngine>> engine =
      LoadQueryEngine(::testing::TempDir() + "/no-such-codes.bin");
  EXPECT_FALSE(engine.ok());
}

// ---------------------------------------------------------------------
// Mutable corpus: appends, tombstone deletes, epoch-keyed caching, and
// versioned snapshots.

/// Reference model for the interleaving test: every code ever added with
/// its stable global id and live flag.
struct RefCorpus {
  std::vector<std::vector<uint64_t>> rows;  // indexed by global id
  std::vector<bool> live;
  int bits = 0;

  /// Survivors in global-id order, plus the gid -> compacted-rank map.
  PackedCodes Survivors(std::vector<int>* rank_of_gid) const {
    std::vector<uint64_t> words;
    rank_of_gid->assign(rows.size(), -1);
    int rank = 0;
    for (size_t gid = 0; gid < rows.size(); ++gid) {
      if (!live[gid]) continue;
      words.insert(words.end(), rows[gid].begin(), rows[gid].end());
      (*rank_of_gid)[gid] = rank++;
    }
    return PackedCodes::FromRawWords(rank, bits, std::move(words));
  }
};

/// The acceptance invariant: after any interleaving of Append/Remove,
/// engine results are byte-identical — after compacting stable ids by
/// survivor rank — to a freshly built engine over the surviving rows,
/// whether one shard or several take the appends.
class RandomInterleavingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomInterleavingSweep, MatchesFreshRebuildAtEveryCheckpoint) {
  Rng rng(777);
  const int bits = 64, k = 10;
  Matrix base = RandomSignCodes(120, bits, &rng);
  RefCorpus ref;
  ref.bits = bits;
  {
    PackedCodes packed = PackedCodes::FromSignMatrix(base);
    for (int i = 0; i < packed.size(); ++i) {
      ref.rows.emplace_back(packed.code(i),
                            packed.code(i) + packed.words_per_code());
      ref.live.push_back(true);
    }
  }

  ServingSnapshotOptions options;
  options.index.num_shards = GetParam();
  options.engine.num_threads = 2;
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(base), options);

  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(12, bits, &rng));

  int live_count = 120;
  for (int step = 0; step < 60; ++step) {
    if (rng.Bernoulli(0.5)) {
      // Append 1..6 fresh codes.
      const int count = 1 + static_cast<int>(rng.UniformInt(6));
      PackedCodes batch =
          PackedCodes::FromSignMatrix(RandomSignCodes(count, bits, &rng));
      const std::vector<int> ids = engine->Append(batch);
      ASSERT_EQ(ids.size(), static_cast<size_t>(count));
      for (int i = 0; i < count; ++i) {
        ASSERT_EQ(ids[static_cast<size_t>(i)],
                  static_cast<int>(ref.rows.size()))
            << "global ids must be assigned consecutively";
        ref.rows.emplace_back(batch.code(i),
                              batch.code(i) + batch.words_per_code());
        ref.live.push_back(true);
      }
      live_count += count;
    } else if (live_count > 20) {
      // Remove a random live global id.
      int gid;
      do {
        gid = static_cast<int>(rng.UniformInt(ref.rows.size()));
      } while (!ref.live[static_cast<size_t>(gid)]);
      ASSERT_TRUE(engine->Remove(gid));
      ref.live[static_cast<size_t>(gid)] = false;
      --live_count;
    }

    if (step % 10 != 9) continue;
    // Checkpoint: engine vs fresh rebuild over the survivors.
    std::vector<int> rank_of_gid;
    LinearScanIndex truth(ref.Survivors(&rank_of_gid));
    ASSERT_EQ(truth.total_size(), engine->index().size());
    const auto batched = engine->Search(queries, k);
    for (int q = 0; q < queries.size(); ++q) {
      const auto expect = truth.TopK(queries.code(q), k);
      const auto& got = batched[static_cast<size_t>(q)];
      ASSERT_EQ(expect.size(), got.size()) << "step " << step;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_LT(static_cast<size_t>(got[i].id), rank_of_gid.size());
        EXPECT_EQ(expect[i].id, rank_of_gid[static_cast<size_t>(got[i].id)])
            << "step " << step << " query " << q << " rank " << i;
        EXPECT_EQ(expect[i].distance, got[i].distance);
      }
    }
  }
  EXPECT_EQ(engine->stats().epoch, engine->epoch());
  EXPECT_GT(engine->epoch(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, RandomInterleavingSweep,
                         ::testing::Values(1, 3));

TEST(MutableEngineTest, PreUpdateCacheEntryNeverServedPostUpdate) {
  Rng rng(801);
  const int bits = 64, k = 5;
  Matrix db = RandomSignCodes(100, bits, &rng);
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), {});

  PackedCodes pq = PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const auto before = engine->Search(pq, k);

  // Append the query itself: post-update, the distance-0 hit must lead.
  engine->Append(PackedCodes::FromRawWords(
      1, bits, std::vector<uint64_t>(pq.code(0), pq.code(0) + pq.words_per_code())));
  const auto after = engine->Search(pq, k);
  ASSERT_EQ(after[0].size(), static_cast<size_t>(k));
  EXPECT_EQ(after[0][0].id, 100);
  EXPECT_EQ(after[0][0].distance, 0);
  // Both computations were cache misses — the epoch key made the
  // pre-update entry unreachable.
  EXPECT_EQ(engine->stats().cache_hits, 0);
  EXPECT_EQ(engine->stats().cache_misses, 2);

  // Removing the appended row restores the original ranking (new epoch,
  // fresh entry again).
  ASSERT_TRUE(engine->Remove(100));
  const auto restored = engine->Search(pq, k);
  ASSERT_EQ(restored[0].size(), before[0].size());
  for (size_t i = 0; i < restored[0].size(); ++i) {
    EXPECT_EQ(restored[0][i].id, before[0][i].id);
    EXPECT_EQ(restored[0][i].distance, before[0][i].distance);
  }
  EXPECT_EQ(engine->stats().cache_hits, 0);
  EXPECT_EQ(engine->epoch(), 2u);
  const ServeStatsSnapshot stats = engine->stats();
  EXPECT_EQ(stats.appends, 1);
  EXPECT_EQ(stats.removes, 1);
}

TEST(MutableEngineTest, AppendRoutesToLeastFullShardAndRemapsIds) {
  Rng rng(802);
  const int bits = 32;
  ShardedIndexOptions options;
  options.num_shards = 4;
  ShardedIndex index(PackedCodes::FromSignMatrix(RandomSignCodes(40, bits, &rng)),
                     options);
  // Drain shard 2 (global ids 20..29), then append: the fresh rows must
  // land in shard 2 with brand-new global ids.
  for (int gid = 20; gid < 30; ++gid) ASSERT_TRUE(index.Remove(gid));
  EXPECT_EQ(index.size(), 30);
  PackedCodes batch =
      PackedCodes::FromSignMatrix(RandomSignCodes(5, bits, &rng));
  const std::vector<int> ids = index.Append(batch);
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids.front(), 40);
  EXPECT_EQ(ids.back(), 44);
  EXPECT_EQ(index.size(), 35);
  EXPECT_EQ(index.total_size(), 45);

  // The appended codes are retrievable under their new global ids.
  for (int i = 0; i < batch.size(); ++i) {
    const auto top = index.TopK(batch.code(i), 1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].distance, 0);
  }
}

TEST(ResultCacheTest, CountersTrackHitsMissesEvictions) {
  ResultCache cache(2);
  CacheKey a{{1}, 5, 0}, b{{2}, 5, 0}, c{{3}, 5, 0};
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(a, &out));
  cache.Insert(a, {{0, 0}});
  cache.Insert(b, {{1, 1}});
  EXPECT_TRUE(cache.Lookup(a, &out));
  cache.Insert(c, {{2, 2}});  // evicts b
  EXPECT_FALSE(cache.Lookup(b, &out));
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 1);
  cache.ResetStats();
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(ResultCacheTest, SameQueryDifferentEpochIsADistinctEntry) {
  ResultCache cache(8);
  CacheKey old_epoch{{42}, 3, 0}, new_epoch{{42}, 3, 1};
  cache.Insert(old_epoch, {{7, 1}});
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(new_epoch, &out));
  EXPECT_TRUE(cache.Lookup(old_epoch, &out));
}

TEST(MutableEngineTest, EvictionCounterSurfacesThroughServeStats) {
  Rng rng(803);
  const int bits = 64, k = 3;
  Matrix db = RandomSignCodes(80, bits, &rng);
  ServingSnapshotOptions options;
  options.engine.cache_capacity = 4;
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), options);
  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(10, bits, &rng));
  engine->Search(queries, k);  // 10 inserts into a 4-entry cache
  EXPECT_EQ(engine->stats().cache_evictions, 6);
  engine->ResetStats();
  EXPECT_EQ(engine->stats().cache_evictions, 0);
}

TEST(SnapshotTest, V2RoundTripPreservesIdsEpochAndResults) {
  Rng rng(804);
  const int bits = 64, k = 8;
  Matrix db = RandomSignCodes(90, bits, &rng);
  ServingSnapshotOptions options;
  options.index.num_shards = 3;
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), options);

  engine->Append(PackedCodes::FromSignMatrix(RandomSignCodes(25, bits, &rng)));
  engine->RemoveIds({0, 17, 89, 95, 114});
  const uint64_t epoch = engine->epoch();
  ASSERT_EQ(epoch, 2u);

  const std::string path = ::testing::TempDir() + "/mutated_snapshot.bin";
  ASSERT_TRUE(SaveServingSnapshot(*engine, path).ok());

  // Reload with a *different* shard count: global ids, epoch, and
  // results must be preserved regardless of partitioning.
  ServingSnapshotOptions reload_options;
  reload_options.index.num_shards = 5;
  Result<std::unique_ptr<QueryEngine>> reloaded =
      LoadQueryEngine(path, reload_options);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->epoch(), epoch);
  EXPECT_EQ((*reloaded)->index().size(), engine->index().size());
  EXPECT_EQ((*reloaded)->index().total_size(), engine->index().total_size());

  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(15, bits, &rng));
  const auto expect = engine->Search(queries, k);
  const auto got = (*reloaded)->Search(queries, k);
  for (int q = 0; q < queries.size(); ++q) {
    ExpectSameNeighbors(expect[static_cast<size_t>(q)],
                        got[static_cast<size_t>(q)]);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Tombstone compaction: dead rows leave the shards, global ids and
// results stay byte-identical, and the locator keeps resolving.

TEST(CompactionTest, CompactionIsInvisibleToQueries) {
  Rng rng(900);
  const int bits = 64, k = 10;
  ShardedIndexOptions options;
  options.num_shards = 3;
  ShardedIndex index(PackedCodes::FromSignMatrix(RandomSignCodes(150, bits, &rng)),
                     options);
  index.Append(PackedCodes::FromSignMatrix(RandomSignCodes(30, bits, &rng)));
  std::vector<int> doomed;
  for (int gid = 0; gid < 180; gid += 3) doomed.push_back(gid);
  ASSERT_EQ(index.RemoveIds(doomed), static_cast<int>(doomed.size()));

  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(15, bits, &rng));
  std::vector<std::vector<Neighbor>> before;
  for (int q = 0; q < queries.size(); ++q) {
    before.push_back(index.TopK(queries.code(q), k));
  }

  const CompactionStats stats = index.CompactAll();
  EXPECT_EQ(stats.rows_reclaimed, static_cast<int>(doomed.size()));
  EXPECT_EQ(stats.shards_compacted, 3);
  EXPECT_EQ(index.size(), 120);
  EXPECT_EQ(index.total_size(), 180)
      << "the global id space never shrinks — ids are forever";

  // Byte-identical results with the *same global ids* — compaction must
  // be invisible to every reader.
  for (int q = 0; q < queries.size(); ++q) {
    ExpectSameNeighbors(before[static_cast<size_t>(q)],
                        index.TopK(queries.code(q), k));
  }
  // A second pass finds nothing to reclaim.
  const CompactionStats again = index.CompactAll();
  EXPECT_EQ(again.rows_reclaimed, 0);
  EXPECT_EQ(again.shards_compacted, 0);
}

TEST(CompactionTest, LocatorStaysCorrectAcrossCompactions) {
  Rng rng(901);
  const int bits = 64;
  ShardedIndexOptions options;
  options.num_shards = 2;
  ShardedIndex index(PackedCodes::FromSignMatrix(RandomSignCodes(40, bits, &rng)),
                     options);
  // Shard 0 holds gids 0..19, shard 1 holds 20..39. Compact one shard
  // at a time through the manual per-shard entry point.
  ASSERT_EQ(index.RemoveIds({1, 3, 5, 21, 23}), 5);
  EXPECT_EQ(index.CompactShard(0), 3);
  EXPECT_EQ(index.CompactShard(0), 0) << "shard 0 is already clean";
  EXPECT_EQ(index.CompactShard(1), 2);

  // Compacted-away ids are gone for good: a second remove is a no-op,
  // not a strike against some other row's new local slot.
  EXPECT_FALSE(index.Remove(1));
  EXPECT_EQ(index.RemoveIds({1, 3, 5}), 0);
  EXPECT_EQ(index.size(), 35);

  // Surviving ids still resolve: removing one drops exactly one row.
  EXPECT_TRUE(index.Remove(0));
  EXPECT_EQ(index.size(), 34);

  // Appends after compaction keep drawing fresh monotonic ids, land in
  // the emptiest shard, and are retrievable.
  PackedCodes batch =
      PackedCodes::FromSignMatrix(RandomSignCodes(4, bits, &rng));
  const std::vector<int> ids = index.Append(batch);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids.front(), 40);
  for (int i = 0; i < batch.size(); ++i) {
    const auto top = index.TopK(batch.code(i), 1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].distance, 0);
    EXPECT_GE(top[0].id, 0);
  }
  // And the new rows compact away cleanly too.
  ASSERT_TRUE(index.Remove(ids[1]));
  EXPECT_EQ(index.CompactAll().rows_reclaimed, 2);
  EXPECT_FALSE(index.Remove(ids[1]));
}

TEST(CompactionTest, MaybeCompactHonorsDeadFractionThreshold) {
  Rng rng(902);
  const int bits = 64;
  ShardedIndexOptions options;
  options.num_shards = 2;
  // Shard 0 holds gids 0..19, shard 1 holds 20..39.
  ShardedIndex index(PackedCodes::FromSignMatrix(RandomSignCodes(40, bits, &rng)),
                     options);
  // 50% dead in shard 0, 10% dead in shard 1.
  std::vector<int> doomed;
  for (int gid = 0; gid < 10; ++gid) doomed.push_back(gid);
  doomed.push_back(25);
  doomed.push_back(26);
  ASSERT_EQ(index.RemoveIds(doomed), 12);

  const CompactionStats stats = index.MaybeCompact(0.25);
  EXPECT_EQ(stats.shards_compacted, 1) << "only shard 0 crossed 25% dead";
  EXPECT_EQ(stats.rows_reclaimed, 10);
  EXPECT_EQ(index.size(), 28);

  // Lowering the threshold sweeps up the rest.
  const CompactionStats rest = index.MaybeCompact(0.05);
  EXPECT_EQ(rest.shards_compacted, 1);
  EXPECT_EQ(rest.rows_reclaimed, 2);
}

TEST(MutableEngineTest, RemoveIdsCountsEachDeadRowOnce) {
  // Pins the RemoveIds accounting contract: duplicates in one call,
  // out-of-range ids, already-tombstoned ids, and compacted-away ids
  // must each decrement the live counters at most once per actual row
  // death — a double-decrement would skew least-full append routing and
  // under-report the live corpus forever.
  Rng rng(903);
  const int bits = 64;
  ShardedIndexOptions options;
  options.num_shards = 2;
  ShardedIndex index(PackedCodes::FromSignMatrix(RandomSignCodes(30, bits, &rng)),
                     options);
  ASSERT_TRUE(index.Remove(7));  // already tombstoned before the batch
  EXPECT_EQ(index.size(), 29);

  // 4 and 9 appear twice; 7 is already dead; -3 and 1000 are out of
  // range. Exactly {4, 9, 11} newly die.
  EXPECT_EQ(index.RemoveIds({4, 4, 9, 7, 9, -3, 1000, 11}), 3);
  EXPECT_EQ(index.size(), 26);
  EXPECT_EQ(index.total_size(), 30);

  // After compaction the same ids are locator-gone; repeating the call
  // must not touch any surviving row's new local slot.
  ASSERT_EQ(index.CompactAll().rows_reclaimed, 4);
  EXPECT_EQ(index.RemoveIds({4, 4, 9, 7, 9, -3, 1000, 11}), 0);
  EXPECT_EQ(index.size(), 26);

  // Counters stay exact: appends after the churn still balance onto the
  // emptiest shard without tripping the live bookkeeping.
  const std::vector<int> ids =
      index.Append(PackedCodes::FromSignMatrix(RandomSignCodes(3, bits, &rng)));
  EXPECT_EQ(ids.front(), 30);
  EXPECT_EQ(index.size(), 29);
}

TEST(MutableEngineTest, AutoCompactionTriggersAtThreshold) {
  Rng rng(904);
  const int bits = 64, k = 6;
  Matrix db = RandomSignCodes(120, bits, &rng);
  ServingSnapshotOptions options;
  options.index.num_shards = 3;
  options.engine.compact_dead_fraction = 0.4;
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), options);

  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(10, bits, &rng));
  const auto before = engine->Search(queries, k);

  // 10% dead: below the threshold, nothing compacts.
  std::vector<int> first_wave;
  for (int gid = 0; gid < 12; ++gid) first_wave.push_back(gid * 10);
  ASSERT_EQ(engine->RemoveIds(first_wave), 12);
  ServeStatsSnapshot stats = engine->stats();
  EXPECT_EQ(stats.compactions, 0);

  // Push shard 0 (gids 0..39) over 40% dead: auto-compaction fires on
  // the RemoveIds call itself, invisible to results.
  std::vector<int> second_wave;
  for (int gid = 0; gid < 20; ++gid) second_wave.push_back(gid);
  const int newly_dead = engine->RemoveIds(second_wave);
  ASSERT_GT(newly_dead, 0);
  stats = engine->stats();
  EXPECT_GT(stats.compactions, 0);
  EXPECT_GT(stats.compact_rows_reclaimed, 0);

  // Results equal a reference engine that saw the same removals but
  // never compacted — same distances, same global ids.
  ServingSnapshotOptions reference_options;
  reference_options.index.num_shards = 3;
  auto reference =
      MakeQueryEngine(PackedCodes::FromSignMatrix(db), reference_options);
  reference->RemoveIds(first_wave);
  reference->RemoveIds(second_wave);
  ASSERT_EQ(reference->index().size(), engine->index().size());
  const auto expect = reference->Search(queries, k);
  const auto got = engine->Search(queries, k);
  for (int q = 0; q < queries.size(); ++q) {
    ExpectSameNeighbors(expect[static_cast<size_t>(q)],
                        got[static_cast<size_t>(q)]);
  }
}

TEST(MutableEngineTest, ManualCompactBumpsEpochOnlyWhenReclaiming) {
  Rng rng(905);
  const int bits = 64;
  auto engine = MakeQueryEngine(
      PackedCodes::FromSignMatrix(RandomSignCodes(50, bits, &rng)), {});
  EXPECT_EQ(engine->Compact().rows_reclaimed, 0);
  EXPECT_EQ(engine->epoch(), 0u) << "a no-op compaction is not an update";

  ASSERT_TRUE(engine->Remove(10));
  ASSERT_EQ(engine->epoch(), 1u);
  const CompactionStats stats = engine->Compact();
  EXPECT_EQ(stats.rows_reclaimed, 1);
  EXPECT_EQ(engine->epoch(), 2u);
  EXPECT_EQ(engine->stats().compactions, stats.shards_compacted);
}

TEST(SnapshotTest, CompactedEngineRoundTripsWithStableIds) {
  Rng rng(906);
  const int bits = 64, k = 8;
  Matrix db = RandomSignCodes(100, bits, &rng);
  ServingSnapshotOptions options;
  options.index.num_shards = 4;
  auto engine = MakeQueryEngine(PackedCodes::FromSignMatrix(db), options);
  engine->Append(PackedCodes::FromSignMatrix(RandomSignCodes(20, bits, &rng)));
  std::vector<int> doomed;
  for (int gid = 0; gid < 120; gid += 4) doomed.push_back(gid);
  ASSERT_EQ(engine->RemoveIds(doomed), 30);
  ASSERT_EQ(engine->Compact().rows_reclaimed, 30);

  const std::string path = ::testing::TempDir() + "/compacted_snapshot.bin";
  ASSERT_TRUE(SaveServingSnapshot(*engine, path).ok());

  // The compacted-away ids persist as dead slots: the reloaded engine
  // keeps every surviving global id and every result byte-identical.
  ServingSnapshotOptions reload_options;
  reload_options.index.num_shards = 2;
  Result<std::unique_ptr<QueryEngine>> reloaded =
      LoadQueryEngine(path, reload_options);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->epoch(), engine->epoch());
  EXPECT_EQ((*reloaded)->index().size(), 90);
  EXPECT_EQ((*reloaded)->index().total_size(), 120);

  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(12, bits, &rng));
  const auto expect = engine->Search(queries, k);
  const auto got = (*reloaded)->Search(queries, k);
  for (int q = 0; q < queries.size(); ++q) {
    ExpectSameNeighbors(expect[static_cast<size_t>(q)],
                        got[static_cast<size_t>(q)]);
  }

  // Hydration always compacts, and enabling runtime auto-compaction on
  // top must not disturb ids, the restored epoch, or results.
  ServingSnapshotOptions compact_reload = reload_options;
  compact_reload.engine.compact_dead_fraction = 0.1;
  Result<std::unique_ptr<QueryEngine>> compacted =
      LoadQueryEngine(path, compact_reload);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ((*compacted)->epoch(), engine->epoch());
  EXPECT_EQ((*compacted)->index().size(), 90);
  const auto compact_got = (*compacted)->Search(queries, k);
  for (int q = 0; q < queries.size(); ++q) {
    ExpectSameNeighbors(expect[static_cast<size_t>(q)],
                        compact_got[static_cast<size_t>(q)]);
  }
  std::remove(path.c_str());
}

TEST(MutableEngineTest, RestoreEpochClearsStaleCacheEntries) {
  // Regression: RestoreEpoch used to only store the epoch. Hydrating an
  // *older* snapshot's epoch into a live engine then made pre-restore
  // cache entries reachable again under a reused (epoch, query, k) key,
  // serving the pre-restore corpus. RestoreEpoch must drop the cache.
  Rng rng(907);
  const int bits = 64, k = 5;
  PackedCodes pq = PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  auto engine = MakeQueryEngine(
      PackedCodes::FromSignMatrix(RandomSignCodes(60, bits, &rng)), {});

  // Cache an entry at epoch 0, then mutate: append the query itself so
  // post-update results are visibly different.
  const auto stale = engine->SearchOne(pq.code(0), k);
  engine->Append(PackedCodes::FromRawWords(
      1, bits,
      std::vector<uint64_t>(pq.code(0), pq.code(0) + pq.words_per_code())));
  ASSERT_EQ(engine->epoch(), 1u);

  // Rewind the epoch to 0 (hydrating an older snapshot in place). The
  // old (epoch 0) cache entry must NOT come back from the dead: the
  // index still contains the appended row, so the distance-0 hit leads.
  engine->RestoreEpoch(0);
  const auto fresh = engine->SearchOne(pq.code(0), k);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh[0].distance, 0)
      << "stale pre-restore cache entry served after RestoreEpoch";
  EXPECT_EQ(fresh[0].id, 60);
  ASSERT_NE(stale[0].distance, 0)
      << "test needs the stale entry to be distinguishable";
}

TEST(SnapshotTest, LegacyV1ArtifactStillLoads) {
  Rng rng(805);
  const int bits = 64, k = 5;
  Matrix db = RandomSignCodes(70, bits, &rng);
  PackedCodes packed = PackedCodes::FromSignMatrix(db);
  const std::string path = ::testing::TempDir() + "/legacy_v1_codes.bin";
  ASSERT_TRUE(io::SavePackedCodes(packed, path).ok());

  Result<std::unique_ptr<QueryEngine>> engine = LoadQueryEngine(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->epoch(), 0u);
  EXPECT_EQ((*engine)->index().size(), 70);
  EXPECT_EQ((*engine)->index().total_size(), 70);

  LinearScanIndex truth(PackedCodes::FromSignMatrix(db));
  PackedCodes pq = PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  ExpectSameNeighbors(truth.TopK(pq.code(0), k),
                      (*engine)->SearchOne(pq.code(0), k));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uhscm::serve
