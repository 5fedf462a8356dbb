// Tests for the observability layer: log-linear histogram exactness
// (bucket math, record/merge vs sorted-sample ground truth, concurrent
// records), the metrics registry, the trace recorder (sampling, ring
// wraparound, Chrome export, slow-query log), and an end-to-end span
// sweep through the serving pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/packed_codes.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace uhscm::obs {
namespace {

using index::PackedCodes;
using uhscm::testing::RandomSignCodes;

// Relative resolution bound of the log-linear histogram: one part in
// 2^kSubBucketBits, plus a hair of slack for the midpoint representative.
constexpr double kRelResolution = 1.0 / (1 << Histogram::kSubBucketBits);
constexpr double kRelTolerance = kRelResolution + 0.001;

// ---------------------------------------------------------------------
// Histogram bucket math

TEST(HistogramTest, LinearRegionIsExact) {
  // Values below 2^kSubBucketBits get one bucket each.
  for (int64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<int>(v)), v);
    EXPECT_EQ(Histogram::BucketUpperBound(static_cast<int>(v)), v + 1);
    EXPECT_EQ(Histogram::BucketRepresentative(static_cast<int>(v)), v);
  }
}

TEST(HistogramTest, BucketBoundariesAreContinuous) {
  // The linear/log seam and the octave seams: index is monotone
  // non-decreasing and steps by exactly one bucket at each boundary.
  EXPECT_EQ(Histogram::BucketIndex(31), 31);
  EXPECT_EQ(Histogram::BucketIndex(32), 32);
  EXPECT_EQ(Histogram::BucketIndex(63), 63);
  EXPECT_EQ(Histogram::BucketIndex(64), 64);
  int prev = Histogram::BucketIndex(0);
  for (int64_t v = 1; v < 8192; ++v) {
    const int bucket = Histogram::BucketIndex(v);
    EXPECT_GE(bucket, prev) << "v=" << v;
    EXPECT_LE(bucket, prev + 1) << "v=" << v;
    prev = bucket;
  }
  // Past unit stepping, still monotone non-decreasing.
  for (int64_t v = 8192; v < 1000000000; v = v * 17 / 16) {
    const int bucket = Histogram::BucketIndex(v);
    EXPECT_GE(bucket, prev) << "v=" << v;
    prev = bucket;
  }
}

TEST(HistogramTest, EveryValueFallsInsideItsBucketBounds) {
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform values across the full range.
    const int shift = static_cast<int>(rng.UniformInt(62));
    const int64_t v = static_cast<int64_t>(rng.NextU64() >> (63 - shift));
    const int bucket = Histogram::BucketIndex(v);
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, Histogram::kNumBuckets);
    if (bucket < Histogram::kNumBuckets - 1) {
      EXPECT_GE(v, Histogram::BucketLowerBound(bucket)) << "v=" << v;
      EXPECT_LT(v, Histogram::BucketUpperBound(bucket)) << "v=" << v;
    } else {
      // Last bucket absorbs everything at or past its lower bound.
      EXPECT_GE(v, Histogram::BucketLowerBound(bucket)) << "v=" << v;
    }
  }
}

TEST(HistogramTest, NegativesAndOverflowClamp) {
  EXPECT_EQ(Histogram::BucketIndex(-1), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::min()), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::max()),
            Histogram::kNumBuckets - 1);
  Histogram h;
  h.Record(-5);
  h.Record(std::numeric_limits<int64_t>::max());
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, 2u);
  EXPECT_EQ(snap.counts.front(), 1u);
  EXPECT_EQ(snap.counts.back(), 1u);
}

// ---------------------------------------------------------------------
// Record / merge exactness against sorted-sample ground truth

TEST(HistogramTest, PercentilesMatchSortedSamplesWithinResolution) {
  // The acceptance bound this whole design rests on: bucket percentiles
  // track pooled-sample percentiles within one bucket width (~3.1%
  // relative), including after an exact bucket-wise merge of shards.
  Rng rng(202);
  constexpr int kShards = 3;
  constexpr int kSamplesPerShard = 40000;
  Histogram shards[kShards];
  std::vector<int64_t> pooled;
  pooled.reserve(kShards * kSamplesPerShard);
  for (int s = 0; s < kShards; ++s) {
    for (int i = 0; i < kSamplesPerShard; ++i) {
      // Log-uniform latencies from ~1us to ~100ms (in ns) with a
      // different scale per shard, so the merge genuinely reshuffles
      // which buckets dominate each percentile.
      const double log_min = 3.0 + s, log_max = 8.0;
      const int64_t v = static_cast<int64_t>(
          std::pow(10.0, rng.Uniform(log_min, log_max)));
      shards[s].Record(v);
      pooled.push_back(v);
    }
  }
  HistogramSnapshot merged = shards[0].Snapshot();
  merged.Merge(shards[1].Snapshot());
  merged.Merge(shards[2].Snapshot());
  ASSERT_EQ(merged.total, static_cast<uint64_t>(pooled.size()));

  std::sort(pooled.begin(), pooled.end());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(p / 100.0 * static_cast<double>(pooled.size()))));
    const double truth = static_cast<double>(pooled[rank - 1]);
    const double got = static_cast<double>(merged.ValueAtPercentile(p));
    EXPECT_NEAR(got, truth, truth * kRelTolerance) << "p" << p;
  }
  // The mean is exact (sum and total both add exactly).
  double true_sum = 0.0;
  for (const int64_t v : pooled) true_sum += static_cast<double>(v);
  EXPECT_NEAR(merged.mean(), true_sum / pooled.size(),
              true_sum / pooled.size() * 1e-9);
}

TEST(HistogramTest, MergeIntoEmptyAndWithEmpty) {
  Histogram h;
  h.RecordN(100, 7);
  HistogramSnapshot empty1, empty2;
  empty1.Merge(empty2);
  EXPECT_TRUE(empty1.empty());
  // empty <- loaded adopts the loaded snapshot.
  HistogramSnapshot a;
  a.Merge(h.Snapshot());
  EXPECT_EQ(a.total, 7u);
  // loaded <- empty is a no-op; the percentile reports 100's bucket
  // midpoint (100 is past the exact linear region).
  a.Merge(empty2);
  EXPECT_EQ(a.total, 7u);
  EXPECT_EQ(a.ValueAtPercentile(50.0),
            Histogram::BucketRepresentative(Histogram::BucketIndex(100)));
  EXPECT_NEAR(static_cast<double>(a.ValueAtPercentile(50.0)), 100.0,
              100.0 * kRelTolerance);
}

TEST(HistogramTest, RecordNMatchesRepeatedRecord) {
  Histogram a, b;
  a.RecordN(12345, 1000);
  for (int i = 0; i < 1000; ++i) b.Record(12345);
  const HistogramSnapshot sa = a.Snapshot(), sb = b.Snapshot();
  EXPECT_EQ(sa.total, sb.total);
  EXPECT_EQ(sa.sum, sb.sum);
  EXPECT_EQ(sa.counts, sb.counts);
}

TEST(HistogramTest, ConcurrentRecordStressLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<int64_t>(rng.UniformInt(1 << 20)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.total, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_sum = 0;
  for (const uint64_t c : snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, snap.total) << "no record fell between buckets";
}

// ---------------------------------------------------------------------
// Registry

TEST(MetricsRegistryTest, StablePointersAndDumps) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("scan.rows_scanned");
  Gauge* g = reg.GetGauge("pipeline.queue_depth");
  Histogram* h = reg.GetHistogram("stage.scan_ns");
  EXPECT_EQ(reg.GetCounter("scan.rows_scanned"), c);
  EXPECT_EQ(reg.GetGauge("pipeline.queue_depth"), g);
  EXPECT_EQ(reg.GetHistogram("stage.scan_ns"), h);
  c->Add(42);
  g->Set(7);
  h->Record(1000);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"scan.rows_scanned\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.queue_depth\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"stage.scan_ns\""), std::string::npos);
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("scan.rows_scanned"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);

  const auto stages = reg.SnapshotHistograms("stage.");
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].first, "stage.scan_ns");
  EXPECT_EQ(stages[0].second.total, 1u);
  EXPECT_TRUE(reg.SnapshotHistograms("nope.").empty());

  reg.ResetAll();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(g->value(), 0);
  EXPECT_TRUE(h->Snapshot().empty());
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreateIsSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::array<Counter*, kThreads> seen{};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter* c = reg.GetCounter("shared.counter");
      c->Add(1);
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(seen[0]->value(), kThreads);
}

// ---------------------------------------------------------------------
// Trace recorder

TEST(TraceRecorderTest, SamplingOneInN) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.MaybeStartTrace(), 0u) << "sampling off by default";
  recorder.SetSampleEvery(4);
  int sampled = 0;
  std::set<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = recorder.MaybeStartTrace();
    if (id != 0) {
      ++sampled;
      EXPECT_TRUE(ids.insert(id).second) << "trace ids must be unique";
    }
  }
  EXPECT_EQ(sampled, 25);
  recorder.SetSampleEvery(0);
  EXPECT_EQ(recorder.MaybeStartTrace(), 0u);
}

TEST(TraceRecorderTest, RuntimeKillSwitchStopsSampling) {
  TraceRecorder recorder;
  recorder.SetSampleEvery(1);
  SetRuntimeEnabled(false);
  EXPECT_EQ(recorder.MaybeStartTrace(), 0u);
  SetRuntimeEnabled(true);
  EXPECT_NE(recorder.MaybeStartTrace(), 0u);
}

TEST(TraceRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  TraceRecorder recorder(/*capacity=*/4);
  for (int i = 1; i <= 6; ++i) {
    recorder.RecordSpan(/*trace_id=*/static_cast<uint64_t>(i),
                        /*span_id=*/static_cast<uint64_t>(i),
                        /*parent_id=*/0, "request", /*start_us=*/i * 10,
                        /*end_us=*/i * 10 + 5);
  }
  EXPECT_EQ(recorder.size(), 4u);
  const std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Spans 1 and 2 were overwritten; 3..6 remain, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<size_t>(i)].trace_id,
              static_cast<uint64_t>(i + 3));
  }
  recorder.Reset();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceRecorderTest, UnsampledSpansAreDropped) {
  TraceRecorder recorder;
  recorder.RecordSpan(/*trace_id=*/0, 1, 0, "request", 0, 10);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceRecorderTest, ChromeTraceExportAndSlowQueryLog) {
  TraceRecorder recorder;
  recorder.RecordSpan(1, 1, 0, "request", 0, 20000, {{"k", 10}});
  recorder.RecordSpan(1, 2, 1, "scan", 2000, 15000, {{"shards", 4}});
  recorder.RecordSpan(2, 3, 0, "request", 100, 600);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  // Structural spot checks; CI additionally runs the file through a real
  // JSON parser.
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"shards\": 4"), std::string::npos);
  std::remove(path.c_str());

  // Slow-query log: only root spans, slowest first, threshold applied.
  const std::vector<SpanRecord> slow = recorder.SlowSpans(1.0, 10);
  ASSERT_EQ(slow.size(), 1u) << "scan is a child; request #2 is fast";
  EXPECT_EQ(slow[0].trace_id, 1u);
  const std::string log = recorder.SlowQueryLog(0.0, 10);
  EXPECT_NE(log.find("slow-query trace=1"), std::string::npos);
  EXPECT_NE(log.find("dur_ms=20.000"), std::string::npos);
  EXPECT_EQ(recorder.SlowSpans(100.0, 10).size(), 0u);
}

TEST(ScopedSpanTest, RecordsOnlyWhenParentSampled) {
  TraceRecorder recorder;
  {
    TraceContext unsampled;
    ScopedSpan span(&recorder, unsampled, "batch");
    span.AddAttr("size", 8);
  }
  EXPECT_EQ(recorder.size(), 0u);

  TraceContext root;
  root.trace_id = 9;
  root.parent_span = recorder.NewSpanId();
  uint64_t inner_id = 0;
  {
    ScopedSpan outer(&recorder, root, "search");
    outer.AddAttr("queries", 3);
    {
      ScopedSpan inner(&recorder, outer.context(), "scan");
      inner_id = inner.context().parent_span;
    }
  }
  const std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Children record before parents (RAII unwind): scan first.
  EXPECT_STREQ(spans[0].name, "scan");
  EXPECT_STREQ(spans[1].name, "search");
  EXPECT_EQ(spans[0].span_id, inner_id);
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id) << "scan under search";
  EXPECT_EQ(spans[1].parent_id, root.parent_span);
  EXPECT_EQ(spans[0].trace_id, 9u);
  ASSERT_EQ(spans[1].num_attrs, 1);
  EXPECT_STREQ(spans[1].attrs[0].key, "queries");
  EXPECT_EQ(spans[1].attrs[0].value, 3);
}

// ---------------------------------------------------------------------
// Stage histograms + end-to-end pipeline spans

TEST(TraceRecorderTest, SpansFeedStageHistograms) {
  TraceRecorder recorder(/*capacity=*/2);
  Histogram* stage =
      MetricsRegistry::Global().GetHistogram("stage.unittest-stage_ns");
  stage->Reset();
  // 10 spans through a capacity-2 ring: the histogram keeps all 10.
  for (int i = 0; i < 10; ++i) {
    recorder.RecordSpan(1, static_cast<uint64_t>(i + 1), 0, "unittest-stage",
                        0, 1000);
  }
  EXPECT_EQ(recorder.size(), 2u);
  const HistogramSnapshot snap = stage->Snapshot();
  EXPECT_EQ(snap.total, 10u);
  // 1000us = 1e6 ns, within one bucket of resolution.
  EXPECT_NEAR(static_cast<double>(snap.ValueAtPercentile(50.0)), 1e6,
              1e6 * kRelTolerance);
}

TEST(StageTimerTest, SnapshotStagesRecordOneSamplePerCall) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram* save = registry.GetHistogram("stage.snapshot_save_ns");
  Histogram* load = registry.GetHistogram("stage.snapshot_load_ns");
  Histogram* hydrate = registry.GetHistogram("stage.hydrate_ns");
  save->Reset();
  load->Reset();
  hydrate->Reset();
  auto samples = [&] {
    return std::array<uint64_t, 3>{save->Snapshot().total,
                                   load->Snapshot().total,
                                   hydrate->Snapshot().total};
  };

  Rng rng(7);
  io::CodesSnapshot snapshot;
  snapshot.codes = PackedCodes::FromSignMatrix(RandomSignCodes(50, 64, &rng));
  const std::string path = ::testing::TempDir() + "/stage_snapshot.bin";
  ASSERT_TRUE(io::SaveCodesSnapshot(snapshot, path).ok());
  EXPECT_EQ(samples(), (std::array<uint64_t, 3>{1, 0, 0}));
  Result<io::CodesSnapshot> loaded = io::LoadCodesSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(samples(), (std::array<uint64_t, 3>{1, 1, 0}));
  auto engine = serve::MakeQueryEngineFromSnapshot(*loaded);
  EXPECT_EQ(samples(), (std::array<uint64_t, 3>{1, 1, 1}));
  ASSERT_TRUE(serve::LoadQueryEngine(path).ok());
  EXPECT_EQ(samples(), (std::array<uint64_t, 3>{1, 2, 2}));
  ASSERT_TRUE(io::SavePackedCodes(snapshot.codes, path).ok());
  EXPECT_EQ(samples(), (std::array<uint64_t, 3>{2, 2, 2}));
  std::remove(path.c_str());
  EXPECT_GT(load->Snapshot().sum, 0);
}

TEST(PipelineTraceTest, EndToEndSpanVocabulary) {
  Rng rng(77);
  const PackedCodes corpus =
      PackedCodes::FromSignMatrix(RandomSignCodes(300, 64, &rng));
  const PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(32, 64, &rng));

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Reset();
  recorder.SetSampleEvery(1);

  {
    serve::ReplicaSetOptions options;
    options.replicas = 1;
    serve::ReplicaSet replica_set(corpus, options);
    serve::Router router(&replica_set, serve::RoutePolicy::kLeastLoaded);
    serve::BatcherOptions batcher_options;
    batcher_options.max_batch = 8;
    batcher_options.timeout_us = 200;
    serve::Batcher batcher(&router, batcher_options);
    std::vector<std::future<serve::SearchResponse>> futures;
    for (int q = 0; q < queries.size(); ++q) {
      futures.push_back(batcher.Submit(queries, q, /*k=*/5));
    }
    for (auto& future : futures) ASSERT_TRUE(future.get().status.ok());
    batcher.Drain();
  }
  recorder.SetSampleEvery(0);

  std::set<std::string> names;
  uint64_t admit_parent = 0, request_id = 0;
  for (const SpanRecord& s : recorder.Snapshot()) {
    names.insert(s.name);
    if (std::string(s.name) == "admit") admit_parent = s.parent_id;
    if (std::string(s.name) == "request") request_id = s.span_id;
  }
  // The full per-request vocabulary from admission to merge.
  for (const char* required :
       {"request", "admit", "batch", "route", "search", "cache-lookup",
        "scan", "shard-scan", "merge"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }
  // Spans form a tree: every admit hangs under some request root.
  EXPECT_NE(admit_parent, 0u);
  EXPECT_NE(request_id, 0u);
}

// ---------------------------------------------------------------------
// AggregateServeStats pools histograms (the cross-replica acceptance
// criterion: merged p50/p99 match pooled samples within resolution)

TEST(AggregateStatsTest, MergedPercentilesMatchPooledGroundTruth) {
  Rng rng(303);
  constexpr int kReplicas = 3;
  std::vector<serve::ServeStats> stats(kReplicas);
  std::vector<double> pooled_ms;
  for (int r = 0; r < kReplicas; ++r) {
    for (int i = 0; i < 5000; ++i) {
      // Each replica sees a different latency scale — the exact setup
      // where max-over-replica-p99s is wrong and pooling is right.
      const double ms = std::pow(10.0, rng.Uniform(-1.0 + r, 1.0 + r));
      stats[static_cast<size_t>(r)].RecordBatch(1, ms / 1e3);
      pooled_ms.push_back(ms);
    }
  }
  std::vector<serve::ServeStatsSnapshot> snaps;
  for (const serve::ServeStats& s : stats) snaps.push_back(s.Snapshot());
  const serve::ServeStatsSnapshot agg = serve::AggregateServeStats(snaps);
  EXPECT_EQ(agg.queries, kReplicas * 5000);
  EXPECT_EQ(agg.replicas, kReplicas);

  const double true_p50 = serve::Percentile(pooled_ms, 50.0);
  const double true_p99 = serve::Percentile(pooled_ms, 99.0);
  EXPECT_NEAR(agg.latency_p50_ms, true_p50, true_p50 * kRelTolerance);
  EXPECT_NEAR(agg.latency_p99_ms, true_p99, true_p99 * kRelTolerance);
  // And distinct from the worst-replica-max fallback: replica 2 alone
  // has a far higher p50 than the pooled distribution.
  const double replica2_p50 = snaps[2].latency_p50_ms;
  EXPECT_GT(replica2_p50, agg.latency_p50_ms * 2.0)
      << "pooling must not degenerate to worst-replica max";
}

}  // namespace
}  // namespace uhscm::obs
