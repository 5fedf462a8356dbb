#ifndef UHSCM_SERVE_SERVE_STATS_H_
#define UHSCM_SERVE_SERVE_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotated_sync.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace uhscm::serve {

/// Power-of-two batch-size histogram buckets: bucket 0 counts flushes of
/// exactly 1 query, bucket b>0 counts sizes in (2^(b-1), 2^b], and the
/// last bucket absorbs everything larger.
constexpr int kBatchSizeBuckets = 10;

/// Point-in-time view of a QueryEngine's serving counters.
struct ServeStatsSnapshot {
  int64_t queries = 0;
  int64_t batches = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// LRU evictions from the result cache (filled in by
  /// QueryEngine::stats() from the cache's own counters).
  int64_t cache_evictions = 0;
  /// Corpus mutation counters and the resulting epoch (filled in by
  /// QueryEngine::stats(); every Append/Remove call bumps the epoch and
  /// invalidates all cached results by keying).
  int64_t appends = 0;
  int64_t removes = 0;
  /// Tombstone-compaction accounting (filled in by QueryEngine::stats()):
  /// shards compacted, dead rows whose scan bandwidth was reclaimed, and
  /// wall-clock milliseconds spent rebuilding+swapping (queries keep
  /// running throughout — only writers wait).
  int64_t compactions = 0;
  int64_t compact_rows_reclaimed = 0;
  double compaction_ms = 0.0;
  uint64_t epoch = 0;
  /// Seconds spent inside Search calls, summed per batch. Concurrent
  /// callers each contribute their own wall time, so this measures
  /// engine *work*, not elapsed time — it can exceed wall_seconds.
  double busy_seconds = 0.0;
  /// Wall-clock seconds since the stats object was constructed or
  /// Reset() — the correct denominator for throughput.
  double wall_seconds = 0.0;

  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;

  /// Per-query completion-latency distribution in nanoseconds. The
  /// latency_*_ms fields above are derived from it; it rides along so
  /// AggregateServeStats can merge buckets across replicas and compute
  /// pooled percentiles instead of taking the worst replica.
  obs::HistogramSnapshot latency_hist;

  // --- async pipeline counters (all zero when serving synchronously;
  // filled in by Batcher::stats()) ---
  /// Requests sitting in the admission queue right now.
  int64_t queue_depth = 0;
  /// Flushes triggered by reaching the batch-size bound B.
  int64_t batches_flushed_by_size = 0;
  /// Flushes triggered by the T-microsecond deadline (includes the final
  /// partial flush of a drain).
  int64_t batches_flushed_by_timeout = 0;
  /// Submissions rejected with a shutdown Status (drained pipeline).
  int64_t rejected_requests = 0;
  /// Flushed-batch size distribution (see kBatchSizeBuckets).
  std::array<int64_t, kBatchSizeBuckets> batch_size_hist{};
  /// Admission-to-flush wait percentiles.
  double time_in_queue_p50_ms = 0.0;
  double time_in_queue_p99_ms = 0.0;
  /// Admission-to-flush wait distribution in nanoseconds (mergeable,
  /// like latency_hist).
  obs::HistogramSnapshot queue_wait_hist;
  /// Replica count this snapshot aggregates over (0 = single engine).
  int replicas = 0;

  // --- deadline counter (filled in by Batcher::stats()) ---
  /// Requests resolved kDeadlineExceeded before reaching a replica.
  int64_t deadline_exceeded = 0;

  double hit_rate() const {
    const int64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
  /// Throughput over wall-clock time — queries per elapsed second. This
  /// is what "QPS" means under concurrent callers; busy_seconds would
  /// double-count their overlapping wall time and deflate it.
  double qps() const {
    return wall_seconds > 0.0 ? static_cast<double>(queries) / wall_seconds
                              : 0.0;
  }
  /// Queries per engine-busy second: per-query service cost, the old
  /// qps() semantics. Equals qps() for a single sequential caller.
  double busy_qps() const {
    return busy_seconds > 0.0 ? static_cast<double>(queries) / busy_seconds
                              : 0.0;
  }
  /// Fraction of wall time spent searching. Exceeds 1 when callers
  /// overlap (it counts per-caller busy time against shared wall time).
  double utilization() const {
    return wall_seconds > 0.0 ? busy_seconds / wall_seconds : 0.0;
  }
};

/// \brief Thread-safe latency/throughput accounting for the serving path.
///
/// Every Search batch reports its wall time once; each query in the batch
/// observes the batch's completion latency (what a caller of the batched
/// API experiences). Latencies accumulate in an O(1)-record log-linear
/// histogram (~3% relative resolution, fixed memory) — Snapshot() walks
/// buckets, it never sorts samples.
class ServeStats {
 public:
  ServeStats();

  /// Records one completed batch: n queries answered in elapsed_seconds.
  /// Cache hits and misses are the result cache's to count.
  void RecordBatch(int num_queries, double elapsed_seconds);

  /// Computes a snapshot. Percentiles come from histogram buckets
  /// (no sort, no retained samples).
  ServeStatsSnapshot Snapshot() const;

  /// Zeroes all counters and restarts the wall clock.
  void Reset();

 private:
  /// Leaf lock over the scalar counters only; the histogram is lock-free.
  mutable Mutex mu_{"serve.stats", 18};
  Stopwatch wall_ UHSCM_GUARDED_BY(mu_);
  obs::Histogram latency_ns_;
  int64_t queries_ UHSCM_GUARDED_BY(mu_) = 0;
  int64_t batches_ UHSCM_GUARDED_BY(mu_) = 0;
  double busy_seconds_ UHSCM_GUARDED_BY(mu_) = 0.0;
};

/// Percentile (p in [0,100]) of a sample vector; 0 when empty. Sorts a
/// copy — kept for benches and tests that pool raw samples; the serving
/// path itself uses histogram buckets.
double Percentile(std::vector<double> samples, double p);

/// Histogram bucket for a flushed batch of `size` queries.
int BatchSizeBucket(int size);

/// Human-readable bucket label ("1", "2", "<=4", ..., ">256").
std::string BatchSizeBucketLabel(int bucket);

/// \brief Thread-safe accounting for the async request pipeline: flush
/// reasons, batch-size distribution, time-in-queue, and end-to-end
/// request latency (admission to future completion — what a pipeline
/// client experiences, queue wait included).
///
/// FillSnapshot writes the pipeline fields of a ServeStatsSnapshot plus
/// the latency/throughput fields from its own end-to-end histograms;
/// wall_seconds is the time since construction or Reset(), so qps()
/// reports true pipeline throughput.
class PipelineStats {
 public:
  PipelineStats();

  /// Records one flushed batch and why it flushed.
  void RecordFlush(int batch_size, bool by_timeout);

  /// Records one completed request: seconds spent queued before its
  /// batch flushed, and total seconds from admission to completion.
  void RecordRequestDone(double queue_seconds, double total_seconds);

  /// Records submissions rejected with a shutdown Status.
  void RecordRejected(int count);

  /// Records `count` requests expired with kDeadlineExceeded.
  void RecordDeadlineExceeded(int count);

  /// Fills the pipeline + latency + queries/batches fields of *snap
  /// (leaves cache/update fields alone — those belong to the engines).
  void FillSnapshot(ServeStatsSnapshot* snap) const;

  void Reset();

 private:
  /// Leaf lock over the scalar counters; histograms are lock-free.
  mutable Mutex mu_{"pipeline.stats", 17};
  Stopwatch wall_ UHSCM_GUARDED_BY(mu_);
  obs::Histogram queue_wait_ns_;
  obs::Histogram total_latency_ns_;
  int64_t requests_done_ UHSCM_GUARDED_BY(mu_) = 0;
  int64_t rejected_ UHSCM_GUARDED_BY(mu_) = 0;
  int64_t flushes_by_size_ UHSCM_GUARDED_BY(mu_) = 0;
  int64_t flushes_by_timeout_ UHSCM_GUARDED_BY(mu_) = 0;
  int64_t deadline_exceeded_ UHSCM_GUARDED_BY(mu_) = 0;
  std::array<int64_t, kBatchSizeBuckets> batch_size_hist_ UHSCM_GUARDED_BY(
      mu_){};
};

/// Sums per-replica engine snapshots into one corpus-wide view: counters
/// add; busy_seconds add (total engine work) while wall_seconds takes
/// the max (replicas run concurrently over the same elapsed time);
/// epoch takes the max (replicas are update-coherent, so they agree
/// outside an in-flight fan-out). Latency percentiles are computed from
/// the *merged* latency histograms — bucket counts add exactly, so the
/// result matches pooled-sample percentiles within bucket resolution
/// (empty histograms leave the percentiles at 0). `replicas` is set to
/// the input count.
ServeStatsSnapshot AggregateServeStats(
    const std::vector<ServeStatsSnapshot>& per_replica);

/// Publishes a snapshot's counters into a registry as gauges
/// (`serve.*`, `cache.*`, `update.*`, `compact.*`, `pipeline.*`) so the
/// printed stats dump and --metrics-json export come from one source.
void FillRegistry(const ServeStatsSnapshot& snap, obs::MetricsRegistry* reg);

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_SERVE_STATS_H_
