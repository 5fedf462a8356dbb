#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>

namespace uhscm::serve {

namespace {

constexpr double kNsPerMs = 1e6;

/// Clamps a seconds value into a non-negative nanosecond count.
int64_t SecondsToNanos(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<int64_t>(seconds * 1e9);
}

/// Derives the latency_*_ms summary fields from a nanosecond histogram.
void FillLatencyFields(const obs::HistogramSnapshot& hist,
                       ServeStatsSnapshot* snap) {
  if (hist.empty()) return;
  snap->latency_mean_ms = hist.mean() / kNsPerMs;
  snap->latency_p50_ms =
      static_cast<double>(hist.ValueAtPercentile(50.0)) / kNsPerMs;
  snap->latency_p99_ms =
      static_cast<double>(hist.ValueAtPercentile(99.0)) / kNsPerMs;
}

/// Derives the time_in_queue_*_ms summary fields from a nanosecond
/// histogram.
void FillQueueWaitFields(const obs::HistogramSnapshot& hist,
                         ServeStatsSnapshot* snap) {
  if (hist.empty()) return;
  snap->time_in_queue_p50_ms =
      static_cast<double>(hist.ValueAtPercentile(50.0)) / kNsPerMs;
  snap->time_in_queue_p99_ms =
      static_cast<double>(hist.ValueAtPercentile(99.0)) / kNsPerMs;
}

}  // namespace

ServeStats::ServeStats() = default;

void ServeStats::RecordBatch(int num_queries, double elapsed_seconds) {
  if (num_queries <= 0) return;
  // Every query in the batch observes the batch's completion latency;
  // RecordN folds all of them into the histogram in O(1).
  latency_ns_.RecordN(SecondsToNanos(elapsed_seconds), num_queries);
  MutexLock lock(mu_);
  queries_ += num_queries;
  batches_ += 1;
  busy_seconds_ += elapsed_seconds;
}

ServeStatsSnapshot ServeStats::Snapshot() const {
  ServeStatsSnapshot snap;
  {
    MutexLock lock(mu_);
    snap.queries = queries_;
    snap.batches = batches_;
    snap.busy_seconds = busy_seconds_;
    snap.wall_seconds = wall_.ElapsedSeconds();
  }
  snap.latency_hist = latency_ns_.Snapshot();
  FillLatencyFields(snap.latency_hist, &snap);
  return snap;
}

void ServeStats::Reset() {
  MutexLock lock(mu_);
  latency_ns_.Reset();
  wall_.Restart();
  queries_ = 0;
  batches_ = 0;
  busy_seconds_ = 0.0;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest sample >= p percent of the distribution.
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[rank > 0 ? rank - 1 : 0];
}

int BatchSizeBucket(int size) {
  if (size <= 1) return 0;
  int bucket = 0;
  // Smallest b with size <= 2^b.
  while (bucket < kBatchSizeBuckets - 1 && (1 << bucket) < size) ++bucket;
  return bucket;
}

std::string BatchSizeBucketLabel(int bucket) {
  if (bucket <= 0) return "1";
  if (bucket == 1) return "2";
  // Built via append: GCC 12's -Wrestrict false-positives on
  // `literal + std::to_string(...)` at -O2 -DNDEBUG (GCC PR105651).
  if (bucket >= kBatchSizeBuckets - 1) {
    std::string label(">");
    label += std::to_string(1 << (kBatchSizeBuckets - 2));
    return label;
  }
  std::string label("<=");
  label += std::to_string(1 << bucket);
  return label;
}

PipelineStats::PipelineStats() = default;

void PipelineStats::RecordFlush(int batch_size, bool by_timeout) {
  if (batch_size <= 0) return;
  MutexLock lock(mu_);
  (by_timeout ? flushes_by_timeout_ : flushes_by_size_) += 1;
  batch_size_hist_[static_cast<size_t>(BatchSizeBucket(batch_size))] += 1;
}

void PipelineStats::RecordRequestDone(double queue_seconds,
                                      double total_seconds) {
  queue_wait_ns_.Record(SecondsToNanos(queue_seconds));
  total_latency_ns_.Record(SecondsToNanos(total_seconds));
  MutexLock lock(mu_);
  requests_done_ += 1;
}

void PipelineStats::RecordRejected(int count) {
  if (count <= 0) return;
  MutexLock lock(mu_);
  rejected_ += count;
}

void PipelineStats::RecordDeadlineExceeded(int count) {
  if (count <= 0) return;
  MutexLock lock(mu_);
  deadline_exceeded_ += count;
}

void PipelineStats::FillSnapshot(ServeStatsSnapshot* snap) const {
  {
    MutexLock lock(mu_);
    snap->queries = requests_done_;
    snap->batches = flushes_by_size_ + flushes_by_timeout_;
    snap->batches_flushed_by_size = flushes_by_size_;
    snap->batches_flushed_by_timeout = flushes_by_timeout_;
    snap->rejected_requests = rejected_;
    snap->deadline_exceeded = deadline_exceeded_;
    snap->batch_size_hist = batch_size_hist_;
    snap->wall_seconds = wall_.ElapsedSeconds();
    // The pipeline overlaps its callers by design; "busy" time equals
    // elapsed time for throughput purposes.
    snap->busy_seconds = snap->wall_seconds;
  }
  snap->latency_hist = total_latency_ns_.Snapshot();
  FillLatencyFields(snap->latency_hist, snap);
  snap->queue_wait_hist = queue_wait_ns_.Snapshot();
  FillQueueWaitFields(snap->queue_wait_hist, snap);
}

void PipelineStats::Reset() {
  MutexLock lock(mu_);
  queue_wait_ns_.Reset();
  total_latency_ns_.Reset();
  wall_.Restart();
  requests_done_ = 0;
  rejected_ = 0;
  flushes_by_size_ = 0;
  flushes_by_timeout_ = 0;
  deadline_exceeded_ = 0;
  batch_size_hist_.fill(0);
}

ServeStatsSnapshot AggregateServeStats(
    const std::vector<ServeStatsSnapshot>& per_replica) {
  ServeStatsSnapshot agg;
  agg.replicas = static_cast<int>(per_replica.size());
  for (const ServeStatsSnapshot& snap : per_replica) {
    agg.queries += snap.queries;
    agg.batches += snap.batches;
    agg.cache_hits += snap.cache_hits;
    agg.cache_misses += snap.cache_misses;
    agg.cache_evictions += snap.cache_evictions;
    agg.appends += snap.appends;
    agg.removes += snap.removes;
    agg.compactions += snap.compactions;
    agg.compact_rows_reclaimed += snap.compact_rows_reclaimed;
    agg.compaction_ms += snap.compaction_ms;
    agg.busy_seconds += snap.busy_seconds;
    agg.wall_seconds = std::max(agg.wall_seconds, snap.wall_seconds);
    agg.epoch = std::max(agg.epoch, snap.epoch);
    agg.queue_depth += snap.queue_depth;
    agg.batches_flushed_by_size += snap.batches_flushed_by_size;
    agg.batches_flushed_by_timeout += snap.batches_flushed_by_timeout;
    agg.rejected_requests += snap.rejected_requests;
    agg.deadline_exceeded += snap.deadline_exceeded;
    for (int b = 0; b < kBatchSizeBuckets; ++b) {
      agg.batch_size_hist[static_cast<size_t>(b)] +=
          snap.batch_size_hist[static_cast<size_t>(b)];
    }
    agg.latency_hist.Merge(snap.latency_hist);
    agg.queue_wait_hist.Merge(snap.queue_wait_hist);
  }
  FillLatencyFields(agg.latency_hist, &agg);
  FillQueueWaitFields(agg.queue_wait_hist, &agg);
  return agg;
}

void FillRegistry(const ServeStatsSnapshot& snap, obs::MetricsRegistry* reg) {
  reg->GetGauge("serve.queries")->Set(snap.queries);
  reg->GetGauge("serve.batches")->Set(snap.batches);
  reg->GetGauge("serve.replicas")->Set(snap.replicas);
  reg->GetGauge("serve.epoch")->Set(static_cast<int64_t>(snap.epoch));
  reg->GetGauge("cache.hits")->Set(snap.cache_hits);
  reg->GetGauge("cache.misses")->Set(snap.cache_misses);
  reg->GetGauge("cache.evictions")->Set(snap.cache_evictions);
  reg->GetGauge("update.appends")->Set(snap.appends);
  reg->GetGauge("update.removes")->Set(snap.removes);
  reg->GetGauge("compact.compactions")->Set(snap.compactions);
  reg->GetGauge("compact.rows_reclaimed")->Set(snap.compact_rows_reclaimed);
  reg->GetGauge("compact.total_ms")
      ->Set(static_cast<int64_t>(snap.compaction_ms));
  reg->GetGauge("pipeline.queue_depth")->Set(snap.queue_depth);
  reg->GetGauge("pipeline.flushes_by_size")->Set(snap.batches_flushed_by_size);
  reg->GetGauge("pipeline.flushes_by_timeout")
      ->Set(snap.batches_flushed_by_timeout);
  reg->GetGauge("pipeline.rejected_requests")->Set(snap.rejected_requests);
  reg->GetGauge("pipeline.deadline_exceeded")->Set(snap.deadline_exceeded);
}

}  // namespace uhscm::serve
