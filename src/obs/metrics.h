#ifndef UHSCM_OBS_METRICS_H_
#define UHSCM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_sync.h"

namespace uhscm::obs {

/// Runtime kill switch consulted by the sampling and kernel-counter
/// flush paths — the "disabled" arm of the overhead A/B in
/// bench/async_serve. Defaults to on.
bool RuntimeEnabled();
void SetRuntimeEnabled(bool enabled);

/// \brief Monotonic event counter. Record is one relaxed fetch_add.
/// Relaxed everywhere: an independent statistic — readers tolerate a
/// momentarily stale count and no data is published through it.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Last-write-wins instantaneous value (queue depth, epoch, ...).
/// Relaxed: an advisory sample; the newest write wins and readers only
/// need *a* recent value, not ordering against other memory.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Mergeable point-in-time copy of a histogram's buckets.
///
/// The unit of exact cross-replica aggregation: bucket counts add
/// element-wise, so percentiles of a merged snapshot are computed over
/// the *pooled* distribution — not a max over per-replica percentiles.
struct HistogramSnapshot {
  std::vector<uint64_t> counts;  // empty (== all-zero) or kNumBuckets long
  uint64_t total = 0;
  int64_t sum = 0;

  bool empty() const { return total == 0; }
  double mean() const {
    return total > 0 ? static_cast<double>(sum) / static_cast<double>(total)
                     : 0.0;
  }

  /// Element-wise bucket add — the exact merge AggregateServeStats uses.
  void Merge(const HistogramSnapshot& other);

  /// Nearest-rank percentile (p in [0, 100]) over the bucket counts: the
  /// representative value (bucket midpoint; exact below the linear/log
  /// boundary) of the bucket holding the ceil(p% * total)-th sample.
  /// Within one bucket width of the true pooled-sample percentile, i.e.
  /// a relative error of at most 2^-kSubBucketBits. 0 when empty.
  int64_t ValueAtPercentile(double p) const;
};

/// \brief Lock-free log-linear (HDR-style) histogram over non-negative
/// int64 values.
///
/// Values below 2^kSubBucketBits get one bucket each (exact); above
/// that, every octave [2^m, 2^(m+1)) is split into 2^kSubBucketBits
/// equal sub-buckets, so relative resolution is bounded by
/// 2^-kSubBucketBits (~3.1%) everywhere. Record is O(1): a bit-scan to
/// find the bucket and three relaxed atomic adds — no lock, no sort, no
/// retained samples. Snapshots merge exactly (bucket-wise), which is
/// what lets replica percentiles aggregate without approximation.
///
/// Values are unit-agnostic int64s; the serving layer records latencies
/// in nanoseconds (range 2^kMaxExponent ns ~= 9.7 hours; larger values
/// clamp into the last bucket, negatives into the first).
class Histogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMaxExponent = 45;
  static constexpr int kNumBuckets =
      (kMaxExponent - kSubBucketBits + 1) * kSubBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value) { RecordN(value, 1); }

  /// Records `n` identical observations in O(1) — the batched serving
  /// path reports one latency for every query of a batch.
  void RecordN(int64_t value, int64_t n);

  HistogramSnapshot Snapshot() const;
  void Reset();

  /// Bucket index for a value (clamped into [0, kNumBuckets)).
  static int BucketIndex(int64_t value);
  /// Smallest value mapping to `bucket`.
  static int64_t BucketLowerBound(int bucket);
  /// Smallest value mapping to `bucket + 1` (exclusive upper bound).
  static int64_t BucketUpperBound(int bucket);
  /// The value a bucket reports for percentiles (midpoint; exact in the
  /// linear region).
  static int64_t BucketRepresentative(int bucket);

 private:
  /// Relaxed: each bucket (and total/sum) is an independent counter; a
  /// snapshot taken mid-record may be off by the in-flight observation,
  /// which bucket-count statistics tolerate by design.
  std::array<std::atomic<uint64_t>, kNumBuckets> counts_{};
  std::atomic<uint64_t> total_{0};
  std::atomic<int64_t> sum_{0};
};

/// \brief Named registry of counters, gauges, and histograms — the one
/// place the process's serving metrics live, so the printed stats dump
/// and the exported JSON can never drift apart.
///
/// Naming convention (see src/obs/README.md): dot-separated
/// `<subsystem>.<metric>[_<unit>]`, e.g. `scan.rows_scanned`,
/// `pipeline.queue_depth`, `stage.scan_ns`. Lookup takes a mutex;
/// hot paths resolve their pointer once and record through it (Counter /
/// Gauge / Histogram are individually thread-safe and the pointers are
/// stable for the registry's lifetime).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// One JSON object with "counters", "gauges", and "histograms"
  /// (count/mean/p50/p90/p99/max per histogram) — the payload of
  /// `uhscm_cli serve --metrics-json`.
  std::string DumpJson() const;

  /// Human-readable one-metric-per-line dump, sorted by name — what
  /// `uhscm_cli serve` prints, from the same data as DumpJson.
  std::string DumpText() const;

  /// Snapshots of every histogram whose name starts with `prefix`
  /// (sorted by name) — how the benches pull the `stage.*_ns` stage
  /// breakdown into their BENCH_*.json.
  std::vector<std::pair<std::string, HistogramSnapshot>> SnapshotHistograms(
      const std::string& prefix) const;

  /// Zeroes every registered metric (benches isolating phases).
  void ResetAll();

  /// The process-wide registry.
  static MetricsRegistry& Global();

 private:
  /// The bottom of the lock hierarchy: lookups happen under other
  /// subsystems' locks (e.g. a kernel-counter flush inside a shard
  /// lock), so nothing may be acquired beneath this one.
  mutable Mutex mu_{"obs.metrics", 10};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      UHSCM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ UHSCM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      UHSCM_GUARDED_BY(mu_);
};

}  // namespace uhscm::obs

#endif  // UHSCM_OBS_METRICS_H_
