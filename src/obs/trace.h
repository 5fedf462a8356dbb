#ifndef UHSCM_OBS_TRACE_H_
#define UHSCM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/annotated_sync.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace uhscm::obs {

/// The (trace, parent span) pair a request carries through the pipeline
/// so every stage can hang its span under the right parent. trace_id 0
/// means "not sampled" — every recording path checks it first, so
/// unsampled requests never touch the recorder.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  explicit operator bool() const { return trace_id != 0; }
};

/// One span attribute (small integer payloads only — shard ids, batch
/// sizes, row counts).
struct SpanAttr {
  const char* key;
  int64_t value;
};

/// One completed span in the ring buffer. `name` must be a string
/// literal (stage names are a fixed vocabulary — see src/obs/README.md).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  const char* name = "";
  int64_t start_us = 0;  // microseconds since the recorder's epoch
  int64_t dur_us = 0;
  uint32_t tid = 0;  // recording thread, for trace-viewer lanes
  static constexpr int kMaxAttrs = 3;
  int num_attrs = 0;
  SpanAttr attrs[kMaxAttrs] = {};
};

/// \brief Sampling span recorder: a fixed-size ring buffer of completed
/// spans plus per-stage duration histograms in the global registry.
///
/// Requests are sampled at admission (1-in-N); only sampled requests
/// (trace_id != 0) record spans, so the unsampled hot path pays one
/// relaxed load and a branch. The ring is bounded — a long-lived server
/// keeps the most recent spans, old ones are overwritten. Spans export
/// as Chrome trace-event JSON (load the file in chrome://tracing or
/// https://ui.perfetto.dev) and feed the slow-query log.
///
/// Recording takes a short mutex; this is deliberate — spans exist only
/// on sampled requests, so recorder contention is bounded by the sample
/// rate, never by traffic.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity = size_t{1} << 14);

  /// Sample 1 in every `n` requests (0 disables sampling entirely, 1
  /// traces everything).
  void SetSampleEvery(uint32_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Admission-time sampling decision: returns a fresh nonzero trace id
  /// for 1-in-N calls, 0 otherwise (or always 0 when sampling is off or
  /// the runtime kill switch is thrown).
  uint64_t MaybeStartTrace();

  /// Fresh span id (never 0).
  uint64_t NewSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Microseconds since the recorder's construction — the time base all
  /// spans share.
  int64_t NowMicros() const {
    return ToMicros(std::chrono::steady_clock::now());
  }
  int64_t ToMicros(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
        .count();
  }

  /// Records one completed span (no-op when trace_id == 0). Also feeds the span's duration into the
  /// `stage.<name>_ns` histogram of the global registry, so stage
  /// latency distributions accumulate even though the ring is bounded.
  void RecordSpan(uint64_t trace_id, uint64_t span_id, uint64_t parent_id,
                  const char* name, int64_t start_us, int64_t end_us,
                  std::initializer_list<SpanAttr> attrs = {});

  /// Copies the ring's live spans (oldest first).
  std::vector<SpanRecord> Snapshot() const;

  /// Spans currently in the ring (<= capacity).
  size_t size() const;

  /// Writes the ring as Chrome trace-event JSON ("traceEvents" array of
  /// "X" complete events; ts/dur in microseconds).
  Status WriteChromeTrace(const std::string& path) const;

  /// Top-`top_n` slowest root spans (parent_id == 0) at or over
  /// `threshold_ms`, slowest first — the slow-query log.
  std::vector<SpanRecord> SlowSpans(double threshold_ms, int top_n) const;

  /// SlowSpans formatted one-per-line for the serve log.
  std::string SlowQueryLog(double threshold_ms, int top_n) const;

  void Reset();

  /// The process-wide recorder every pipeline stage records into.
  static TraceRecorder& Global();

 private:
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  /// Relaxed, all four: sample_every_ is a runtime config value;
  /// admitted_ is a sampling rotation counter (1-in-N only needs each
  /// fetch_add to claim a distinct sequence number); next_trace_ /
  /// next_span_ are id allocators whose only contract is uniqueness.
  std::atomic<uint32_t> sample_every_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> next_span_{1};
  /// Guards only the span ring. RecordSpan feeds the registry *before*
  /// taking it, so nothing nests beneath it except by rank headroom.
  mutable Mutex mu_{"obs.trace", 12};
  std::vector<SpanRecord> ring_ UHSCM_GUARDED_BY(mu_);
  size_t next_slot_ UHSCM_GUARDED_BY(mu_) = 0;
  bool wrapped_ UHSCM_GUARDED_BY(mu_) = false;
};

/// \brief RAII span: stamps the start on construction, records on
/// destruction. Does nothing (and allocates nothing) when the context
/// is unsampled.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const TraceContext& parent,
             const char* name)
      : recorder_(recorder), name_(name) {
    if (parent) {
      ctx_.trace_id = parent.trace_id;
      parent_span_ = parent.parent_span;
      ctx_.parent_span = recorder_->NewSpanId();  // this span's own id
      start_us_ = recorder_->NowMicros();
    }
  }
  ~ScopedSpan() {
    if (ctx_) {
      recorder_->RecordSpan(ctx_.trace_id, ctx_.parent_span, parent_span_,
                            name_, start_us_, recorder_->NowMicros(),
                            {attrs_[0], attrs_[1], attrs_[2]});
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Context for child spans: same trace, this span as parent.
  const TraceContext& context() const { return ctx_; }

  /// Attaches up to SpanRecord::kMaxAttrs attributes (extras dropped).
  void AddAttr(const char* key, int64_t value) {
    if (ctx_ && num_attrs_ < SpanRecord::kMaxAttrs) {
      attrs_[num_attrs_++] = {key, value};
    }
  }

 private:
  TraceRecorder* recorder_;
  const char* name_;
  TraceContext ctx_;  // trace_id + this span's id (as parent for children)
  uint64_t parent_span_ = 0;
  int64_t start_us_ = 0;
  int num_attrs_ = 0;
  SpanAttr attrs_[SpanRecord::kMaxAttrs] = {
      {nullptr, 0}, {nullptr, 0}, {nullptr, 0}};
};

}  // namespace uhscm::obs

#endif  // UHSCM_OBS_TRACE_H_
