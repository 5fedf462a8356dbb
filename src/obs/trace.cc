#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>

namespace uhscm::obs {

namespace {

/// Small dense thread ids for trace-viewer lanes (std::thread::id is
/// opaque and unstable across runs).
uint32_t CurrentTid() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)),
      epoch_(std::chrono::steady_clock::now()) {}

uint64_t TraceRecorder::MaybeStartTrace() {
  const uint32_t n = sample_every_.load(std::memory_order_relaxed);
  if (n == 0 || !RuntimeEnabled()) return 0;
  const uint64_t seq = admitted_.fetch_add(1, std::memory_order_relaxed);
  if (seq % n != 0) return 0;
  return next_trace_.fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::RecordSpan(uint64_t trace_id, uint64_t span_id,
                               uint64_t parent_id, const char* name,
                               int64_t start_us, int64_t end_us,
                               std::initializer_list<SpanAttr> attrs) {
  if (trace_id == 0) return;
  SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = span_id;
  rec.parent_id = parent_id;
  rec.name = name;
  rec.start_us = start_us;
  rec.dur_us = std::max<int64_t>(0, end_us - start_us);
  rec.tid = CurrentTid();
  for (const SpanAttr& a : attrs) {
    if (a.key != nullptr && rec.num_attrs < SpanRecord::kMaxAttrs) {
      rec.attrs[rec.num_attrs++] = a;
    }
  }
  // Stage duration distributions survive ring wraparound: they
  // accumulate in the registry, keyed by the span's stage name.
  MetricsRegistry::Global()
      .GetHistogram(std::string("stage.") + name + "_ns")
      ->Record(rec.dur_us * 1000);
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
  } else {
    ring_[next_slot_] = rec;
    wrapped_ = true;
  }
  next_slot_ = (next_slot_ + 1) % capacity_;
}

std::vector<SpanRecord> TraceRecorder::Snapshot() const {
  MutexLock lock(mu_);
  if (!wrapped_) return ring_;
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_slot_ + i) % ring_.size()]);
  }
  return out;
}

size_t TraceRecorder::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output: " + path);
  }
  const std::vector<SpanRecord> spans = Snapshot();
  std::fputs("{\"traceEvents\": [", f);
  bool first = true;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %" PRId64
                 ", \"dur\": %" PRId64
                 ", \"pid\": 1, \"tid\": %u, \"args\": {\"trace_id\": %" PRIu64
                 ", \"span_id\": %" PRIu64 ", \"parent_id\": %" PRIu64,
                 first ? "" : ",", s.name, s.start_us, s.dur_us, s.tid,
                 s.trace_id, s.span_id, s.parent_id);
    for (int i = 0; i < s.num_attrs; ++i) {
      std::fprintf(f, ", \"%s\": %" PRId64, s.attrs[i].key, s.attrs[i].value);
    }
    std::fputs("}}", f);
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    return Status::Internal("error writing trace output: " + path);
  }
  return Status::OK();
}

std::vector<SpanRecord> TraceRecorder::SlowSpans(double threshold_ms,
                                                 int top_n) const {
  std::vector<SpanRecord> roots;
  for (const SpanRecord& s : Snapshot()) {
    if (s.parent_id == 0 &&
        static_cast<double>(s.dur_us) / 1000.0 >= threshold_ms) {
      roots.push_back(s);
    }
  }
  std::sort(roots.begin(), roots.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.dur_us > b.dur_us;
            });
  if (top_n >= 0 && roots.size() > static_cast<size_t>(top_n)) {
    roots.resize(static_cast<size_t>(top_n));
  }
  return roots;
}

std::string TraceRecorder::SlowQueryLog(double threshold_ms, int top_n) const {
  std::string out;
  char buffer[256];
  for (const SpanRecord& s : SlowSpans(threshold_ms, top_n)) {
    std::snprintf(buffer, sizeof(buffer),
                  "slow-query trace=%" PRIu64 " stage=%s dur_ms=%.3f",
                  s.trace_id, s.name,
                  static_cast<double>(s.dur_us) / 1000.0);
    out += buffer;
    for (int i = 0; i < s.num_attrs; ++i) {
      std::snprintf(buffer, sizeof(buffer), " %s=%" PRId64, s.attrs[i].key,
                    s.attrs[i].value);
      out += buffer;
    }
    out += '\n';
  }
  return out;
}

void TraceRecorder::Reset() {
  MutexLock lock(mu_);
  ring_.clear();
  next_slot_ = 0;
  wrapped_ = false;
  admitted_.store(0, std::memory_order_relaxed);
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

}  // namespace uhscm::obs
