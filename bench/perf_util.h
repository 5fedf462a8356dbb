#ifndef UHSCM_BENCH_PERF_UTIL_H_
#define UHSCM_BENCH_PERF_UTIL_H_

// Small helpers shared by the perf benches (serve_throughput,
// hamming_kernels, micro_perf). Deliberately separate from bench_util.h,
// which wires up the full paper-bench dataset environment these benches
// don't need.

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "index/hamming_kernels.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"

// Injected by CMake (git rev-parse --short HEAD); "unknown" outside a
// git checkout or when building perf_util.h standalone.
#ifndef UHSCM_GIT_SHA
#define UHSCM_GIT_SHA "unknown"
#endif

namespace uhscm::bench {

/// Random {-1,+1} code matrix — the synthetic corpus all perf benches
/// scan.
inline linalg::Matrix RandomSignCodes(int n, int bits, Rng* rng) {
  linalg::Matrix m(n, bits);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return m;
}

/// Best-of-N wall time. Each timed section in the kernel benches is a
/// handful of milliseconds, so a single scheduler preemption can double
/// a reading; the minimum over a few repeats is the standard estimator
/// for "what the code costs when the machine lets it run".
template <typename F>
double TimeBest(int reps, const F& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Default repeat count for TimeBest across the benches.
inline constexpr int kTimingReps = 5;

/// printf-style double formatting for TableWriter cells.
inline std::string Fmt(double v, const char* format = "%.1f") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, v);
  return buffer;
}

/// Writes the `"meta": {...},` line every BENCH_*.json carries: the
/// commit the binary was built from, the dispatched kernel tier, the
/// host's hardware thread count, and a UTC timestamp — enough to compare
/// two result files without the shell history that produced them.
inline void WriteJsonRunMeta(std::FILE* f) {
  char timestamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ",
                  &tm_utc);
  }
  std::fprintf(f,
               "  \"meta\": {\"git_sha\": \"%s\", \"kernel_tier\": \"%s\", "
               "\"hw_threads\": %u, \"timestamp_utc\": \"%s\"},\n",
               UHSCM_GIT_SHA,
               index::KernelTierName(index::ActiveKernelTier()),
               std::thread::hardware_concurrency(), timestamp);
}

/// Writes the `"stage_breakdown": {...},` object: per-stage latency
/// summaries (count / p50 / p99 / mean, in ms) pulled from the global
/// registry's `stage.*_ns` histograms. Stages are populated by traced
/// (sampled) requests — benches run one untimed sampled pass to fill
/// them; an empty object means no span was recorded (sampling off or
/// the observability layer runtime-disabled).
inline void WriteJsonStageBreakdown(std::FILE* f) {
  const auto stages =
      obs::MetricsRegistry::Global().SnapshotHistograms("stage.");
  std::fprintf(f, "  \"stage_breakdown\": {");
  constexpr double kNsPerMs = 1e6;
  for (size_t i = 0; i < stages.size(); ++i) {
    const auto& [name, snap] = stages[i];
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"mean_ms\": %.4f}",
                 i == 0 ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(snap.total),
                 snap.ValueAtPercentile(50.0) / kNsPerMs,
                 snap.ValueAtPercentile(99.0) / kNsPerMs,
                 snap.mean() / kNsPerMs);
  }
  std::fprintf(f, stages.empty() ? "},\n" : "\n  },\n");
}

}  // namespace uhscm::bench

#endif  // UHSCM_BENCH_PERF_UTIL_H_
