#include "serving.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <unordered_set>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_engine.h"

namespace uhscm::ledger {

namespace {

using Millis = std::chrono::duration<double, std::milli>;

constexpr int kTopK = 10;

/// A fixed-rate sender this far behind its schedule has stalled for good
/// (each fixed rate is a small share of the stack's capacity); the phase
/// stops and every unsent request counts as failed.
constexpr double kMaxLateMs = 1000.0;
/// The closed loop keeps this many requests in flight: two full batches,
/// so one is served while the next fills. The backlog is bounded by
/// construction.
constexpr int kInFlight = 64;
/// The closed loop cycles through this many queries of the workload's
/// stream, drawn once before any timing, so that drawing them costs no
/// measured CPU. More than any run sends between two repeats of one draw
/// stays in the 4096-entry result cache.
constexpr int kClosedLoopQueries = 32768;
/// Responses checked against the oracle: 1 in 64 of the fixed-rate and
/// bulk-job responses, 1 in 512 of the far more numerous closed-loop
/// responses (the naive reference scan costs milliseconds per query on
/// the 1M corpus).
constexpr int kSampleEvery = 64;
constexpr int kClosedLoopSampleEvery = 512;
constexpr double kWarmupSeconds = 0.3;
/// An untraced round: a probe, kSetupsPerRound set-up reps, one job rep,
/// a probe, then kWindowsPerRound closed-loop windows.
constexpr int kSetupsPerRound = 3;
constexpr int kWindowsPerRound = 3;
/// The traced run's set-up reps, and the length of each of its two
/// fixed-rate phases as a share of --seconds.
constexpr int kTracedSetups = 5;
constexpr double kTracedPhaseShare = 0.15;
constexpr int kBulkBatch = 32;
/// Bulk reps the traced run times with and without tracing.
constexpr int kOverheadReps = 4;
/// serve-churn's writer: 20 Append(64 codes)/s + 20 RemoveIds(64 ids)/s.
constexpr int kWriteRows = 64;
constexpr double kWriteInterval = 1.0 / 40.0;

serve::ReplicaSetOptions StackOptions(double compact_dead_fraction) {
  serve::ReplicaSetOptions options;
  options.replicas = 1;
  options.serving = ServingOptions();
  options.serving.engine.compact_dead_fraction = compact_dead_fraction;
  return options;
}

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Seeded 1-in-`every` choice of request i.
bool Sampled(uint64_t seed, int64_t i, int every) {
  uint64_t z = seed + static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return ((z ^ (z >> 31)) % static_cast<uint64_t>(every)) == 0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A sampled request and the response it got, verified after the run.
struct Sample {
  std::vector<uint64_t> query;
  std::vector<index::Neighbor> got;
};

std::vector<uint64_t> CodeOf(const index::PackedCodes& queries, int q) {
  return {queries.code(q), queries.code(q) + queries.words_per_code()};
}

void AddSample(const index::PackedCodes& queries, int q,
               std::vector<index::Neighbor> got, std::vector<Sample>* samples) {
  samples->push_back({CodeOf(queries, q), std::move(got)});
}

/// Checks every sample against the oracle, in parallel on the library's
/// pool once the load has stopped. Returns the number that differ and
/// the mean average precision of all of them.
std::pair<int64_t, double> CheckSamples(const Oracle& oracle,
                                        const std::vector<Sample>& samples) {
  if (samples.empty()) Fatal("no response was sampled for checking");
  std::vector<Oracle::Verdict> verdicts(samples.size());
  ParallelFor(static_cast<int>(samples.size()), [&](int i) {
    const Sample& s = samples[static_cast<size_t>(i)];
    verdicts[static_cast<size_t>(i)] = oracle.Check(s.query.data(), kTopK, s.got);
  });
  int64_t mismatched = 0;
  double precision = 0.0;
  for (const Oracle::Verdict& v : verdicts) {
    mismatched += v.identical ? 0 : 1;
    precision += v.average_precision;
  }
  return {mismatched, precision / static_cast<double>(verdicts.size())};
}

/// One open-loop phase: requests sent on a precomputed Poisson schedule
/// regardless of completions, each timed from its due time to the moment
/// its future is ready.
struct Phase {
  int64_t scheduled = 0;
  int64_t sent = 0;
  int64_t failed = 0;  // non-OK responses
  double repeat_share = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
};

/// One closed-loop window: kInFlight requests outstanding throughout.
struct Window {
  int64_t sent = 0;
  int64_t failed = 0;  // non-OK responses
  /// CPU time of the whole process, over all its threads, from the first
  /// request sent to the last one resolved.
  double cpu_s = 0.0;
  /// Requests completed per second of wall time once the pipeline was full.
  double rate = 0.0;
};

double RepeatShare(const index::PackedCodes& queries) {
  std::unordered_set<uint64_t> seen;
  int64_t repeats = 0;
  for (int i = 0; i < queries.size(); ++i) {
    uint64_t h = 1469598103934665603ULL;
    for (int w = 0; w < queries.words_per_code(); ++w) {
      h = (h ^ queries.code(i)[w]) * 1099511628211ULL;
    }
    if (!seen.insert(h).second) ++repeats;
  }
  return Ratio(static_cast<double>(repeats), queries.size());
}

/// Sends `queries` at `rate` from this thread while a collector thread
/// waits on the futures in order. Returns once every sent request has
/// resolved, so a following phase starts on a drained pipeline. A seeded
/// 1-in-`sample_every` of the requests and their responses go to
/// `samples`.
Phase RunOpenLoop(ServingStack* stack, const index::PackedCodes& queries,
                  double rate, int k, uint64_t seed, int sample_every,
                  std::vector<Sample>* samples) {
  const int n = queries.size();
  const std::vector<double> due =
      PoissonSchedule(rate, n, StreamSeed(seed, "arrivals"));
  std::vector<std::future<serve::SearchResponse>> futures(
      static_cast<size_t>(n));
  Phase phase;
  phase.scheduled = n;
  phase.repeat_share = RepeatShare(queries);
  phase.latency_ms.resize(static_cast<size_t>(n));
  phase.late_ms.resize(static_cast<size_t>(n));

  // The number of requests sent so far; kClosed is added once the sender
  // has stopped. The collector blocks on it rather than polling, so it
  // takes no CPU from the stack while it waits.
  constexpr int kClosed = 1 << 30;
  std::atomic<int> published{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  LoadThread collector([&] {
    for (int i = 0;; ++i) {
      published.wait(i, std::memory_order_acquire);
      const int state = published.load(std::memory_order_acquire);
      if (state >= kClosed && i >= state - kClosed) return;
      std::future<serve::SearchResponse>& future =
          futures[static_cast<size_t>(i)];
      future.wait();
      phase.latency_ms[static_cast<size_t>(i)] =
          Millis(Clock::now() - After(start, due[static_cast<size_t>(i)]))
              .count();
      serve::SearchResponse response = future.get();
      if (!response.status.ok()) {
        ++phase.failed;
      } else if (Sampled(seed, i, sample_every)) {
        AddSample(queries, i, std::move(response.neighbors), samples);
      }
    }
  });

  int sent = 0;
  for (; sent < n; ++sent) {
    const Clock::time_point when = After(start, due[static_cast<size_t>(sent)]);
    std::this_thread::sleep_until(when);
    const double late = Millis(Clock::now() - when).count();
    if (late > kMaxLateMs) break;
    futures[static_cast<size_t>(sent)] =
        stack->batcher().Submit(queries, sent, k);
    phase.late_ms[static_cast<size_t>(sent)] = late;
    published.store(sent + 1, std::memory_order_release);
    published.notify_one();
  }
  published.store(sent + kClosed, std::memory_order_release);
  published.notify_one();
  collector.Join();

  phase.sent = sent;
  phase.latency_ms.resize(static_cast<size_t>(sent));
  phase.late_ms.resize(static_cast<size_t>(sent));
  return phase;
}

/// Runs a closed loop from this thread for `seconds`: kInFlight requests
/// stay outstanding, and each one that resolves, taken in send order, is
/// replaced by the next. The stack runs saturated with a bounded backlog.
/// Queries come from `pool` in turn, from `*next` on, wrapping around.
/// Requests still in flight when the window closes are collected but left
/// out of the rate. A seeded 1-in-kClosedLoopSampleEvery of the requests
/// and their responses go to `samples`.
Window RunClosedLoop(ServingStack* stack, const index::PackedCodes& pool, int* next,
                     double seconds, uint64_t seed, std::vector<Sample>* samples) {
  struct Slot {
    std::future<serve::SearchResponse> future;
    std::vector<uint64_t> checked_query;  // empty unless sampled
  };
  std::vector<Slot> ring(kInFlight);
  int64_t issued = 0;
  auto submit = [&](Slot* slot) {
    const int q = *next;
    *next = (q + 1) % pool.size();
    slot->checked_query.clear();
    if (Sampled(seed, issued++, kClosedLoopSampleEvery)) {
      slot->checked_query = CodeOf(pool, q);
    }
    slot->future = stack->batcher().Submit(pool, q, kTopK);
  };

  Window window;
  window.cpu_s = TimeCall([&] {
    for (Slot& slot : ring) submit(&slot);
    // The window opens once the first kInFlight requests, sent as one
    // burst, have resolved; every request after them was sent into a
    // steady pipeline.
    Clock::time_point start, end, last;
    int64_t resolved = 0;
    int64_t completed = 0;  // resolved while the window was open
    bool open = true;
    for (size_t i = 0, pending = ring.size(); pending > 0; i = (i + 1) % ring.size()) {
      Slot& slot = ring[i];
      if (!slot.future.valid()) continue;  // drained after the window closed
      serve::SearchResponse response = slot.future.get();
      const Clock::time_point now = Clock::now();
      --pending;
      ++window.sent;
      if (!response.status.ok()) {
        ++window.failed;
      } else if (!slot.checked_query.empty()) {
        samples->push_back({std::move(slot.checked_query), std::move(response.neighbors)});
      }
      if (!open) continue;
      if (++resolved == kInFlight) {
        start = now;
        end = After(start, seconds);
      } else if (resolved > kInFlight) {
        ++completed;
        last = now;
        open = now < end;
      }
      if (open) {
        submit(&slot);
        ++pending;
      }
    }
    window.rate = Ratio(static_cast<double>(completed),
                        std::chrono::duration<double>(last - start).count());
  }).cpu_s;
  return window;
}

/// The caller-batched bulk query: `queries` answered by one caller
/// through the engine in batches of 32.
Timing RunBulk(serve::QueryEngine* engine, const index::PackedCodes& queries,
               int k, bool traced, uint64_t seed, std::vector<Sample>* samples) {
  const std::vector<index::PackedCodes> batches =
      serve::SliceBatches(queries, kBulkBatch);
  std::vector<std::vector<std::vector<index::Neighbor>>> results;
  results.reserve(batches.size());
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const Timing timing = TimeCall([&] {
    for (const index::PackedCodes& batch : batches) {
      obs::TraceContext context;
      if (traced) context.trace_id = recorder.MaybeStartTrace();
      results.push_back(engine->Search(batch, k, context));
    }
  });
  for (int q = 0; q < queries.size(); ++q) {
    if (Sampled(seed, q, kSampleEvery)) {
      AddSample(queries, q,
                std::move(results[static_cast<size_t>(q / kBulkBatch)]
                                 [static_cast<size_t>(q % kBulkBatch)]),
                samples);
    }
  }
  return timing;
}

/// \brief serve-churn's writer thread: alternating Append(64 codes of a
/// stream of its own) and RemoveIds(64 random live ids) on an open-loop
/// 40/s schedule, through the replica set's update fan-out, timing every
/// call.
class ChurnWriter {
 public:
  ChurnWriter(serve::ReplicaSet* replicas, QueryStream appends, int rows,
              uint64_t seed)
      : replicas_(replicas),
        appends_(std::move(appends)),
        rng_(seed),
        live_(static_cast<size_t>(rows)),
        thread_([this] { Loop(); }) {}

  ~ChurnWriter() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.Join();
  }

  /// Valid after Stop().
  const std::vector<double>& append_ms() const { return append_ms_; }
  const std::vector<double>& remove_ms() const { return remove_ms_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  void Loop() {
    for (size_t i = 0; i < live_.size(); ++i) live_[i] = static_cast<int>(i);
    const Clock::time_point start = Clock::now();
    for (int64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
      std::this_thread::sleep_until(
          After(start, static_cast<double>(i) * kWriteInterval));
      ++attempted_;
      if (i % 2 == 0) {
        const index::PackedCodes codes = appends_(kWriteRows);
        std::vector<int> ids;
        append_ms_.push_back(
            1e3 * TimeSeconds([&] { ids = replicas_->Append(codes); }));
        if (static_cast<int>(ids.size()) != kWriteRows) ++failed_;
        live_.insert(live_.end(), ids.begin(), ids.end());
      } else {
        std::vector<int> ids;
        for (int j = 0; j < kWriteRows; ++j) {
          const size_t pick =
              static_cast<size_t>(rng_.UniformInt(live_.size()));
          ids.push_back(live_[pick]);
          live_[pick] = live_.back();
          live_.pop_back();
        }
        int removed = 0;
        remove_ms_.push_back(
            1e3 * TimeSeconds([&] { removed = replicas_->RemoveIds(ids); }));
        if (removed != kWriteRows) ++failed_;
      }
    }
  }

  serve::ReplicaSet* replicas_;
  QueryStream appends_;
  Rng rng_;
  std::vector<int> live_;
  std::vector<double> append_ms_;
  std::vector<double> remove_ms_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::atomic<bool> stop_{false};
  LoadThread thread_;  // last: Loop reads every member above
};

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Mean span time of one pipeline stage since the last ResetAll. Spans
/// are stamped in whole microseconds; the mean of many stays unbiased
/// where a percentile would read one bucket run after run.
double StageMeanMs(const std::string& stage) {
  return obs::MetricsRegistry::Global()
             .GetHistogram("stage." + stage + "_ns")
             ->Snapshot()
             .mean() /
         1e6;
}

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// Per-layer serving metrics from the registry (filled by the traced
/// phase since the last ResetAll) and the pipeline counters' change
/// across it.
void ReportServeLayers(const serve::ServeStatsSnapshot& before,
                       const serve::ServeStatsSnapshot& after,
                       int words_per_code, Report* report) {
  const double by_size = static_cast<double>(after.batches_flushed_by_size -
                                             before.batches_flushed_by_size);
  const double by_timeout = static_cast<double>(
      after.batches_flushed_by_timeout - before.batches_flushed_by_timeout);
  const double queries = static_cast<double>(after.queries - before.queries);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const double rows = static_cast<double>(CounterValue("scan.rows_scanned"));
  const obs::HistogramSnapshot shard_scans =
      obs::MetricsRegistry::Global().GetHistogram("stage.shard-scan_ns")->Snapshot();

  report->Layer("serve.admit_mean_ms", StageMeanMs("admit"));
  report->Layer("serve.route_mean_ms", StageMeanMs("route"));
  report->Layer("serve.search_mean_ms", StageMeanMs("search"));
  report->Layer("serve.cache_lookup_mean_ms", StageMeanMs("cache-lookup"));
  report->Layer("serve.scan_mean_ms", StageMeanMs("scan"));
  report->Layer("serve.merge_mean_ms", StageMeanMs("merge"));
  report->Layer("serve.flush_timeout_frac", Ratio(by_timeout, by_size + by_timeout));
  report->Layer("serve.batch_mean", Ratio(queries, by_size + by_timeout));
  report->Layer("cache.hit_rate", Ratio(hits, hits + misses));
  report->Layer("index.rows_scanned_per_query", Ratio(rows, misses));
  report->Layer("index.blocks_skipped_frac",
                Ratio(static_cast<double>(CounterValue("scan.blocks_skipped")),
                      static_cast<double>(CounterValue("scan.early_abandon_calls"))));
  // Bytes the kernels read per nanosecond of shard-scan span time: GB/s
  // per busy scan thread.
  report->Layer("index.scan_gbps",
                Ratio(rows * 8.0 * words_per_code,
                      static_cast<double>(shard_scans.sum)));
}

}  // namespace

serve::ServingSnapshotOptions ServingOptions() {
  serve::ServingSnapshotOptions options;
  options.index.num_shards = 4;
  options.engine.num_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  return options;
}

ServingStack::ServingStack(const io::CodesSnapshot& snapshot,
                           double compact_dead_fraction)
    : replicas_(snapshot, StackOptions(compact_dead_fraction)),
      router_(&replicas_, serve::RoutePolicy::kLeastLoaded),
      batcher_(&router_, serve::BatcherOptions{}) {}

Oracle::Oracle(index::PackedCodes codes,
               const std::vector<uint64_t>& tombstone_words)
    : scan_(std::move(codes)) {
  const index::TombstoneSet dead =
      index::TombstoneSet::FromWords(scan_.total_size(), tombstone_words);
  for (int i = 0; i < scan_.total_size(); ++i) {
    if (dead.Test(i)) scan_.Remove(i);
  }
}

Oracle::Verdict Oracle::Check(const uint64_t* query, int k,
                              const std::vector<index::Neighbor>& got) const {
  const std::vector<index::Neighbor> want = scan_.TopK(query, k);
  Verdict verdict;
  verdict.identical = want.size() == got.size();
  for (size_t i = 0; verdict.identical && i < want.size(); ++i) {
    verdict.identical = want[i].id == got[i].id && want[i].distance == got[i].distance;
  }
  if (want.empty()) {
    verdict.average_precision = got.empty() ? 1.0 : 0.0;
    return verdict;
  }
  std::unordered_set<int> relevant;
  for (const index::Neighbor& n : want) relevant.insert(n.id);
  int hits = 0;
  double precision = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (relevant.count(got[i].id) > 0) {
      ++hits;
      precision += static_cast<double>(hits) / static_cast<double>(i + 1);
    }
  }
  verdict.average_precision = precision / static_cast<double>(want.size());
  return verdict;
}

double RunServing(const RunConfig& config, const ServingSpec& spec,
                  ServingStack* stack, const QueryStream& stream,
                  const Oracle* oracle, Report* report) {
  const int words_per_code = (stack->engine().index().bits() + 63) / 64;
  std::unique_ptr<ChurnWriter> writer;
  if (spec.churn) {
    writer = std::make_unique<ChurnWriter>(
        &stack->replicas(), spec.appends, stack->engine().index().total_size(),
        StreamSeed(config.seed, "writer"));
  }
  const serve::ServeStatsSnapshot run_start = stack->batcher().stats();
  std::vector<Sample> samples;
  int phases = 0;
  auto phase_seed = [&] {
    return StreamSeed(config.seed, "phase" + std::to_string(phases++));
  };
  auto fixed_phase = [&](double seconds) {
    const int n = std::max(1, static_cast<int>(std::llround(spec.fixed_rate * seconds)));
    Phase phase = RunOpenLoop(stack, stream(n), spec.fixed_rate, kTopK, phase_seed(),
                              kSampleEvery, &samples);
    report->Attempt(phase.scheduled);
    report->Fail(phase.failed, "request resolved with a non-OK status");
    // At the fixed rate every scheduled request must be served.
    report->Fail(phase.scheduled - phase.sent,
                 "fixed-rate sender fell behind its schedule");
    return phase;
  };
  int bulk_reps = 0;
  const JobRep bulk = [&](bool traced) {
    const index::PackedCodes queries = stream(spec.bulk_queries);
    report->Attempt(queries.size());
    return RunBulk(&stack->engine(), queries, kTopK, traced,
                   StreamSeed(config.seed, "bulk" + std::to_string(bulk_reps++)),
                   &samples);
  };
  const JobRep job = spec.job ? spec.job : bulk;

  if (!config.trace) {
    const index::PackedCodes pool = stream(kClosedLoopQueries);
    int next = 0;
    auto window = [&](double seconds) {
      const Window w = RunClosedLoop(stack, pool, &next, seconds, phase_seed(), &samples);
      report->Attempt(w.sent);
      report->Fail(w.failed, "request resolved with a non-OK status");
      return w;
    };
    window(kWarmupSeconds);  // lets caches fill and lazy set-up finish
    // Each metric is the median of its samples over the rounds (a set-up
    // rep, a job rep, a window's CPU per request). Rounds interleave every
    // kind of sample, so each metric spans the whole run, and the probes
    // span it too.
    const StealMeter steal;
    std::vector<double> probes, setup_cpu, job_cpu, job_wall, request_cpu, rates;
    int rounds = 0;
    for (double measured = 0.0; measured < config.seconds; ++rounds) {
      const Clock::time_point start = Clock::now();
      probes.push_back(ProbeSeconds());
      for (int i = 0; i < kSetupsPerRound; ++i) {
        double cpu = 0.0;
        for (const auto& [stage, timing] : spec.setup()) cpu += timing.cpu_s;
        setup_cpu.push_back(cpu);
      }
      const Timing rep = job(false);
      job_cpu.push_back(rep.cpu_s);
      job_wall.push_back(rep.wall_s);
      probes.push_back(ProbeSeconds());
      for (int w = 0; w < kWindowsPerRound; ++w) {
        const Window closed = window(spec.window_seconds);
        request_cpu.push_back(closed.cpu_s / static_cast<double>(closed.sent));
        rates.push_back(closed.rate);
      }
      measured += SecondsSince(start);
    }
    const double probe = Median(probes);
    const double scale = kReferenceProbeSeconds / probe;
    report->E2e("setup_s", Median(setup_cpu) * scale);
    report->E2e("job_cpu_s", Median(job_cpu) * scale);
    report->E2e("req_cpu_us", 1e6 * Median(request_cpu) * scale);
    // Wall-clock readings and the host's state, for context: on a shared
    // host they move with its load, so no bound applies to them.
    report->Diag("host.probe_s", probe);
    report->Diag("host.steal_share", steal.Share());
    report->Diag("rounds", rounds);
    report->Diag("job.wall_s", Median(job_wall));
    report->Diag("serve.closed_qps", Median(rates));
  } else {
    fixed_phase(kWarmupSeconds);  // lets caches fill and lazy set-up finish
    // Set-up reps, each stage's CPU time reported as its own layer.
    std::map<std::string, std::vector<double>> stages;
    for (int i = 0; i < kTracedSetups; ++i) {
      for (const auto& [stage, timing] : spec.setup()) {
        stages[stage].push_back(timing.cpu_s);
      }
    }
    for (const auto& [stage, cpu] : stages) report->Layer(stage, Median(cpu));

    const double phase_seconds = kTracedPhaseShare * config.seconds;
    const Phase fixed = fixed_phase(phase_seconds);
    report->Layer("lat.p50_ms", Median(fixed.latency_ms));
    report->Layer("lat.p99_ms", Percentile(fixed.latency_ms, 99.0));
    report->Layer("gen.late_p99_ms", Percentile(fixed.late_ms, 99.0));
    report->Layer("serve.repeat_share", fixed.repeat_share);

    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.SetSampleEvery(1);
    obs::MetricsRegistry::Global().ResetAll();
    const serve::ServeStatsSnapshot before = stack->batcher().stats();
    fixed_phase(phase_seconds);
    ReportServeLayers(before, stack->batcher().stats(), words_per_code, report);
    recorder.SetSampleEvery(0);

    // A workload with a job of its own attributes one rep per layer.
    if (spec.job) spec.job(true);
    // Tracing overhead on the serving path: the CPU time of bulk reps with
    // and without tracing, alternated.
    std::vector<double> untraced, traced;
    for (int r = 0; r < kOverheadReps; ++r) {
      untraced.push_back(bulk(false).cpu_s);
      recorder.SetSampleEvery(1);
      traced.push_back(bulk(true).cpu_s);
      recorder.SetSampleEvery(0);
    }
    report->Layer("trace.overhead_frac", Median(traced) / Median(untraced) - 1.0);
  }

  if (writer != nullptr) {
    writer->Stop();
    report->Attempt(writer->attempted());
    report->Fail(writer->failed(), "write did not apply to 64 rows");
    const serve::ServeStatsSnapshot run_end = stack->batcher().stats();
    // Write latency is per-layer only: from run to run it swings far wider
    // than any bound an end-to-end metric could carry.
    if (config.trace) {
      report->Layer("update.append_mean_ms", Mean(writer->append_ms()));
      report->Layer("update.remove_mean_ms", Mean(writer->remove_ms()));
      report->Layer("compact.count", static_cast<double>(run_end.compactions -
                                                         run_start.compactions));
      report->Layer("compact.total_ms",
                    run_end.compaction_ms - run_start.compaction_ms);
    }
  }

  std::pair<int64_t, double> checked;
  const double check_s = TimeSeconds([&] {
    if (!spec.churn) {
      checked = CheckSamples(*oracle, samples);
      return;
    }
    // The corpus moved under every response, so churn checks after the
    // run: the sampled queries again, against the engine's own export.
    uint64_t epoch = 0;
    serve::CorpusExport corpus = stack->engine().ExportCorpus(&epoch);
    const Oracle final_oracle(std::move(corpus.codes), corpus.tombstone_words);
    std::vector<std::future<serve::SearchResponse>> futures;
    for (const Sample& sample : samples) {
      futures.push_back(stack->batcher().Submit(
          sample.query.data(), static_cast<int>(sample.query.size()), kTopK));
    }
    int64_t failed = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      serve::SearchResponse response = futures[i].get();
      if (!response.status.ok()) ++failed;
      samples[i].got = std::move(response.neighbors);
    }
    report->Attempt(static_cast<int64_t>(futures.size()));
    report->Fail(failed, "post-churn request resolved with a non-OK status");
    checked = CheckSamples(final_oracle, samples);
  });
  report->Fail(checked.first, "response differs from LinearScanIndex::TopK");
  report->Diag("wall.check_s", check_s);
  return checked.second;
}

}  // namespace uhscm::ledger
