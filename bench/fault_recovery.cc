// fault_recovery — what a replica kill costs the serving pipeline, and
// what hedging buys back under an injected straggler.
//
// Phase A (kill -> respawn under load): 3 supervised replicas serve a
// sustained open-loop query stream; mid-run one replica is killed. The
// batches in flight on the corpse come back Unavailable and retry onto
// the survivors (no request fails), the supervisor respawns the replica
// (rebuild from the retained base snapshot + journal replay + coherence
// verify + atomic slot swap), and the QPS timeline records the dip and
// the return to steady state. Recovery time is read back from the
// pipeline.time_to_recovery_ns histogram the respawn path records, and
// the respawned replica is probed for byte-identity against a
// never-killed reference engine.
//
// Phase B (hedged vs unhedged tail, faults build only): one of two
// replicas stochastically stalls (replica.slow_batch, p=5%, ~10x the
// normal batch latency). The same request stream runs with hedging off
// and with a 30% hedge budget; first completion wins, so a batch stuck
// behind the injected stall is re-issued to the healthy replica after
// the hedge delay and the hedged arm's p99 must not exceed the
// unhedged arm's.
//
// Acceptance gates (armed at the default size on >= 4-core hosts):
//   * Phase A: zero failed requests across the kill, >= 1 supervised
//     respawn, a finite recorded recovery time, and byte-identical
//     post-recovery results.
//   * Phase B: hedged p99 <= unhedged p99.
// Emits BENCH_fault_recovery.json; exits 1 on a gate failure.
//
//   $ ./build/fault_recovery [--n=50000] [--bits=128] [--k=10]
//                            [--requests=4096] [--clients=4]
//                            [--seed=2023]
//                            [--json=BENCH_fault_recovery.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "index/packed_codes.h"
#include "obs/metrics.h"
#include "perf_util.h"
#include "serve/batcher.h"
#include "serve/fault.h"
#include "serve/query_engine.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"

namespace uhscm::bench {
namespace {

struct Flags {
  int n = 50000;
  int bits = 128;
  int k = 10;
  int requests = 4096;
  int clients = 4;
  uint64_t seed = 2023;
  std::string json = "BENCH_fault_recovery.json";
};

Flags ParseFaultFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--n=")) {
      flags.n = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--bits=")) {
      flags.bits = std::atoi(arg.c_str() + 7);
    } else if (StartsWith(arg, "--k=")) {
      flags.k = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--requests=")) {
      flags.requests = std::max(64, std::atoi(arg.c_str() + 11));
    } else if (StartsWith(arg, "--clients=")) {
      flags.clients = std::max(1, std::atoi(arg.c_str() + 10));
    } else if (StartsWith(arg, "--seed=")) {
      flags.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (StartsWith(arg, "--json=")) {
      flags.json = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: fault_recovery [--n=N] [--bits=K] [--k=K] "
                   "[--requests=N] [--clients=C] [--seed=N] [--json=PATH]\n");
      std::exit(2);
    }
  }
  return flags;
}

/// Phase A outcome: the QPS timeline around the kill plus the recovery
/// accounting the replica set and registry kept.
struct KillRunResult {
  double qps_before = 0.0;  // steady state ahead of the kill
  double qps_dip = 0.0;     // worst 20ms bucket right after the kill
  double qps_after = 0.0;   // steady state at the end of the run
  double recovery_ms = -1.0;
  int64_t respawns = 0;
  int64_t retries = 0;
  int64_t failures = 0;
  std::vector<int64_t> timeline;  // completed requests per 20ms bucket
  int kill_bucket = 0;
};

constexpr int64_t kBucketMs = 20;

/// Sustained load with a mid-run kill: `clients` threads each pump
/// waves of requests until the deadline; the main thread buckets the
/// completion counter every 20ms, kills replica 1 at the 1/3 mark, and
/// lets the supervisor bring it back.
KillRunResult RunKillRecovery(const index::PackedCodes& corpus,
                              const index::PackedCodes& queries, int k,
                              int clients, int64_t duration_ms) {
  serve::ReplicaSetOptions options;
  options.replicas = 3;
  options.serving.index.num_shards = 4;
  options.serving.engine.cache_capacity = 0;
  options.supervise = true;
  options.supervise_interval_ms = 1;
  serve::ReplicaSet replica_set(corpus, options);
  serve::Router router(&replica_set, serve::RoutePolicy::kLeastLoaded);
  serve::BatcherOptions batcher_options;
  batcher_options.max_batch = 64;
  batcher_options.timeout_us = 500;
  serve::Batcher batcher(&router, batcher_options);

  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> failures{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng wave_rng(static_cast<uint64_t>(c) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<std::future<serve::SearchResponse>> futures;
        futures.reserve(128);
        for (int i = 0; i < 128; ++i) {
          const int q = static_cast<int>(
              wave_rng.UniformInt(static_cast<uint64_t>(queries.size())));
          futures.push_back(batcher.Submit(queries, q, k));
        }
        for (std::future<serve::SearchResponse>& future : futures) {
          if (future.get().status.ok()) {
            completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // 20ms completion buckets; the kill lands at the 1/3 mark.
  KillRunResult result;
  const int buckets = static_cast<int>(duration_ms / kBucketMs);
  result.kill_bucket = buckets / 3;
  int64_t previous = 0;
  for (int b = 0; b < buckets; ++b) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kBucketMs));
    if (b == result.kill_bucket) replica_set.replica(1)->Kill();
    const int64_t now = completed.load(std::memory_order_relaxed);
    result.timeline.push_back(now - previous);
    previous = now;
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  const auto bucket_qps = [](int64_t count) {
    return static_cast<double>(count) * 1000.0 / kBucketMs;
  };
  // Steady-state windows skip the first few warmup buckets and average;
  // the dip is the single worst bucket in the 300ms after the kill.
  int64_t before_sum = 0;
  int before_count = 0;
  for (int b = 2; b < result.kill_bucket; ++b) {
    before_sum += result.timeline[static_cast<size_t>(b)];
    ++before_count;
  }
  result.qps_before =
      before_count > 0 ? bucket_qps(before_sum / before_count) : 0.0;
  int64_t dip = result.timeline[static_cast<size_t>(result.kill_bucket)];
  const int dip_end = std::min(buckets, result.kill_bucket + 1 +
                                            static_cast<int>(300 / kBucketMs));
  for (int b = result.kill_bucket; b < dip_end; ++b) {
    dip = std::min(dip, result.timeline[static_cast<size_t>(b)]);
  }
  result.qps_dip = bucket_qps(dip);
  int64_t after_sum = 0;
  int after_count = 0;
  for (int b = std::max(result.kill_bucket + 1, buckets - 10); b < buckets;
       ++b) {
    after_sum += result.timeline[static_cast<size_t>(b)];
    ++after_count;
  }
  result.qps_after =
      after_count > 0 ? bucket_qps(after_sum / after_count) : 0.0;

  const serve::ServeStatsSnapshot stats = batcher.stats();
  result.retries = stats.retries;
  result.failures = failures.load();
  result.respawns = replica_set.respawns();
  const obs::HistogramSnapshot recovery =
      obs::MetricsRegistry::Global()
          .GetHistogram("pipeline.time_to_recovery_ns")
          ->Snapshot();
  if (!recovery.empty()) result.recovery_ms = recovery.mean() / 1e6;

  // Byte-identity probe: the respawned replica must answer exactly like
  // a reference engine that never saw a kill.
  batcher.Drain();
  replica_set.DrainAll();
  serve::ServingSnapshotOptions reference_options;
  reference_options.index.num_shards = 4;
  reference_options.engine.cache_capacity = 0;
  auto reference = serve::MakeQueryEngine(
      index::PackedCodes::FromRawWords(corpus.size(), corpus.bits(),
                                       corpus.words()),
      reference_options);
  for (int q = 0; q < 32; ++q) {
    const auto expect = reference->SearchOne(queries.code(q), k);
    const auto got = replica_set.replica(1)->SearchOne(queries.code(q), k);
    if (expect.size() != got.size()) {
      std::fprintf(stderr, "FATAL: post-recovery result size diverged\n");
      std::exit(1);
    }
    for (size_t i = 0; i < expect.size(); ++i) {
      if (expect[i].id != got[i].id ||
          expect[i].distance != got[i].distance) {
        std::fprintf(stderr,
                     "FATAL: post-recovery results not byte-identical "
                     "(query %d rank %zu)\n",
                     q, i);
        std::exit(1);
      }
    }
  }
  return result;
}

struct HedgeRunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t hedges = 0;
  int64_t hedge_wins = 0;
};

/// One arm of the straggler A/B: 2 replicas, replica 0 armed to stall
/// 5% of its batches, the given hedge budget (0 = the unhedged arm).
HedgeRunResult RunStragglerArm(const index::PackedCodes& corpus,
                               const index::PackedCodes& queries, int k,
                               int clients, uint64_t seed,
                               double hedge_budget) {
  serve::FaultInjector& injector = serve::FaultInjector::Global();
  injector.Reset();
  injector.Seed(seed);
  serve::FaultSpec stall;
  stall.probability = 0.05;
  stall.delay_ns = 20LL * 1000 * 1000;  // ~10x a healthy batch
  injector.Arm(std::string(serve::kFaultSlowBatch) + "#0", stall);

  serve::ReplicaSetOptions options;
  options.replicas = 2;
  options.serving.index.num_shards = 4;
  options.serving.engine.cache_capacity = 0;
  serve::ReplicaSet replica_set(corpus, options);
  serve::Router router(&replica_set, serve::RoutePolicy::kLeastLoaded);
  serve::BatcherOptions batcher_options;
  batcher_options.max_batch = 64;
  batcher_options.timeout_us = 500;
  batcher_options.hedge_budget = hedge_budget;
  // Fixed delay, not the p99 auto-derivation: both arms must differ in
  // the budget alone. 5ms sits above a healthy batch and far below the
  // injected 20ms stall.
  batcher_options.hedge_delay_us = 5000;
  serve::Batcher batcher(&router, batcher_options);

  std::atomic<int64_t> failures{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<serve::SearchResponse>> futures;
      for (int q = c; q < queries.size(); q += clients) {
        futures.push_back(batcher.Submit(queries, q, k));
      }
      for (std::future<serve::SearchResponse>& future : futures) {
        if (!future.get().status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = wall.ElapsedSeconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "FATAL: %lld straggler-arm requests failed\n",
                 static_cast<long long>(failures.load()));
    std::exit(1);
  }

  const serve::ServeStatsSnapshot stats = batcher.stats();
  HedgeRunResult result;
  result.qps = seconds > 0.0 ? queries.size() / seconds : 0.0;
  result.p50_ms = stats.latency_p50_ms;
  result.p99_ms = stats.latency_p99_ms;
  result.hedges = stats.hedges;
  result.hedge_wins = stats.hedge_wins;
  batcher.Drain();
  replica_set.DrainAll();
  injector.Reset();
  return result;
}

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags = ParseFaultFlags(argc, argv);
  Rng rng(flags.seed);
  const index::PackedCodes corpus = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(flags.n, flags.bits, &rng));
  const index::PackedCodes queries = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(flags.requests, flags.bits, &rng));
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::printf(
      "corpus n=%d bits=%d | %d requests, k=%d, %d clients, "
      "%d hardware threads\n\n",
      flags.n, flags.bits, flags.requests, flags.k, flags.clients, hw);

  // ---- Phase A: kill -> supervised respawn under load ----
  const int64_t duration_ms = 1200;
  const KillRunResult kill = RunKillRecovery(corpus, queries, flags.k,
                                             flags.clients, duration_ms);
  TableWriter kill_table({"phase", "qps_before", "qps_dip", "qps_after",
                          "recovery_ms", "respawns", "retries", "failures"});
  kill_table.AddRow({"kill-respawn", Fmt(kill.qps_before), Fmt(kill.qps_dip),
                     Fmt(kill.qps_after), Fmt(kill.recovery_ms, "%.3f"),
                     std::to_string(kill.respawns),
                     std::to_string(kill.retries),
                     std::to_string(kill.failures)});
  kill_table.Print(std::cout);
  std::printf("post-recovery results byte-identical to the never-killed "
              "reference\n\n");

  // ---- Phase B: hedged vs unhedged p99 under an injected straggler ----
  const HedgeRunResult unhedged =
      RunStragglerArm(corpus, queries, flags.k, flags.clients, flags.seed,
                      /*hedge_budget=*/0.0);
  const HedgeRunResult hedged =
      RunStragglerArm(corpus, queries, flags.k, flags.clients, flags.seed,
                      /*hedge_budget=*/0.3);
  TableWriter hedge_table(
      {"arm", "qps", "p50_ms", "p99_ms", "hedges", "hedge_wins"});
  hedge_table.AddRow({"unhedged", Fmt(unhedged.qps),
                      Fmt(unhedged.p50_ms, "%.3f"),
                      Fmt(unhedged.p99_ms, "%.3f"),
                      std::to_string(unhedged.hedges),
                      std::to_string(unhedged.hedge_wins)});
  hedge_table.AddRow({"hedged", Fmt(hedged.qps), Fmt(hedged.p50_ms, "%.3f"),
                      Fmt(hedged.p99_ms, "%.3f"),
                      std::to_string(hedged.hedges),
                      std::to_string(hedged.hedge_wins)});
  hedge_table.Print(std::cout);

  if (!flags.json.empty()) {
    std::FILE* f = std::fopen(flags.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr,
                   "WARNING: cannot write %s — perf trajectory not "
                   "recorded\n",
                   flags.json.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"fault_recovery\",\n");
      WriteJsonRunMeta(f);
      std::fprintf(f,
                   "  \"n\": %d, \"bits\": %d, \"k\": %d, \"requests\": %d, "
                   "\"clients\": %d, \"hw\": %d,\n",
                   flags.n, flags.bits, flags.k, flags.requests, flags.clients,
                   hw);
      std::fprintf(f,
                   "  \"kill_recovery\": {\"qps_before\": %.1f, "
                   "\"qps_dip\": %.1f, \"qps_after\": %.1f, "
                   "\"recovery_ms\": %.3f, \"respawns\": %lld, "
                   "\"retries\": %lld, \"failures\": %lld, "
                   "\"kill_bucket\": %d, \"bucket_ms\": %lld,\n",
                   kill.qps_before, kill.qps_dip, kill.qps_after,
                   kill.recovery_ms, static_cast<long long>(kill.respawns),
                   static_cast<long long>(kill.retries),
                   static_cast<long long>(kill.failures), kill.kill_bucket,
                   static_cast<long long>(kBucketMs));
      std::fprintf(f, "    \"timeline\": [");
      for (size_t b = 0; b < kill.timeline.size(); ++b) {
        std::fprintf(f, "%s%lld", b == 0 ? "" : ", ",
                     static_cast<long long>(kill.timeline[b]));
      }
      std::fprintf(f, "]},\n");
      std::fprintf(f,
                   "  \"straggler_hedging\": {\"unhedged_p50_ms\": %.4f, "
                   "\"unhedged_p99_ms\": %.4f, \"hedged_p50_ms\": %.4f, "
                   "\"hedged_p99_ms\": %.4f, \"hedges\": %lld, "
                   "\"hedge_wins\": %lld}\n",
                   unhedged.p50_ms, unhedged.p99_ms, hedged.p50_ms,
                   hedged.p99_ms, static_cast<long long>(hedged.hedges),
                   static_cast<long long>(hedged.hedge_wins));
      std::fprintf(f, "}\n");
      std::fclose(f);
      std::printf("\nwrote %s\n", flags.json.c_str());
    }
  }

  // The gates only mean something when the host can overlap 3 replicas
  // and the run is long enough for steady-state windows; tiny smoke runs
  // (CI sanitizer job, laptops) skip them.
  const bool gate_armed = flags.n >= 50000 && flags.requests >= 2048 &&
                          hw >= 4;
  if (!gate_armed) {
    std::printf("[acceptance gates not armed at this size]\n");
    return 0;
  }
  if (kill.failures != 0) {
    std::printf("FAIL: %lld requests failed across the kill — retries must "
                "absorb a single replica loss\n",
                static_cast<long long>(kill.failures));
    return 1;
  }
  if (kill.respawns < 1) {
    std::printf("FAIL: the supervisor never respawned the killed replica\n");
    return 1;
  }
  if (kill.recovery_ms < 0.0) {
    std::printf("FAIL: no recovery time recorded in "
                "pipeline.time_to_recovery_ns\n");
    return 1;
  }
  if (hedged.p99_ms > unhedged.p99_ms) {
    std::printf("FAIL: hedged p99 %.3f ms exceeds unhedged p99 %.3f ms "
                "under the injected straggler\n",
                hedged.p99_ms, unhedged.p99_ms);
    return 1;
  }
  if (hedged.hedges < 1) {
    std::printf("FAIL: the hedged arm never issued a hedge\n");
    return 1;
  }
  std::printf("PASS: kill absorbed (recovery %.3f ms, dip %.1f -> %.1f QPS), "
              "hedging holds the straggler p99\n",
              kill.recovery_ms, kill.qps_dip, kill.qps_after);
  return 0;
}

}  // namespace uhscm::bench

int main(int argc, char** argv) { return uhscm::bench::Main(argc, argv); }
