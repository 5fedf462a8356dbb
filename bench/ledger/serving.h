// The online half of every workload: the serving stack as `uhscm_cli
// serve` builds it, the measuring rounds, the closed loop behind
// req_cpu_us, an open-loop load generator with Poisson arrivals for the
// traced latency phases, the caller-batched bulk job, the churn writer,
// and the exact-reference checks on responses.
#ifndef UHSCM_BENCH_LEDGER_SERVING_H_
#define UHSCM_BENCH_LEDGER_SERVING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "corpus.h"
#include "index/linear_scan.h"
#include "index/neighbor.h"
#include "io/serialize.h"
#include "ledger.h"
#include "serve/batcher.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace uhscm::ledger {

/// The engine configuration every workload serves with: `uhscm_cli
/// serve`'s four shards and default 4096-entry result cache, on half the
/// hardware threads. The load generator, the batcher's flush thread and
/// the bulk caller share the host with the engine. A batch waits on the
/// slowest of its shard units, so an engine thread that lands on a busy
/// core delays the whole batch; with half the threads left free, a busy
/// core is less likely to hold one of them (README.md gives the numbers).
serve::ServingSnapshotOptions ServingOptions();

/// \brief The serving stack under test: one replica with ServingOptions(),
/// and a batcher flushing at B=32 or T=200us behind a least-loaded router,
/// as `uhscm_cli serve` builds it.
class ServingStack {
 public:
  ServingStack(const io::CodesSnapshot& snapshot, double compact_dead_fraction);

  serve::ReplicaSet& replicas() { return replicas_; }
  serve::Batcher& batcher() { return batcher_; }
  serve::QueryEngine& engine() { return *replicas_.replica(0); }

 private:
  serve::ReplicaSet replicas_;
  serve::Router router_;
  serve::Batcher batcher_;
};

/// \brief Exact reference for response checks: LinearScanIndex::TopK over
/// the live rows of a corpus, addressed by global id.
class Oracle {
 public:
  Oracle(index::PackedCodes codes, const std::vector<uint64_t>& tombstone_words);

  /// One response against the exact answer.
  struct Verdict {
    bool identical = false;
    /// Average precision of the response's ids against the exact top-k
    /// ids: 1 for an exact answer, lower as true neighbours go missing.
    double average_precision = 0.0;
  };
  Verdict Check(const uint64_t* query, int k,
                const std::vector<index::Neighbor>& got) const;

 private:
  index::LinearScanIndex scan_;
};

/// One set-up rep: the wall and CPU time of each of its stages, keyed by
/// the per-layer metric the stage reports as. setup_s sums their CPU time.
using SetupRep = std::function<std::map<std::string, Timing>()>;

/// One rep of a workload's job (its job_cpu_s). A traced rep also reports
/// the job's per-layer metrics.
using JobRep = std::function<Timing(bool traced)>;

/// How a workload drives its run. Every request asks for k=10.
struct ServingSpec {
  SetupRep setup;
  /// The workload's job. When unset (the serve-* workloads), the job is
  /// the bulk query below.
  JobRep job;
  /// The bulk query: this many codes of the stream answered by one caller
  /// through the engine in batches of 32, the strongest simple serving
  /// baseline. The traced run times it with and without tracing.
  int bulk_queries = 0;
  /// Length of one closed-loop window (req_cpu_us).
  double window_seconds = 0.0;
  /// The open-loop rate the traced run measures latency at (requests/s).
  double fixed_rate = 0.0;
  /// serve-churn: a writer appends and removes rows throughout. It
  /// appends codes of `appends`, a stream of its own, since it runs
  /// beside the sender.
  bool churn = false;
  QueryStream appends;
};

/// Runs a workload against `stack`.
///
/// Untraced, it measures in rounds until they add up to --seconds. A
/// round is a host-speed probe, kSetupsPerRound set-up reps, one job rep,
/// another probe, then closed-loop windows. setup_s, job_cpu_s and
/// req_cpu_us are medians over the rounds of CPU time, scaled to the
/// reference host by the run's median probe.
///
/// Traced, it reports the per-layer set-up, latency, serving and update
/// metrics and the tracing overhead.
///
/// A 1-in-64 sample of responses is checked against `oracle` once the
/// load stops; churn checks the sampled queries again after the run
/// against the engine's own export instead, so pass nullptr for it.
/// Returns the mean average precision of the checked responses.
double RunServing(const RunConfig& config, const ServingSpec& spec,
                  ServingStack* stack, const QueryStream& stream,
                  const Oracle* oracle, Report* report);

}  // namespace uhscm::ledger

#endif  // UHSCM_BENCH_LEDGER_SERVING_H_
