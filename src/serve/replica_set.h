#ifndef UHSCM_SERVE_REPLICA_SET_H_
#define UHSCM_SERVE_REPLICA_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/annotated_sync.h"
#include "io/serialize.h"
#include "serve/query_engine.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"

namespace uhscm::serve {

struct ReplicaSetOptions {
  /// Engine replicas to build; clamped to >= 1. Each replica owns a full
  /// copy of the corpus (per-replica snapshots — no shared mutable
  /// state), its own shard set, worker pool, and result cache.
  int replicas = 1;
  /// Index/engine configuration applied to every replica. When
  /// serving.engine.num_threads is 0 the hardware threads are divided
  /// evenly across replicas (at least 1 each), so adding replicas
  /// trades per-batch fan-out width for cross-batch parallelism instead
  /// of oversubscribing the machine.
  ServingSnapshotOptions serving;
};

/// \brief N identically-hydrated QueryEngine replicas behind one update
/// fan-out — the replication layer the pipeline's Router balances over.
///
/// Every replica is built from the same snapshot with the same options,
/// so global ids, epochs, and search results are byte-identical across
/// replicas from the start. Updates (Append/Remove/RemoveIds/Compact)
/// are fanned to every replica under one fan-out lock, in replica
/// order, with the same arguments — deterministic mutation of
/// deterministic state, so the replicas stay coherent: same ids
/// assigned, same epoch after every update (checked). A query routed to
/// *any* replica therefore returns exactly what every other replica
/// would return once the epochs agree.
///
/// Reads need no lock here: each engine synchronizes its own index. The
/// fan-out lock only serializes writers against each other so replicas
/// apply the identical update sequence.
class ReplicaSet {
 public:
  /// Builds `replicas` engines, each hydrated from its own copy of the
  /// snapshot (ids, tombstones, and epoch restored identically).
  ReplicaSet(const io::CodesSnapshot& snapshot,
             const ReplicaSetOptions& options);

  /// Convenience for tests/benches that hold a bare corpus (epoch 0,
  /// nothing tombstoned).
  ReplicaSet(const index::PackedCodes& corpus,
             const ReplicaSetOptions& options);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  int num_replicas() const { return static_cast<int>(engines_.size()); }
  QueryEngine* replica(int r) { return engines_[static_cast<size_t>(r)].get(); }
  const QueryEngine& replica(int r) const {
    return *engines_[static_cast<size_t>(r)];
  }

  /// \name Update fan-out (every replica, identical order + arguments)
  ///@{
  /// Appends the batch to all replicas. Returns the assigned global ids
  /// (identical on every replica — checked).
  std::vector<int> Append(const index::PackedCodes& codes);
  bool Remove(int global_id);
  int RemoveIds(const std::vector<int>& global_ids);

  /// Compacts every replica (QueryEngine::Compact — all shards holding
  /// dead rows). Replicas hold identical corpora, so every replica must
  /// reclaim the identical shard/row counts and land on the identical
  /// epoch — checked, because a divergence here means divergent ids.
  CompactionStats Compact();
  ///@}

  /// Corpus epoch of replica 0 (all replicas agree outside an in-flight
  /// fan-out).
  uint64_t epoch() const { return replica(0).epoch(); }

  /// Queries in flight on replica r — the least-loaded routing signal.
  int64_t Inflight(int r) const { return replica(r).inflight(); }

  /// One engine snapshot per replica. Note fanned-out updates appear in
  /// every replica's append/remove counters.
  std::vector<ServeStatsSnapshot> PerReplicaStats() const;

  /// PerReplicaStats() folded through AggregateServeStats.
  ServeStatsSnapshot AggregatedStats() const {
    return AggregateServeStats(PerReplicaStats());
  }

  void ResetStats();

  /// Drains every replica (flushes in-flight batches, joins dispatch
  /// threads and worker pools). Engines remain usable inline afterwards.
  void DrainAll();

 private:
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  /// Serializes fan-outs so every replica applies the same update
  /// sequence.
  Mutex update_mu_{"replicaset.update", 88};
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_REPLICA_SET_H_
