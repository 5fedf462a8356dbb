#include "serve/replica_set.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/status.h"

namespace uhscm::serve {

namespace {

ServingSnapshotOptions PerReplicaOptions(const ReplicaSetOptions& options,
                                         int replicas) {
  ServingSnapshotOptions serving = options.serving;
  if (serving.engine.num_threads == 0) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 4;
    serving.engine.num_threads = std::max(1, hw / replicas);
  }
  return serving;
}

/// `options.replicas` engines (at least 1), each built by
/// `make_engine(serving)` with the per-replica options.
template <typename MakeEngine>
std::vector<std::unique_ptr<QueryEngine>> MakeReplicas(
    const ReplicaSetOptions& options, const MakeEngine& make_engine) {
  const int replicas = std::max(1, options.replicas);
  const ServingSnapshotOptions serving = PerReplicaOptions(options, replicas);
  std::vector<std::unique_ptr<QueryEngine>> engines;
  engines.reserve(static_cast<size_t>(replicas));
  for (int r = 0; r < replicas; ++r) engines.push_back(make_engine(serving));
  return engines;
}

}  // namespace

ReplicaSet::ReplicaSet(const io::CodesSnapshot& snapshot,
                       const ReplicaSetOptions& options)
    : engines_(MakeReplicas(options, [&](const ServingSnapshotOptions& s) {
        return MakeQueryEngineFromSnapshot(snapshot, s);
      })) {}

ReplicaSet::ReplicaSet(const index::PackedCodes& corpus,
                       const ReplicaSetOptions& options)
    : engines_(MakeReplicas(options, [&](const ServingSnapshotOptions& s) {
        return MakeQueryEngine(corpus, s);
      })) {}

std::vector<int> ReplicaSet::Append(const index::PackedCodes& codes) {
  MutexLock lock(update_mu_);
  std::vector<int> ids = engines_[0]->Append(codes);
  for (size_t i = 1; i < engines_.size(); ++i) {
    const std::vector<int> replica_ids = engines_[i]->Append(codes);
    UHSCM_CHECK(replica_ids == ids,
                "ReplicaSet::Append: replicas assigned divergent ids");
  }
  return ids;
}

bool ReplicaSet::Remove(int global_id) {
  return RemoveIds(std::vector<int>{global_id}) > 0;
}

int ReplicaSet::RemoveIds(const std::vector<int>& global_ids) {
  MutexLock lock(update_mu_);
  // Removes fan out concurrently: each replica mutates only its own
  // state with the same argument, and a delete can trigger that
  // replica's auto-compaction (a full shard rebuild) — run in parallel
  // the stall is one rebuild, not replicas-many.
  std::vector<int> removed(engines_.size(), 0);
  std::vector<std::thread> workers;
  workers.reserve(engines_.size() - 1);
  for (size_t i = 1; i < engines_.size(); ++i) {
    workers.emplace_back([this, i, &global_ids, &removed] {
      removed[i] = engines_[i]->RemoveIds(global_ids);
    });
  }
  removed[0] = engines_[0]->RemoveIds(global_ids);
  for (std::thread& worker : workers) worker.join();
  for (size_t i = 1; i < engines_.size(); ++i) {
    UHSCM_CHECK(removed[i] == removed[0],
                "ReplicaSet::RemoveIds: replicas diverged on tombstones");
  }
  return removed[0];
}

CompactionStats ReplicaSet::Compact() {
  MutexLock lock(update_mu_);
  // Unlike the per-row update fan-outs, a compaction is a full shard
  // rebuild per replica — run the independent rebuilds concurrently so
  // the write path stalls for one rebuild, not replicas-many, then
  // check coherence once everything has landed.
  std::vector<CompactionStats> stats(engines_.size());
  std::vector<std::thread> workers;
  workers.reserve(engines_.size() - 1);
  for (size_t i = 1; i < engines_.size(); ++i) {
    workers.emplace_back(
        [this, i, &stats] { stats[i] = engines_[i]->Compact(); });
  }
  stats[0] = engines_[0]->Compact();
  for (std::thread& worker : workers) worker.join();
  for (size_t i = 1; i < engines_.size(); ++i) {
    UHSCM_CHECK(stats[i] == stats[0],
                "ReplicaSet::Compact: replicas reclaimed divergent rows");
    UHSCM_CHECK(engines_[i]->epoch() == engines_[0]->epoch(),
                "ReplicaSet::Compact: replicas diverged on the epoch");
  }
  return stats[0];
}

std::vector<ServeStatsSnapshot> ReplicaSet::PerReplicaStats() const {
  std::vector<ServeStatsSnapshot> stats;
  stats.reserve(engines_.size());
  for (const std::unique_ptr<QueryEngine>& engine : engines_) {
    stats.push_back(engine->stats());
  }
  return stats;
}

void ReplicaSet::ResetStats() {
  for (const std::unique_ptr<QueryEngine>& engine : engines_) {
    engine->ResetStats();
  }
}

void ReplicaSet::DrainAll() {
  for (const std::unique_ptr<QueryEngine>& engine : engines_) engine->Drain();
}

}  // namespace uhscm::serve
