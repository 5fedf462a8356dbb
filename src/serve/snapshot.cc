#include "serve/snapshot.h"

#include <utility>

#include "io/serialize.h"
#include "obs/metrics.h"

namespace uhscm::serve {

Result<std::unique_ptr<QueryEngine>> LoadQueryEngine(
    const std::string& codes_path, const ServingSnapshotOptions& options) {
  Result<io::CodesSnapshot> snapshot = io::LoadCodesSnapshot(codes_path);
  if (!snapshot.ok()) return snapshot.status();
  return MakeQueryEngineFromSnapshot(*snapshot, options);
}

std::unique_ptr<QueryEngine> MakeQueryEngineFromSnapshot(
    const io::CodesSnapshot& snapshot, const ServingSnapshotOptions& options) {
  obs::StageTimer timer("stage.hydrate_ns");
  std::vector<int> dead;
  if (snapshot.HasTombstones()) {
    for (int gid = 0; gid < snapshot.codes.size(); ++gid) {
      if (snapshot.IsDead(gid)) dead.push_back(gid);
    }
  }
  // Shards partition all rows (tombstoned ones included) so global ids
  // match the snapshot exactly; deletions are re-applied on top.
  auto index = std::make_unique<ShardedIndex>(snapshot.codes, options.index);
  index->RemoveIds(dead);
  // Hydration-time compaction, unconditional: a snapshot's dead rows
  // (tombstoned or compacted-away holes serialized as zeroed rows)
  // serve no purpose in memory — they only burn scan bandwidth until
  // something re-triggers a compaction. Reclaiming them here is
  // result-identical by construction (same global ids, same survivors)
  // and costs one rebuild pass at load, so an engine that was compacted
  // when saved comes back compacted. Done on the bare index so the
  // restored epoch still matches the snapshot exactly.
  index->CompactAll();
  auto engine =
      std::make_unique<QueryEngine>(std::move(index), options.engine);
  engine->RestoreEpoch(snapshot.epoch);
  return engine;
}

std::unique_ptr<QueryEngine> MakeQueryEngine(
    const index::PackedCodes& corpus, const ServingSnapshotOptions& options) {
  auto index = std::make_unique<ShardedIndex>(corpus, options.index);
  return std::make_unique<QueryEngine>(std::move(index), options.engine);
}

Status SaveServingSnapshot(const QueryEngine& engine,
                           const std::string& path) {
  uint64_t epoch = 0;
  CorpusExport corpus = engine.ExportCorpus(&epoch);
  io::CodesSnapshot snapshot;
  snapshot.codes = std::move(corpus.codes);
  snapshot.tombstone_words = std::move(corpus.tombstone_words);
  snapshot.epoch = epoch;
  return io::SaveCodesSnapshot(snapshot, path);
}

}  // namespace uhscm::serve
