#ifndef UHSCM_SERVE_SNAPSHOT_H_
#define UHSCM_SERVE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "io/serialize.h"
#include "serve/query_engine.h"
#include "serve/sharded_index.h"

namespace uhscm::serve {

/// Everything needed to bring a trained model's codes online.
struct ServingSnapshotOptions {
  ShardedIndexOptions index;
  QueryEngineOptions engine;
};

/// \brief Snapshot integration: load a packed-code artifact into a
/// ready-to-serve QueryEngine, and persist a live engine back out.
///
/// This is the deployment seam between training and serving: training
/// persists codes once (io::SavePackedCodes), any number of serving
/// processes hydrate sharded engines from the artifact, and a mutated
/// engine (appends + tombstone deletes) saves a versioned snapshot —
/// epoch, codes in global-id order, and the deletion bitmap — that
/// reloads into an engine with identical ids, epoch, and results. Both
/// write "UHSC" v3 (io/serialize.h); legacy v1 artifacts (epoch 0,
/// nothing tombstoned) and v2 snapshots keep loading.
Result<std::unique_ptr<QueryEngine>> LoadQueryEngine(
    const std::string& codes_path, const ServingSnapshotOptions& options = {});

/// In-memory variant for tests and benches that already hold the codes.
/// Copies the corpus once, into the shards.
std::unique_ptr<QueryEngine> MakeQueryEngine(
    const index::PackedCodes& corpus,
    const ServingSnapshotOptions& options = {});

/// Builds an engine from an already-loaded snapshot: shards all rows
/// (so global ids match the snapshot), re-applies the tombstones, and
/// restores the epoch. The seam callers use when they need the snapshot
/// contents (query sampling, inspection) without reading the file twice.
/// Leaves `snapshot` unchanged and copies its codes once, into the
/// shards. Records its wall time in the `stage.hydrate_ns` histogram.
std::unique_ptr<QueryEngine> MakeQueryEngineFromSnapshot(
    const io::CodesSnapshot& snapshot,
    const ServingSnapshotOptions& options = {});

/// Persists the engine's current corpus — live and tombstoned rows, the
/// deletion bitmap, and the epoch — as a v3 snapshot at `path`.
/// Concurrent-safe: takes the index's shard locks shared for a
/// consistent point-in-time copy.
Status SaveServingSnapshot(const QueryEngine& engine,
                           const std::string& path);

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_SNAPSHOT_H_
