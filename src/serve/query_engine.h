#ifndef UHSCM_SERVE_QUERY_ENGINE_H_
#define UHSCM_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotated_sync.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/packed_codes.h"
#include "obs/trace.h"
#include "serve/result_cache.h"
#include "serve/serve_stats.h"
#include "serve/sharded_index.h"

namespace uhscm::serve {

struct QueryEngineOptions {
  /// Worker threads owned by the engine (0 = hardware concurrency). All
  /// (query x shard) search units of a batch share this pool.
  int num_threads = 0;
  /// Result-cache entries (0 disables caching).
  size_t cache_capacity = 4096;
  /// Uncached queries scored together per (block, shard) work unit. Each
  /// unit runs the shard's cache-blocked batch scan, so larger blocks
  /// amortize corpus memory traffic further but leave fewer units to
  /// spread across the pool. Clamped to >= 1.
  int miss_block = 16;
  /// Auto-compaction threshold: after every completed Remove/RemoveIds,
  /// any shard whose dead fraction reaches this value is compacted
  /// (survivor rebuild off-lock, swap under the shard's writer lock,
  /// locator remap — results and global ids unchanged). <= 0 disables
  /// auto-compaction; Compact() stays available either way.
  double compact_dead_fraction = 0.0;
};

/// \brief The serving front end: batched top-k search over a mutable
/// ShardedIndex with an epoch-keyed LRU result cache and
/// latency/throughput accounting.
///
/// `Search` is safe to call concurrently from many request threads — and
/// concurrently with `Append`/`Remove`: the index takes per-shard
/// reader/writer locks, the cache and stats take their own locks, and
/// batch fan-out runs on the engine's private pool. Work is flattened to
/// (uncached query, shard) units in a single ParallelFor — never nested
/// pools, so request threads cannot deadlock the workers.
///
/// The corpus **epoch** is a monotonic counter bumped after every
/// completed update; it is folded into every cache key, so a result
/// computed before an update can never answer a query issued after it —
/// stale cache hits are structurally impossible.
///
/// Results are exact and deterministic: byte-identical (after id
/// compaction) to a single-threaded LinearScan over the surviving rows,
/// whether they come from a shard merge or from the cache.
class QueryEngine {
 public:
  QueryEngine(std::unique_ptr<ShardedIndex> index,
              const QueryEngineOptions& options = {});
  ~QueryEngine();

  /// Top-k neighbors for each of `queries` (packed, same bit width as the
  /// corpus). Returns one ascending (distance, id) list per query.
  std::vector<std::vector<index::Neighbor>> Search(
      const index::PackedCodes& queries, int k) {
    return Search(queries, k, obs::TraceContext{});
  }

  /// Traced form: when `trace` carries a sampled trace id, the search
  /// records cache-lookup / per-shard scan / merge spans under it.
  /// Identical results either way; an unsampled context costs nothing.
  std::vector<std::vector<index::Neighbor>> Search(
      const index::PackedCodes& queries, int k,
      const obs::TraceContext& trace);

  /// Single-query convenience wrapper over the batched path.
  std::vector<index::Neighbor> SearchOne(const uint64_t* query, int k);

  /// Per-batch completion callback: one ascending result list per query
  /// in query order — exactly what Search returns. It runs exactly once,
  /// and the engine's in-flight counter is decremented after it returns.
  using BatchCallback =
      std::function<void(std::vector<std::vector<index::Neighbor>>)>;

  /// \name Non-blocking batch seam (driven by the pipeline's Batcher)
  ///
  /// SubmitBatch enqueues the batch on the engine's dispatch thread and
  /// returns immediately; the dispatch thread runs Search (whose fan-out
  /// uses the worker pool) and invokes `done` with results byte-identical
  /// to a synchronous Search of the same batch at the same epoch. Batches
  /// execute in submission order, one at a time per engine — replication
  /// is the cross-batch parallelism lever, keeping each engine's pool
  /// contention-free. The dispatch thread is started lazily on the first
  /// SubmitBatch, so purely synchronous engines never pay for it. After
  /// Drain() the submission runs inline on the caller (still completed,
  /// never dropped).
  ///@{
  void SubmitBatch(index::PackedCodes queries, int k, BatchCallback done) {
    SubmitBatch(std::move(queries), k, obs::TraceContext{}, std::move(done));
  }

  /// Traced form — the batch's trace context rides along to the
  /// dispatch thread, so the eventual Search hangs its spans under the
  /// batch that carried it.
  void SubmitBatch(index::PackedCodes queries, int k, obs::TraceContext trace,
                   BatchCallback done);

  /// Future-returning convenience wrapper over the callback form.
  std::future<std::vector<std::vector<index::Neighbor>>> SubmitBatch(
      index::PackedCodes queries, int k);

  /// Queries admitted through SubmitBatch whose callback has not yet
  /// returned — the load signal the least-loaded router balances on.
  int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Orderly shutdown of the async machinery: runs every already-
  /// submitted batch to completion (callbacks included), joins the
  /// dispatch thread, then drains the worker pool. Idempotent; the
  /// destructor calls it. Search/SubmitBatch afterwards still work,
  /// inline and single-threaded.
  void Drain();
  ///@}

  /// Appends a batch of codes to the corpus (routed to the least-full
  /// shard) and bumps the epoch. Returns the assigned global ids.
  std::vector<int> Append(const index::PackedCodes& codes);

  /// Tombstones one global id; bumps the epoch when anything was removed.
  bool Remove(int global_id);

  /// Tombstones a list of global ids (one epoch bump for the whole
  /// batch). Returns how many were newly removed.
  int RemoveIds(const std::vector<int>& global_ids);

  /// Compacts every shard holding dead rows (see
  /// ShardedIndex::CompactAll) and bumps the epoch when anything was
  /// reclaimed. Results and global ids are unchanged — the epoch bump
  /// buys cache coherence for free rather than correcting anything.
  CompactionStats Compact();

  /// Current corpus epoch: 0 at construction, +1 after every completed
  /// Append / Remove / RemoveIds / Compact that changed the corpus.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Restores a persisted epoch (snapshot hydration). Hydrating an
  /// older snapshot moves the *reported* epoch backwards, but cache
  /// keys use a separate strictly monotonic counter that a restore
  /// bumps like any update — so entries cached under a previously-used
  /// (epoch, query, k) combination can never come back from the dead,
  /// even with searches in flight across the restore. The cache is
  /// also cleared to free the now-unreachable entries.
  void RestoreEpoch(uint64_t epoch);

  /// Consistent snapshot payload: the corpus copy and the epoch it
  /// corresponds to, captured together under the update lock so no
  /// concurrent Append/Remove can slip between them.
  CorpusExport ExportCorpus(uint64_t* epoch_out) const;

  const ShardedIndex& index() const { return *index_; }
  int num_threads() const { return pool_->num_threads(); }

  /// ServeStats snapshot plus the cache's hit/miss/evict counters, the
  /// update counters, and the current epoch.
  ServeStatsSnapshot stats() const;
  void ResetStats();

  size_t cache_size() const { return cache_.size(); }

 private:
  /// One queued SubmitBatch.
  struct DispatchTask {
    index::PackedCodes queries;
    int k = 0;
    obs::TraceContext trace;
    BatchCallback done;
  };

  void DispatchLoop();
  /// Runs one task, then decrements the in-flight counter — the single
  /// completion path.
  void CompleteTask(DispatchTask task);
  /// Auto-compaction check. Returns true when anything was reclaimed
  /// (the caller's epoch bump covers it).
  bool MaybeCompactLocked() UHSCM_REQUIRES(update_mu_);
  /// Folds one compaction pass into the stats counters.
  void RecordCompaction(const CompactionStats& stats, double elapsed_seconds);
  /// Advances the reported epoch and the cache-key epoch together after
  /// a completed mutation.
  void BumpEpochsLocked() UHSCM_REQUIRES(update_mu_);

  std::unique_ptr<ShardedIndex> index_;
  std::unique_ptr<ThreadPool> pool_;
  ResultCache cache_;
  ServeStats stats_;
  int miss_block_;
  double compact_dead_fraction_;
  /// Serializes {index mutation, epoch bump} pairs against each other
  /// and against ExportCorpus, so a snapshot's epoch always matches its
  /// corpus. Searches never take it. Mutators hold it exclusive;
  /// ExportCorpus — a pure read — holds it shared.
  mutable SharedMutex update_mu_{"engine.update", 76};
  /// Release/acquire: bumped (release) only after the index mutation
  /// completes, so an observer of the new value is guaranteed to read
  /// the mutated corpus even before it touches a shard lock.
  std::atomic<uint64_t> epoch_{0};
  /// The epoch folded into cache keys. Tracks epoch_ bump-for-bump but
  /// is *never* restored backwards — RestoreEpoch bumps it instead — so
  /// a (cache epoch, query, k) key is never reused across distinct
  /// corpus states and stale entries are structurally unreachable even
  /// when the reported epoch revisits an old value.
  /// Release/acquire, same publication contract as epoch_.
  std::atomic<uint64_t> cache_epoch_{0};
  /// Relaxed: monotonic stats counters only — snapshots read them
  /// individually and promise no cross-counter consistency.
  std::atomic<int64_t> appends_{0};
  std::atomic<int64_t> removes_{0};
  std::atomic<int64_t> compactions_{0};
  std::atomic<int64_t> compact_rows_reclaimed_{0};
  std::atomic<int64_t> compact_micros_{0};

  /// Async dispatch state. The thread is lazily created under
  /// dispatch_mu_ and joined by Drain() *before* pool_ is torn down —
  /// the destruction-ordering contract that lets in-flight batches use
  /// the pool safely at shutdown.
  mutable Mutex dispatch_mu_{"engine.dispatch", 72};
  CondVar dispatch_cv_;
  std::deque<DispatchTask> dispatch_tasks_ UHSCM_GUARDED_BY(dispatch_mu_);
  std::thread dispatch_thread_ UHSCM_GUARDED_BY(dispatch_mu_);
  bool dispatch_stop_ UHSCM_GUARDED_BY(dispatch_mu_) = false;
  bool drained_ UHSCM_GUARDED_BY(dispatch_mu_) = false;
  /// Serializes Drain callers (same pattern as ThreadPool::Drain): a
  /// second Drain — or the destructor — must not return while the first
  /// is still joining the dispatch thread and draining the pool.
  Mutex drain_mu_{"engine.drain", 80};
  /// Relaxed: load-balancing signal only (least-loaded routing); no data
  /// is published through it and a momentarily stale read just routes one
  /// batch suboptimally.
  std::atomic<int64_t> inflight_{0};
};

/// Slices a query stream into `batch`-sized PackedCodes (the final batch
/// may be short). Replay loops that run multiple passes should slice
/// once and reuse the packed buffers instead of re-copying the words on
/// every pass.
std::vector<index::PackedCodes> SliceBatches(const index::PackedCodes& queries,
                                             int batch);

/// Replays a query stream through the engine in batches of `batch`
/// packed queries. One-pass convenience over SliceBatches + the
/// pre-sliced overload below.
void ReplayBatches(QueryEngine* engine, const index::PackedCodes& queries,
                   int batch, int k);

/// Replays pre-sliced batches through the engine — the multi-pass form
/// `uhscm_cli serve` and the throughput benches use so the packed
/// buffers are built once per stream, not once per pass.
void ReplayBatches(QueryEngine* engine,
                   const std::vector<index::PackedCodes>& batches, int k);

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_QUERY_ENGINE_H_
