#include "serve/query_engine.h"

#include <algorithm>

#include "common/status.h"
#include "common/stopwatch.h"

namespace uhscm::serve {

using index::Neighbor;

QueryEngine::QueryEngine(std::unique_ptr<ShardedIndex> index,
                         const QueryEngineOptions& options)
    : index_(std::move(index)),
      pool_(std::make_unique<ThreadPool>(options.num_threads)),
      cache_(options.cache_capacity),
      miss_block_(std::max(1, options.miss_block)),
      compact_dead_fraction_(options.compact_dead_fraction) {
  UHSCM_CHECK(index_ != nullptr, "QueryEngine: null index");
}

QueryEngine::~QueryEngine() { Drain(); }

void QueryEngine::CompleteTask(DispatchTask task) {
  const int n = task.queries.size();
  task.done(Search(task.queries, task.k, task.trace));
  // Decrement only after the callback returns: a router seeing the old
  // load cannot race ahead of a completion the client hasn't observed
  // yet, and tests can hold a batch "in flight" by blocking in the
  // callback.
  inflight_.fetch_sub(n, std::memory_order_relaxed);
}

void QueryEngine::SubmitBatch(index::PackedCodes queries, int k,
                              obs::TraceContext trace, BatchCallback done) {
  const int n = queries.size();
  inflight_.fetch_add(n, std::memory_order_relaxed);
  DispatchTask task{std::move(queries), k, trace, std::move(done)};
  {
    UniqueLock lock(dispatch_mu_);
    if (!drained_) {
      if (!dispatch_thread_.joinable()) {
        dispatch_thread_ = std::thread([this] { DispatchLoop(); });
      }
      dispatch_tasks_.push_back(std::move(task));
      lock.unlock();
      dispatch_cv_.notify_one();
      return;
    }
  }
  // Drained: complete inline, never drop.
  CompleteTask(std::move(task));
}

std::future<std::vector<std::vector<Neighbor>>> QueryEngine::SubmitBatch(
    index::PackedCodes queries, int k) {
  auto promise =
      std::make_shared<std::promise<std::vector<std::vector<Neighbor>>>>();
  std::future<std::vector<std::vector<Neighbor>>> future =
      promise->get_future();
  SubmitBatch(std::move(queries), k,
              [promise](std::vector<std::vector<Neighbor>> results) {
                promise->set_value(std::move(results));
              });
  return future;
}

void QueryEngine::DispatchLoop() {
  for (;;) {
    DispatchTask task;
    {
      UniqueLock lock(dispatch_mu_);
      while (!dispatch_stop_ && dispatch_tasks_.empty()) {
        dispatch_cv_.wait(lock);
      }
      if (dispatch_tasks_.empty()) return;  // stop requested, queue flushed
      task = std::move(dispatch_tasks_.front());
      dispatch_tasks_.pop_front();
    }
    CompleteTask(std::move(task));
  }
}

void QueryEngine::Drain() {
  MutexLock drain_lock(drain_mu_);
  std::thread dispatch;
  {
    MutexLock lock(dispatch_mu_);
    if (drained_) return;
    drained_ = true;
    dispatch_stop_ = true;
    dispatch.swap(dispatch_thread_);
  }
  dispatch_cv_.notify_all();
  // The dispatch loop runs every queued batch before exiting, and it
  // must be gone before the pool is drained — its Searches fan out on
  // the pool.
  if (dispatch.joinable()) dispatch.join();
  pool_->Drain();
}

std::vector<std::vector<Neighbor>> QueryEngine::Search(
    const index::PackedCodes& queries, int k,
    const obs::TraceContext& trace) {
  const int n = queries.size();
  if (n == 0) return {};
  UHSCM_CHECK(queries.bits() == index_->bits(),
              "QueryEngine::Search: query bit width != corpus bit width");
  k = std::min(k, index_->size());
  if (k <= 0) {
    stats_.RecordBatch(n, 0.0);
    return std::vector<std::vector<Neighbor>>(static_cast<size_t>(n));
  }

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  obs::ScopedSpan search_span(&recorder, trace, "search");
  search_span.AddAttr("queries", n);
  search_span.AddAttr("k", k);

  Stopwatch watch;
  std::vector<std::vector<Neighbor>> results(static_cast<size_t>(n));
  const int words = queries.words_per_code();
  // One cache epoch per batch: all lookups and inserts of this Search
  // use it. Updates bump it only after the index mutation completes, so
  // a batch observing the new value always reads the updated index; it
  // is monotonic even across RestoreEpoch, so no key ever aliases two
  // corpus states.
  const uint64_t epoch = cache_epoch_.load(std::memory_order_acquire);

  // Phase 1: serve what the cache already knows.
  std::vector<int> misses;
  misses.reserve(static_cast<size_t>(n));
  {
    obs::ScopedSpan lookup_span(&recorder, search_span.context(),
                                "cache-lookup");
    for (int q = 0; q < n; ++q) {
      CacheKey key{{queries.code(q), queries.code(q) + words}, k, epoch};
      if (!cache_.Lookup(key, &results[static_cast<size_t>(q)])) {
        misses.push_back(q);
      }
    }
    lookup_span.AddAttr("hits", n - static_cast<int64_t>(misses.size()));
  }

  // Phase 2: fan (miss-block, shard) units out on the pool in one flat
  // loop. Grouping misses into blocks lets each unit run the shard's
  // cache-blocked batch scan — the shard's codes are streamed once per
  // block of queries instead of once per query — while the unit count
  // stays high enough to keep all workers busy on small batches.
  const int num_shards = index_->num_shards();
  const int num_misses = static_cast<int>(misses.size());
  const int qblock = miss_block_;
  const int num_blocks = (num_misses + qblock - 1) / qblock;
  std::vector<std::vector<Neighbor>> partials(
      misses.size() * static_cast<size_t>(num_shards));
  {
    obs::ScopedSpan scan_span(&recorder, search_span.context(), "scan");
    scan_span.AddAttr("misses", num_misses);
    scan_span.AddAttr("shards", num_shards);
    pool_->ParallelFor(num_blocks * num_shards, [&](int unit) {
      const int blk = unit / num_shards;
      const int s = unit % num_shards;
      const int mb = blk * qblock;
      const int me = std::min(mb + qblock, num_misses);
      obs::ScopedSpan unit_span(&recorder, scan_span.context(), "shard-scan");
      unit_span.AddAttr("shard", s);
      unit_span.AddAttr("queries", me - mb);
      std::vector<const uint64_t*> qptrs(static_cast<size_t>(me - mb));
      for (int m = mb; m < me; ++m) {
        qptrs[static_cast<size_t>(m - mb)] =
            queries.code(misses[static_cast<size_t>(m)]);
      }
      std::vector<std::vector<Neighbor>> block_results =
          index_->ShardTopKBatch(s, qptrs.data(), me - mb, k);
      for (int m = mb; m < me; ++m) {
        partials[static_cast<size_t>(m) * num_shards + s] =
            std::move(block_results[static_cast<size_t>(m - mb)]);
      }
    });
  }

  // Phase 3: merge each miss's shard lists and publish to the cache
  // (the merge span covers the cache fill — they share the parallel
  // pass so miss results are written back without a second walk).
  {
    obs::ScopedSpan merge_span(&recorder, search_span.context(), "merge");
    merge_span.AddAttr("cache_inserts", num_misses);
    pool_->ParallelFor(static_cast<int>(misses.size()), [&](int m) {
      std::vector<std::vector<Neighbor>> per_shard(
          std::make_move_iterator(partials.begin() +
                                  static_cast<size_t>(m) * num_shards),
          std::make_move_iterator(partials.begin() +
                                  static_cast<size_t>(m + 1) * num_shards));
      const int q = misses[static_cast<size_t>(m)];
      results[static_cast<size_t>(q)] = ShardedIndex::MergeTopK(per_shard, k);
      CacheKey key{{queries.code(q), queries.code(q) + words}, k, epoch};
      cache_.Insert(key, results[static_cast<size_t>(q)]);
    });
  }

  stats_.RecordBatch(n, watch.ElapsedSeconds());
  return results;
}

std::vector<Neighbor> QueryEngine::SearchOne(const uint64_t* query, int k) {
  index::PackedCodes one = index::PackedCodes::FromRawWords(
      1, index_->bits(),
      std::vector<uint64_t>(query, query + (index_->bits() + 63) / 64));
  return Search(one, k)[0];
}

void QueryEngine::BumpEpochsLocked() {
  // Always bump the pair together: a mutator that advanced epoch_ but
  // not cache_epoch_ would let a reused (epoch, query, k) key serve a
  // stale cached result — the bug class the monotonic cache epoch
  // exists to make impossible.
  cache_epoch_.fetch_add(1, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
}

std::vector<int> QueryEngine::Append(const index::PackedCodes& codes) {
  ExclusiveLock lock(update_mu_);
  std::vector<int> ids = index_->Append(codes);
  if (!ids.empty()) {
    appends_.fetch_add(static_cast<int64_t>(ids.size()),
                       std::memory_order_relaxed);
    // Bump strictly after the index mutation: a Search that reads the new
    // epoch is guaranteed to see the appended rows, so nothing stale can
    // be cached under the new key.
    BumpEpochsLocked();
  }
  return ids;
}

bool QueryEngine::Remove(int global_id) {
  ExclusiveLock lock(update_mu_);
  const bool removed = index_->Remove(global_id);
  if (removed) {
    removes_.fetch_add(1, std::memory_order_relaxed);
    MaybeCompactLocked();
    BumpEpochsLocked();
  }
  return removed;
}

int QueryEngine::RemoveIds(const std::vector<int>& global_ids) {
  ExclusiveLock lock(update_mu_);
  const int removed = index_->RemoveIds(global_ids);
  if (removed > 0) {
    removes_.fetch_add(removed, std::memory_order_relaxed);
    MaybeCompactLocked();
    BumpEpochsLocked();
  }
  return removed;
}

void QueryEngine::RecordCompaction(const CompactionStats& stats,
                                   double elapsed_seconds) {
  compactions_.fetch_add(stats.shards_compacted, std::memory_order_relaxed);
  compact_rows_reclaimed_.fetch_add(stats.rows_reclaimed,
                                    std::memory_order_relaxed);
  compact_micros_.fetch_add(static_cast<int64_t>(elapsed_seconds * 1e6),
                            std::memory_order_relaxed);
}

bool QueryEngine::MaybeCompactLocked() {
  if (compact_dead_fraction_ <= 0.0) return false;
  Stopwatch watch;
  const CompactionStats stats = index_->MaybeCompact(compact_dead_fraction_);
  if (stats.rows_reclaimed == 0) return false;
  RecordCompaction(stats, watch.ElapsedSeconds());
  return true;
}

CompactionStats QueryEngine::Compact() {
  ExclusiveLock lock(update_mu_);
  Stopwatch watch;
  const CompactionStats stats = index_->CompactAll();
  if (stats.rows_reclaimed > 0) {
    RecordCompaction(stats, watch.ElapsedSeconds());
    BumpEpochsLocked();
  }
  return stats;
}

void QueryEngine::RestoreEpoch(uint64_t epoch) {
  ExclusiveLock lock(update_mu_);
  // The reported epoch may move backwards (hydrating an older snapshot
  // into a live engine); the cache-key epoch never does — a restore
  // bumps it like an update, so entries keyed under any previous value
  // are permanently unreachable even when a Search in flight across
  // the restore publishes under the old key after this returns.
  // Clearing just frees the unreachable entries early.
  cache_epoch_.fetch_add(1, std::memory_order_release);
  cache_.Clear();
  epoch_.store(epoch, std::memory_order_release);
}

CorpusExport QueryEngine::ExportCorpus(uint64_t* epoch_out) const {
  // Shared: exporting only reads; mutators (exclusive holders) still
  // cannot slip between the corpus copy and the epoch read.
  SharedLock lock(update_mu_);
  CorpusExport corpus = index_->Export();
  *epoch_out = epoch();
  return corpus;
}

ServeStatsSnapshot QueryEngine::stats() const {
  ServeStatsSnapshot snap = stats_.Snapshot();
  // The cache keeps the only hit/miss counts (a disabled cache reports
  // zeros).
  const ResultCacheStats cache_stats = cache_.stats();
  snap.cache_hits = cache_stats.hits;
  snap.cache_misses = cache_stats.misses;
  snap.cache_evictions = cache_stats.evictions;
  snap.appends = appends_.load(std::memory_order_relaxed);
  snap.removes = removes_.load(std::memory_order_relaxed);
  snap.compactions = compactions_.load(std::memory_order_relaxed);
  snap.compact_rows_reclaimed =
      compact_rows_reclaimed_.load(std::memory_order_relaxed);
  snap.compaction_ms =
      static_cast<double>(compact_micros_.load(std::memory_order_relaxed)) /
      1e3;
  snap.epoch = epoch();
  return snap;
}

void QueryEngine::ResetStats() {
  stats_.Reset();
  cache_.ResetStats();
  appends_.store(0, std::memory_order_relaxed);
  removes_.store(0, std::memory_order_relaxed);
  compactions_.store(0, std::memory_order_relaxed);
  compact_rows_reclaimed_.store(0, std::memory_order_relaxed);
  compact_micros_.store(0, std::memory_order_relaxed);
}

std::vector<index::PackedCodes> SliceBatches(const index::PackedCodes& queries,
                                             int batch) {
  batch = std::max(1, batch);
  std::vector<index::PackedCodes> batches;
  batches.reserve(static_cast<size_t>(
      (queries.size() + batch - 1) / std::max(1, batch)));
  const int words = queries.words_per_code();
  for (int begin = 0; begin < queries.size(); begin += batch) {
    const int count = std::min(batch, queries.size() - begin);
    std::vector<uint64_t> slice(
        queries.words().begin() + static_cast<size_t>(begin) * words,
        queries.words().begin() +
            static_cast<size_t>(begin + count) * words);
    batches.push_back(index::PackedCodes::FromRawWords(count, queries.bits(),
                                                       std::move(slice)));
  }
  return batches;
}

void ReplayBatches(QueryEngine* engine, const index::PackedCodes& queries,
                   int batch, int k) {
  ReplayBatches(engine, SliceBatches(queries, batch), k);
}

void ReplayBatches(QueryEngine* engine,
                   const std::vector<index::PackedCodes>& batches, int k) {
  for (const index::PackedCodes& batch : batches) {
    engine->Search(batch, k);
  }
}

}  // namespace uhscm::serve
