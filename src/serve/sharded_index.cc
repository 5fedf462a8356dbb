#include "serve/sharded_index.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/status.h"

namespace uhscm::serve {

using index::Neighbor;

ShardedIndex::ShardedIndex(const index::PackedCodes& corpus,
                           const ShardedIndexOptions& options)
    : bits_(corpus.bits()) {
  UHSCM_CHECK(bits_ > 0, "ShardedIndex: corpus has zero code width");
  const int size = corpus.size();
  const int num_shards = std::clamp(options.num_shards, 1, std::max(1, size));
  live_size_.store(size, std::memory_order_relaxed);
  total_size_.store(size, std::memory_order_relaxed);

  const int words_per_code = corpus.words_per_code();
  locator_.reserve(static_cast<size_t>(size));
  shard_live_.resize(static_cast<size_t>(num_shards), 0);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const int begin =
        static_cast<int>(static_cast<int64_t>(s) * size / num_shards);
    const int end =
        static_cast<int>(static_cast<int64_t>(s + 1) * size / num_shards);
    const int count = end - begin;
    std::vector<uint64_t> words(
        corpus.words().begin() + static_cast<size_t>(begin) * words_per_code,
        corpus.words().begin() + static_cast<size_t>(end) * words_per_code);
    index::PackedCodes shard_codes =
        index::PackedCodes::FromRawWords(count, bits_, std::move(words));

    auto shard = std::make_unique<Shard>(std::move(shard_codes));
    shard->offset = begin;
    shard->base_count = count;
    for (int local = 0; local < count; ++local) {
      locator_.push_back(Locator{s, local});
    }
    shard_live_[static_cast<size_t>(s)] = count;
    shards_.push_back(std::move(shard));
  }
}

std::vector<std::vector<Neighbor>> ShardedIndex::ShardTopKBatch(
    int s, const uint64_t* const* queries, int num_queries, int k) const {
  UHSCM_CHECK(s >= 0 && s < num_shards(),
              "ShardedIndex::ShardTopKBatch: shard out of range");
  const Shard& shard = *shards_[static_cast<size_t>(s)];
  SharedLock lock(shard.mu);
  std::vector<std::vector<Neighbor>> results =
      shard.impl.TopKBatch(queries, num_queries, k);
  for (auto& list : results) {
    index::RemapNeighborIds(&list,
                            [&shard](int id) { return shard.GlobalId(id); });
  }
  return results;
}

std::vector<int> ShardedIndex::Append(const index::PackedCodes& batch) {
  UHSCM_CHECK(batch.bits() == bits_,
              "ShardedIndex::Append: batch bit width != corpus bit width");
  std::vector<int> ids;
  if (batch.size() == 0) return ids;
  ExclusiveLock meta(meta_mu_);
  // Route the whole batch to the shard with the fewest live rows so the
  // corpus stays balanced as it grows and shrinks.
  int target = 0;
  for (int s = 1; s < num_shards(); ++s) {
    if (shard_live_[static_cast<size_t>(s)] <
        shard_live_[static_cast<size_t>(target)]) {
      target = s;
    }
  }
  Shard& shard = *shards_[static_cast<size_t>(target)];
  const int first_id = total_size_.load(std::memory_order_relaxed);
  ids.reserve(static_cast<size_t>(batch.size()));
  {
    ExclusiveLock lock(shard.mu);
    const int local_base = shard.impl.total_size();
    shard.impl.Append(batch);
    for (int i = 0; i < batch.size(); ++i) {
      const int gid = first_id + i;
      ids.push_back(gid);
      shard.appended_ids.push_back(gid);
      locator_.push_back(Locator{target, local_base + i});
    }
  }
  shard_live_[static_cast<size_t>(target)] += batch.size();
  total_size_.fetch_add(batch.size(), std::memory_order_relaxed);
  live_size_.fetch_add(batch.size(), std::memory_order_release);
  return ids;
}

bool ShardedIndex::Remove(int global_id) {
  ExclusiveLock meta(meta_mu_);
  if (global_id < 0 ||
      global_id >= total_size_.load(std::memory_order_relaxed)) {
    return false;
  }
  const Locator loc = locator_[static_cast<size_t>(global_id)];
  if (loc.shard == Locator::kGone) return false;  // compacted away
  Shard& shard = *shards_[static_cast<size_t>(loc.shard)];
  ExclusiveLock lock(shard.mu);
  if (!shard.impl.Remove(loc.local)) return false;
  --shard_live_[static_cast<size_t>(loc.shard)];
  live_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

int ShardedIndex::RemoveIds(const std::vector<int>& global_ids) {
  ExclusiveLock meta(meta_mu_);
  const int total = total_size_.load(std::memory_order_relaxed);
  // Group by shard so each shard's writer lock is taken once per batch
  // instead of once per id — a bulk delete stalls in-flight queries per
  // shard, not per row.
  std::vector<std::vector<int>> local_ids(shards_.size());
  for (int gid : global_ids) {
    if (gid < 0 || gid >= total) continue;
    const Locator loc = locator_[static_cast<size_t>(gid)];
    if (loc.shard == Locator::kGone) continue;  // compacted away
    local_ids[static_cast<size_t>(loc.shard)].push_back(loc.local);
  }
  int removed = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (local_ids[s].empty()) continue;
    Shard& shard = *shards_[s];
    ExclusiveLock lock(shard.mu);
    int shard_removed = 0;
    for (int local : local_ids[s]) {
      shard_removed += shard.impl.Remove(local) ? 1 : 0;
    }
    shard_live_[s] -= shard_removed;
    removed += shard_removed;
  }
  if (removed > 0) live_size_.fetch_sub(removed, std::memory_order_release);
  return removed;
}

int ShardedIndex::ShardDeadLocked(int s) const {
  const Shard& shard = *shards_[static_cast<size_t>(s)];
  // base_count + appended_ids tracks the impl's total row count and is
  // readable under meta_mu_ alone (every mutator holds it).
  return shard.base_count + static_cast<int>(shard.appended_ids.size()) -
         shard_live_[static_cast<size_t>(s)];
}

int ShardedIndex::CompactShard(int s) {
  UHSCM_CHECK(s >= 0 && s < num_shards(),
              "ShardedIndex::CompactShard: shard out of range");
  ExclusiveLock meta(meta_mu_);
  if (ShardDeadLocked(s) == 0) return 0;
  return CompactShardLocked(s);
}

CompactionStats ShardedIndex::MaybeCompact(double dead_fraction) {
  ExclusiveLock meta(meta_mu_);
  CompactionStats stats;
  for (int s = 0; s < num_shards(); ++s) {
    const Shard& shard = *shards_[static_cast<size_t>(s)];
    const int total =
        shard.base_count + static_cast<int>(shard.appended_ids.size());
    const int dead = ShardDeadLocked(s);
    if (dead <= 0) continue;
    if (static_cast<double>(dead) < dead_fraction * total) continue;
    stats.shards_compacted += 1;
    stats.rows_reclaimed += CompactShardLocked(s);
  }
  return stats;
}

int ShardedIndex::CompactShardLocked(int s) {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  // Off the shard's writer lock: meta_mu_ (held by the caller) keeps the
  // shard write-quiescent — every mutator takes it first — while
  // in-flight queries keep reading the old impl under their shared
  // locks. Compact() only does const reads, so it races with nothing.
  index::LinearScanIndex compacted = shard.impl.Compact();
  const index::TombstoneSet& dead = shard.impl.tombstones();
  const int old_total = shard.impl.total_size();

  // New local ids are survivor ranks; survivor global ids in old-local
  // order are strictly increasing (base ids ascend, appended ids ascend
  // above them), so the remapped shard stays merge-compatible.
  std::vector<int> survivor_gids;
  survivor_gids.reserve(static_cast<size_t>(compacted.total_size()));
  int reclaimed = 0;
  for (int local = 0; local < old_total; ++local) {
    const int gid = shard.GlobalId(local);
    if (dead.Test(local)) {
      locator_[static_cast<size_t>(gid)] = Locator{Locator::kGone, -1};
      ++reclaimed;
    } else {
      locator_[static_cast<size_t>(gid)] =
          Locator{s, static_cast<int>(survivor_gids.size())};
      survivor_gids.push_back(gid);
    }
  }

  // The swap is the only step queries must not observe half-done: take
  // the writer lock just long enough to exchange the pointers.
  {
    ExclusiveLock lock(shard.mu);
    shard.impl = std::move(compacted);
    shard.base_count = 0;  // all locals now map through appended_ids
    shard.appended_ids = std::move(survivor_gids);
  }
  return reclaimed;
}

CorpusExport ShardedIndex::Export() const {
  // Shared: exporting is a pure read — concurrent exports may overlap,
  // and only mutators (exclusive holders) are fenced out.
  SharedLock meta(meta_mu_);
  return ExportLocked();
}

CorpusExport ShardedIndex::ExportLocked() const {
  // Freeze every shard against writers, in shard-index order (the one
  // consistent order kOrderedInstances promises the checker).
  struct AllShardsReadLock {
    explicit AllShardsReadLock(const std::vector<std::unique_ptr<Shard>>& s)
        UHSCM_NO_THREAD_SAFETY_ANALYSIS : shards(s) {
      for (const auto& shard : shards) shard->mu.lock_shared();
    }
    ~AllShardsReadLock() UHSCM_NO_THREAD_SAFETY_ANALYSIS {
      for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
        (*it)->mu.unlock_shared();
      }
    }
    const std::vector<std::unique_ptr<Shard>>& shards;
  } locks(shards_);

  const int total = total_size_.load(std::memory_order_relaxed);
  const int words_per_code = (bits_ + 63) / 64;
  std::vector<uint64_t> words(static_cast<size_t>(total) * words_per_code);
  std::vector<uint64_t> tombstone_words(
      static_cast<size_t>((total + 63) / 64), 0);
  for (int gid = 0; gid < total; ++gid) {
    const Locator loc = locator_[static_cast<size_t>(gid)];
    if (loc.shard == Locator::kGone) {
      // Compacted away: the packed words are gone, but the id slot must
      // survive serialization so every live id reloads unchanged. A
      // zeroed row marked dead is never scanned and never surfaces.
      tombstone_words[static_cast<size_t>(gid >> 6)] |= 1ULL << (gid & 63);
      continue;
    }
    const Shard& shard = *shards_[static_cast<size_t>(loc.shard)];
    const uint64_t* src = shard.impl.database().code(loc.local);
    std::copy(src, src + words_per_code,
              words.begin() + static_cast<size_t>(gid) * words_per_code);
    if (shard.impl.tombstones().Test(loc.local)) {
      tombstone_words[static_cast<size_t>(gid >> 6)] |= 1ULL << (gid & 63);
    }
  }
  CorpusExport out;
  out.codes = index::PackedCodes::FromRawWords(total, bits_, std::move(words));
  out.tombstone_words = std::move(tombstone_words);
  out.live = live_size_.load(std::memory_order_relaxed);
  return out;
}

std::vector<Neighbor> ShardedIndex::MergeTopK(
    const std::vector<std::vector<Neighbor>>& per_shard, int k) {
  if (k <= 0) return {};
  // K-way merge of sorted lists: heap of (list, position) cursors keyed
  // by the cursor's current (distance, id).
  struct Cursor {
    const std::vector<Neighbor>* list;
    size_t pos;
  };
  auto worse = [](const Cursor& a, const Cursor& b) {
    return index::NeighborLess((*b.list)[b.pos], (*a.list)[a.pos]);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(worse)> heap(
      worse);
  for (const std::vector<Neighbor>& list : per_shard) {
    if (!list.empty()) heap.push(Cursor{&list, 0});
  }
  std::vector<Neighbor> merged;
  merged.reserve(static_cast<size_t>(k));
  while (!heap.empty() && static_cast<int>(merged.size()) < k) {
    Cursor top = heap.top();
    heap.pop();
    merged.push_back((*top.list)[top.pos]);
    if (++top.pos < top.list->size()) heap.push(top);
  }
  return merged;
}

}  // namespace uhscm::serve
