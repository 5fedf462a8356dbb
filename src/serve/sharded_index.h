#ifndef UHSCM_SERVE_SHARDED_INDEX_H_
#define UHSCM_SERVE_SHARDED_INDEX_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/annotated_sync.h"
#include "index/neighbor.h"
#include "index/packed_codes.h"
#include "index/linear_scan.h"

namespace uhscm::serve {

struct ShardedIndexOptions {
  /// Number of partitions; clamped to [1, corpus size]. Each shard is an
  /// independent linear-scan index searched in parallel.
  int num_shards = 1;
};

/// Point-in-time copy of the whole corpus in global-id order, the unit a
/// versioned snapshot persists. Tombstoned rows keep their packed words
/// (id stability across save/load); the bitmap says which rows are dead.
struct CorpusExport {
  index::PackedCodes codes;
  /// Deletion bitmap, ceil(codes.size()/64) words; bit g set = global id
  /// g is tombstoned.
  std::vector<uint64_t> tombstone_words;
  int live = 0;
};

/// What one compaction pass reclaimed (zeroes when no shard qualified).
struct CompactionStats {
  int shards_compacted = 0;
  int rows_reclaimed = 0;

  CompactionStats& operator+=(const CompactionStats& other) {
    shards_compacted += other.shards_compacted;
    rows_reclaimed += other.rows_reclaimed;
    return *this;
  }
  bool operator==(const CompactionStats& other) const {
    return shards_compacted == other.shards_compacted &&
           rows_reclaimed == other.rows_reclaimed;
  }
};

/// \brief A corpus of packed codes partitioned into independently
/// searchable, independently *mutable* shards.
///
/// The initial corpus is split into contiguous row ranges; each shard is
/// an index::LinearScanIndex.
/// Append routes each incoming batch to the shard with the fewest live
/// rows and assigns fresh global ids from a monotonic counter; Remove
/// tombstones a global id in place. Shard-local ids map to global ids
/// through a strictly increasing per-shard map (base offset + appended-id
/// list), so per-shard sorted result lists stay sorted after remapping
/// and the (distance, global id) ordering of merged results is
/// byte-identical — after id compaction — to a single LinearScan over the
/// surviving rows, the invariant tests/serve_test.cc pins down.
///
/// Concurrency: each shard carries a reader/writer lock. Queries take the
/// shard lock shared, Append/Remove take it exclusive (plus a corpus
/// mutex for id assignment and routing), so searches run concurrently
/// with updates and never observe a torn shard.
///
/// Search is two-level: ShardTopKBatch answers a block of queries within
/// one shard, and MergeTopK k-way merges the per-shard sorted lists.
/// QueryEngine flattens (query block x shard) units into one parallel
/// loop and merges per query; the index itself owns no thread pool.
class ShardedIndex {
 public:
  /// Slices the corpus into its shards: each shard copies its own row
  /// range, so the corpus is copied once and left unchanged.
  explicit ShardedIndex(const index::PackedCodes& corpus,
                        const ShardedIndexOptions& options = {});

  /// Live (non-tombstoned) codes across all shards.
  int size() const { return live_size_.load(std::memory_order_relaxed); }
  /// All codes ever added, including tombstoned ones (== the upper bound
  /// of assigned global ids).
  int total_size() const {
    return total_size_.load(std::memory_order_relaxed);
  }
  int bits() const { return bits_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Exact top-k within shard `s` only, with *global* ids, for each of
  /// `num_queries` queries: ascending distance, then ascending global id.
  /// Runs the cache-blocked SIMD batch scan, so the shard's codes stream
  /// once per query block rather than once per query. Merging every
  /// shard's list with MergeTopK gives the corpus-wide top-k,
  /// byte-identical to one LinearScanIndex::TopK over the live rows.
  std::vector<std::vector<index::Neighbor>> ShardTopKBatch(
      int s, const uint64_t* const* queries, int num_queries, int k) const;

  /// Appends a batch of codes (same bit width) to the shard with the
  /// fewest live rows. Returns the assigned global ids (consecutive,
  /// starting at the pre-call total_size()).
  std::vector<int> Append(const index::PackedCodes& batch);

  /// Tombstones one global id. Returns false when out of range or
  /// already removed.
  bool Remove(int global_id);

  /// Remove() over a list; returns how many ids were newly tombstoned.
  /// Duplicate, out-of-range, already-tombstoned, and compacted-away ids
  /// each count zero — the live counters move by exactly the number of
  /// rows that actually died.
  int RemoveIds(const std::vector<int>& global_ids);

  /// \name Tombstone compaction
  ///
  /// Dead rows keep burning scan bandwidth until compacted away. Compaction rebuilds one shard over its
  /// survivors and swaps the rebuild in, remapping the global-id
  /// locator so every surviving global id resolves to its new local
  /// slot. Global ids never change, and results over the survivors are
  /// byte-identical to the uncompacted index.
  ///
  /// Protocol: the whole pass runs under the corpus meta mutex (which
  /// every mutator takes first, so the shard is write-quiescent), but
  /// the expensive survivor rebuild runs *off* the shard's writer lock
  /// — in-flight queries keep scanning the old shard the whole time.
  /// Only the final pointer swap takes the writer lock, so readers
  /// stall for a pointer exchange, not a rebuild. Writers queued on the
  /// meta mutex resume once the pass finishes.
  ///@{

  /// Compacts shard `s` if it holds any dead rows. Returns the number
  /// of rows reclaimed (0 when the shard was already clean).
  int CompactShard(int s);

  /// Compacts every shard whose dead fraction (dead rows / total rows)
  /// is >= `dead_fraction` (clamped to > 0 — a clean shard never
  /// qualifies). The decision depends only on deterministic per-shard
  /// counters, so identically-hydrated replicas compact identically.
  CompactionStats MaybeCompact(double dead_fraction);

  /// Compacts every shard holding any dead row.
  CompactionStats CompactAll() { return MaybeCompact(0.0); }
  ///@}

  /// Copies the whole corpus (live + tombstoned rows) in global-id order
  /// — the payload of a versioned snapshot save. Global ids whose rows
  /// were compacted away serialize as zeroed rows with their tombstone
  /// bit set: the id space stays dense on disk, reloads keep every
  /// surviving id stable, and the dead rows never surface.
  CorpusExport Export() const;

  /// Merges per-shard sorted result lists into the global top-k via a
  /// k-way min-heap. Exposed for the batch engine and tests.
  static std::vector<index::Neighbor> MergeTopK(
      const std::vector<std::vector<index::Neighbor>>& per_shard, int k);

 private:
  struct Shard {
    explicit Shard(index::PackedCodes codes) : impl(std::move(codes)) {}

    int offset = 0;      // global id of the shard's first base row
    int base_count = 0;  // contiguous base rows [offset, offset+base_count)
    /// Global ids of appended rows (local ids base_count..), strictly
    /// increasing — appended under the corpus mutex from a monotonic
    /// counter. offset/base_count/appended_ids follow a dual-guard
    /// protocol: writers hold both meta_mu_ and mu, readers hold either
    /// one. TSA cannot express an either-of guard, so they carry no
    /// GUARDED_BY; the lock-order checker still covers both locks.
    std::vector<int> appended_ids;
    index::LinearScanIndex impl UHSCM_GUARDED_BY(mu);
    /// Queries hold this shared; Append/Remove hold it exclusive. All
    /// instances share one lock class and may nest (kOrderedInstances)
    /// because Export() takes every shard lock in shard-index order.
    mutable SharedMutex mu{"index.shard", 50, lockorder::kOrderedInstances};

    int GlobalId(int local) const {
      return local < base_count
                 ? offset + local
                 : appended_ids[static_cast<size_t>(local - base_count)];
    }
  };

  /// Where a global id lives: (shard, shard-local id). A compacted-away
  /// id has shard == kGone: its row no longer exists anywhere, and every
  /// id-addressed operation must treat it as already removed.
  struct Locator {
    static constexpr int kGone = -1;
    int shard;
    int local;
  };

  /// Dead rows in shard `s`; caller holds meta_mu_.
  int ShardDeadLocked(int s) const UHSCM_REQUIRES_SHARED(meta_mu_);
  /// The meta-locked body of CompactShard; `s` must hold dead rows.
  /// Unanalyzed body: deliberately reads the old shard impl *off* the
  /// shard lock — exclusive meta_mu_ keeps the shard write-quiescent
  /// (see the compaction protocol above), which TSA cannot express.
  int CompactShardLocked(int s)
      UHSCM_REQUIRES(meta_mu_) UHSCM_NO_THREAD_SAFETY_ANALYSIS;
  /// The meta-locked body of Export. Unanalyzed body: holds the dynamic
  /// set of all shard locks (taken in shard-index order), which TSA
  /// cannot track through a loop.
  CorpusExport ExportLocked() const
      UHSCM_REQUIRES_SHARED(meta_mu_) UHSCM_NO_THREAD_SAFETY_ANALYSIS;

  int bits_ = 0;
  /// Relaxed: advisory live-row count (k clamping, size accessors, stats).
  /// No data is published through it — rows are protected by the shard
  /// rwlocks and all mutation happens under meta_mu_.
  std::atomic<int> live_size_{0};
  /// Relaxed: upper bound of assigned global ids. Mutated and read under
  /// meta_mu_ on every id-addressed path; the lock-free accessor is
  /// advisory only.
  std::atomic<int> total_size_{0};
  /// Guards locator_, shard_live_, append routing, and global-id
  /// assignment. Always acquired before any shard lock. Mutators hold it
  /// exclusive; Export(), the snapshot read path, holds it shared.
  mutable SharedMutex meta_mu_{"index.meta", 60};
  std::vector<Locator> locator_ UHSCM_GUARDED_BY(meta_mu_);  // by global id
  std::vector<int> shard_live_ UHSCM_GUARDED_BY(meta_mu_);
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_SHARDED_INDEX_H_
