#ifndef UHSCM_INDEX_LINEAR_SCAN_H_
#define UHSCM_INDEX_LINEAR_SCAN_H_

#include <vector>

#include "index/neighbor.h"
#include "index/packed_codes.h"
#include "index/shard_index.h"

namespace uhscm::index {

/// \brief Exact Hamming-ranking retrieval by brute-force popcount scan.
///
/// This is the Hamming-ranking protocol of §4.2: all database codes are
/// ranked by distance to the query (ties broken by database id, matching
/// the deterministic tie-breaking the evaluation metrics assume).
///
/// The index is mutable, and it is the shard type serve::ShardedIndex
/// composes: Append adds rows at the end (ids keep ascending) and Remove
/// tombstones a row, which every scan below then skips — results over the
/// survivors are byte-identical (after id compaction) to a fresh build
/// without the removed rows.
///
/// Thread safety: query methods are const and safe to call concurrently
/// with each other; Append/Remove require external exclusion against
/// queries (serve::ShardedIndex holds a per-shard reader/writer lock).
class LinearScanIndex {
 public:
  /// Takes ownership of the packed database codes.
  explicit LinearScanIndex(PackedCodes database);

  /// Live (non-tombstoned) rows.
  int size() const { return database_.size() - tombstones_.dead_count(); }
  /// All rows ever appended, including tombstoned ones.
  int total_size() const { return database_.size(); }
  int bits() const { return database_.bits(); }
  const PackedCodes& database() const { return database_; }
  const TombstoneSet& tombstones() const { return tombstones_; }

  /// Top-k nearest live database codes to the packed query (ascending
  /// distance, then ascending id). k is clamped to the live row count.
  std::vector<Neighbor> TopK(const uint64_t* query, int k) const;

  /// Batched top-k: one result list per query, each byte-identical to the
  /// corresponding TopK call. Routes through the cache-blocked SIMD scan
  /// (index/batch_scan.h), which reads each corpus block once per batch
  /// instead of once per query — the serving hot path.
  std::vector<std::vector<Neighbor>> TopKBatch(const uint64_t* const* queries,
                                               int num_queries,
                                               int k) const;
  std::vector<std::vector<Neighbor>> TopKBatch(const PackedCodes& queries,
                                               int k) const;

  /// Appends `batch` after the current rows (ids total_size()..).
  void Append(const PackedCodes& batch);

  /// Tombstones row `id`; false when out of range or already dead.
  bool Remove(int id);

  /// Fresh LinearScanIndex over the survivor rows only — the rebuild half
  /// of the compaction protocol. Survivors keep their relative order, so
  /// the new index's local id of an old survivor is its rank among the
  /// survivors; queries against the compacted index are byte-identical to
  /// this index after that rank remap. Const (and safe to run
  /// concurrently with query methods): the caller swaps the result in
  /// under its own writer lock.
  LinearScanIndex Compact() const;

  /// Distances from the query to every database row, tombstoned rows
  /// included (used to build PR curves over all Hamming radii in one
  /// pass on frozen corpora).
  std::vector<int> AllDistances(const uint64_t* query) const;

  /// All live database codes within Hamming radius r (ascending id).
  std::vector<Neighbor> WithinRadius(const uint64_t* query, int r) const;

 private:
  PackedCodes database_;
  TombstoneSet tombstones_;
};

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_LINEAR_SCAN_H_
