#ifndef UHSCM_INDEX_MULTI_INDEX_HASH_H_
#define UHSCM_INDEX_MULTI_INDEX_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/neighbor.h"
#include "index/packed_codes.h"
#include "index/shard_index.h"
#include "obs/kernel_counters.h"

namespace uhscm::index {

/// \brief Multi-Index Hashing (Norouzi, Punjani & Fleet, TPAMI 2014) for
/// exact Hamming radius queries — the hash-lookup protocol of §4.2 at
/// database scale, and the probe side of the radius self-join.
///
/// The k-bit code is split into S balanced substrings: substring s covers
/// bits [s·k/S, (s+1)·k/S), so widths differ by at most one bit. A code
/// within Hamming radius r of the query matches the query in at least one
/// substring within floor(r/S) (pigeonhole). Candidates are gathered by
/// probing, per substring, every bucket whose key lies within that
/// sub-radius of the query's key; each unique candidate is then verified
/// with the full popcount distance, so results are exact.
///
/// Layout: each substring owns one flat table — the live row ids,
/// counting-sorted by key (ids ascending within a bucket), and an offset
/// directory of 2^b + 1 entries, where bucket v holds ids[offsets[v],
/// offsets[v+1]). The key is the substring value when its width w is at
/// most ceil(log2 n) + 1 bits, else its top ceil(log2 n) + 1 bits (a
/// prefix within the sub-radius is necessary for the whole substring to
/// be, so the probe stays exact). A table therefore costs n ids plus at
/// most 4n + 1 offsets: O(n) memory whatever the width or S.
///
/// The table is frozen: it indexes the rows it was built over and
/// answers radius queries only. Exact top-k and mutable corpora belong to
/// the batched linear scan (LinearScanIndex).
class MultiIndexHashTable {
 public:
  /// \param database packed database codes (owned).
  /// \param num_substrings S >= 1, clamped to the bit width. The classic
  ///        choice S = bits / log2(n), clamped to [1, bits/8], is applied
  ///        when 0 is given.
  /// \param tombstones rows to leave out of the tables (null = all live);
  ///        they are never returned.
  explicit MultiIndexHashTable(PackedCodes database, int num_substrings = 0,
                               const TombstoneSet* tombstones = nullptr);

  int num_substrings() const { return static_cast<int>(tables_.size()); }
  /// Bits covered by substring s.
  int substring_width(int s) const;
  /// Offset directory entries of substring s: 2^key_bits + 1.
  size_t directory_size(int s) const;

  /// All indexed codes within Hamming radius r of the query, ascending
  /// id — exact, verified results (identical to
  /// LinearScanIndex::WithinRadius, which the tests cross-check). A
  /// negative radius matches nothing.
  std::vector<Neighbor> WithinRadius(const uint64_t* query, int r) const;

  /// Appends every indexed id >= first_id within radius r (r >= 0) of
  /// the query to *out, ascending id, with exact distances. Bucket
  /// entries probed and unique candidates verified are added to
  /// *counters; `candidates` is a working buffer, reused across calls. The
  /// radius self-join calls this once per row with first_id = row + 1.
  void Probe(const uint64_t* query, int r, int first_id,
             std::vector<int>* candidates, obs::KernelCounters* counters,
             std::vector<Neighbor>* out) const;

  /// Bucket entries a probe at sub-radius 0 reads, averaged over the
  /// indexed rows: the sum over substrings and buckets of |bucket|^2 /
  /// rows (a row's own bucket, itself included, in every table). About
  /// S * (rows / 2^key_bits + 1) for uniform keys; clustered codes crowd
  /// buckets and raise it quadratically. Counted from the directories in
  /// O(2^key_bits) per table; the radius self-join weighs it against the
  /// blocked join's per-row work.
  double MeanSameKeyRows() const;

 private:
  struct Table {
    int begin = 0;     ///< first bit of the substring
    int width = 0;     ///< substring bits
    int key_lo = 0;    ///< first bit of the key: the substring's top bits
    int key_bits = 0;  ///< min(width, ceil(log2 n) + 1)
    std::vector<int> offsets;
    std::vector<int> ids;
  };

  static uint32_t Key(const uint64_t* code, const Table& table);

  PackedCodes database_;
  std::vector<Table> tables_;
};

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_MULTI_INDEX_HASH_H_
