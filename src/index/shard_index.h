#ifndef UHSCM_INDEX_SHARD_INDEX_H_
#define UHSCM_INDEX_SHARD_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/packed_codes.h"

namespace uhscm::index {

/// \brief Deletion bitmap over a code database.
///
/// Removed rows keep their id and their packed words; they are simply
/// skipped by every scan and verification loop. Id stability is what lets
/// a mutable index stay byte-identical (after id compaction) to a fresh
/// rebuild of the surviving rows: survivors keep their relative order, and
/// the (distance, id) tie-break only depends on that order.
class TombstoneSet {
 public:
  TombstoneSet() = default;

  /// Rebuilds from a serialized bitmap (snapshot load). `words` must hold
  /// ceil(n/64) entries; bits at positions >= n are ignored.
  static TombstoneSet FromWords(int n, const std::vector<uint64_t>& words);

  /// Grows the bitmap to cover `n` rows; new rows start live. Never
  /// shrinks.
  void Resize(int n);

  int size() const { return size_; }
  int dead_count() const { return dead_count_; }
  bool any() const { return dead_count_ > 0; }

  bool Test(int i) const {
    return (words_[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1ULL;
  }

  /// Marks row i dead. Returns false when it was already dead.
  bool Set(int i);

  /// Raw bitmap, ceil(size/64) words (serialization path).
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  int size_ = 0;
  int dead_count_ = 0;
  std::vector<uint64_t> words_;
};

inline TombstoneSet TombstoneSet::FromWords(int n,
                                            const std::vector<uint64_t>& words) {
  TombstoneSet set;
  set.Resize(n);
  const size_t count =
      words.size() < set.words_.size() ? words.size() : set.words_.size();
  for (size_t w = 0; w < count; ++w) set.words_[w] = words[w];
  // Clear any bits beyond the last row so dead_count stays exact.
  if (n & 63) set.words_.back() &= (1ULL << (n & 63)) - 1;
  set.dead_count_ = 0;
  for (uint64_t w : set.words_) {
    set.dead_count_ += __builtin_popcountll(w);
  }
  return set;
}

inline void TombstoneSet::Resize(int n) {
  if (n > size_) {
    size_ = n;
    words_.resize(static_cast<size_t>((n + 63) / 64), 0);
  }
}

inline bool TombstoneSet::Set(int i) {
  uint64_t& word = words_[static_cast<size_t>(i >> 6)];
  const uint64_t mask = 1ULL << (i & 63);
  if (word & mask) return false;
  word |= mask;
  ++dead_count_;
  return true;
}

/// Copies the live rows of `codes` (those not set in `dead`) into a
/// fresh PackedCodes, preserving order — the survivor copy
/// LinearScanIndex::Compact() starts from.
inline PackedCodes CompactLiveRows(const PackedCodes& codes,
                                   const TombstoneSet& dead) {
  const int words_per_code = codes.words_per_code();
  const int live = codes.size() - dead.dead_count();
  std::vector<uint64_t> words;
  words.reserve(static_cast<size_t>(live) * words_per_code);
  for (int i = 0; i < codes.size(); ++i) {
    if (dead.Test(i)) continue;
    const uint64_t* src = codes.code(i);
    words.insert(words.end(), src, src + words_per_code);
  }
  return PackedCodes::FromRawWords(live, codes.bits(), std::move(words));
}

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_SHARD_INDEX_H_
