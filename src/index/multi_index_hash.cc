#include "index/multi_index_hash.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "obs/kernel_counters.h"

namespace uhscm::index {

MultiIndexHashTable::MultiIndexHashTable(PackedCodes database,
                                         int num_substrings)
    : database_(std::move(database)) {
  const int bits = database_.bits();
  UHSCM_CHECK(bits > 0, "MultiIndexHashTable: empty codes");
  if (num_substrings <= 0) {
    // s ~= bits / log2(n) keeps tables selective; clamp to [1, bits/8].
    const double n = std::max(2, database_.size());
    num_substrings = static_cast<int>(
        std::round(static_cast<double>(bits) / std::log2(n)));
    num_substrings = std::clamp(num_substrings, 1, std::max(1, bits / 8));
  }
  num_substrings_ = std::min(num_substrings, bits);
  substring_bits_ = (bits + num_substrings_ - 1) / num_substrings_;
  UHSCM_CHECK(substring_bits_ <= 63,
              "MultiIndexHashTable: substring too wide; raise num_substrings");

  tables_.resize(static_cast<size_t>(num_substrings_));
  for (int i = 0; i < database_.size(); ++i) {
    for (int s = 0; s < num_substrings_; ++s) {
      tables_[static_cast<size_t>(s)][ExtractSubstring(database_.code(i), s)]
          .push_back(i);
    }
  }
}

uint64_t MultiIndexHashTable::ExtractSubstring(const uint64_t* code,
                                               int s) const {
  const int begin = s * substring_bits_;
  const int end = std::min(begin + substring_bits_, database_.bits());
  uint64_t value = 0;
  for (int b = begin; b < end; ++b) {
    const uint64_t bit = (code[b >> 6] >> (b & 63)) & 1ULL;
    value |= bit << (b - begin);
  }
  return value;
}

void MultiIndexHashTable::EnumerateNeighbors(
    uint64_t value, int width, int radius, int first_bit, int table,
    std::vector<int>* candidates) const {
  auto it = tables_[static_cast<size_t>(table)].find(value);
  if (it != tables_[static_cast<size_t>(table)].end()) {
    candidates->insert(candidates->end(), it->second.begin(),
                       it->second.end());
  }
  if (radius == 0) return;
  for (int b = first_bit; b < width; ++b) {
    EnumerateNeighbors(value ^ (1ULL << b), width, radius - 1, b + 1, table,
                       candidates);
  }
}

std::vector<Neighbor> MultiIndexHashTable::WithinRadius(const uint64_t* query,
                                                        int r) const {
  // A negative per-substring radius would never reach the enumeration's
  // radius == 0 stop and probe every value of every table.
  if (r < 0) return {};
  // Pigeonhole: a code at distance <= r matches some substring within
  // floor(r / s).
  const int sub_radius = r / num_substrings_;
  std::vector<int> candidates;
  for (int s = 0; s < num_substrings_; ++s) {
    const int begin = s * substring_bits_;
    const int end = std::min(begin + substring_bits_, database_.bits());
    const int width = end - begin;
    // Enumerating C(width, <= sub_radius) patterns blows up for large
    // radii — fall back to scanning this table's full contents if the
    // enumeration would exceed the database size.
    double patterns = 1.0;
    double choose = 1.0;
    for (int d = 1; d <= sub_radius; ++d) {
      choose = choose * (width - d + 1) / d;
      patterns += choose;
    }
    if (patterns > static_cast<double>(database_.size())) {
      for (int i = 0; i < database_.size(); ++i) candidates.push_back(i);
      break;
    }
    uint64_t qsub = 0;
    for (int b = begin; b < end; ++b) {
      const uint64_t bit = (query[b >> 6] >> (b & 63)) & 1ULL;
      qsub |= bit << (b - begin);
    }
    EnumerateNeighbors(qsub, width, sub_radius, 0, s, &candidates);
  }
  // Probed counts raw table hits (pre-dedup — the bucket traffic the
  // probe pattern generated); verified counts exact distance checks on
  // the surviving unique candidates.
  obs::KernelCounters counters;
  counters.mih_candidates_probed += static_cast<int64_t>(candidates.size());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<Neighbor> out;
  for (int id : candidates) {
    counters.mih_candidates_verified += 1;
    const int d = database_.DistanceTo(id, query);
    if (d <= r) out.push_back({id, d});
  }
  counters.Flush();
  return out;
}

}  // namespace uhscm::index
