#include "index/multi_index_hash.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/status.h"

namespace uhscm::index {
namespace {

/// First bit of substring s of S balanced substrings over `bits` bits.
int SubstringBegin(int bits, int num_substrings, int s) {
  return static_cast<int>(static_cast<int64_t>(s) * bits / num_substrings);
}

/// Directory key width of a `width`-bit substring over `rows` rows:
/// min(width, ceil(log2 rows) + 1), so the directory never exceeds
/// 4·rows + 1 offsets.
int KeyBits(int width, int rows) {
  const int log2_rows =
      rows > 1 ? std::bit_width(static_cast<unsigned>(rows - 1)) : 0;
  return std::min(width, log2_rows + 1);
}

/// Buckets within Hamming distance `radius` of a `key_bits`-bit key.
double BucketsWithin(int key_bits, int radius) {
  double buckets = 1.0;
  double choose = 1.0;
  for (int d = 1; d <= std::min(radius, key_bits); ++d) {
    choose = choose * (key_bits - d + 1) / d;
    buckets += choose;
  }
  return buckets;
}

}  // namespace

MultiIndexHashTable::MultiIndexHashTable(PackedCodes database,
                                         int num_substrings,
                                         const TombstoneSet* tombstones)
    : database_(std::move(database)) {
  const int bits = database_.bits();
  UHSCM_CHECK(bits > 0, "MultiIndexHashTable: empty codes");
  std::vector<int> live;
  live.reserve(static_cast<size_t>(database_.size()));
  for (int i = 0; i < database_.size(); ++i) {
    if (tombstones == nullptr || i >= tombstones->size() ||
        !tombstones->Test(i)) {
      live.push_back(i);
    }
  }
  const int rows = static_cast<int>(live.size());
  if (num_substrings <= 0) {
    // S ~= bits / log2(n) keeps tables selective; clamp to [1, bits/8].
    const double n = std::max(2, rows);
    num_substrings = static_cast<int>(
        std::round(static_cast<double>(bits) / std::log2(n)));
    num_substrings = std::clamp(num_substrings, 1, std::max(1, bits / 8));
  }
  num_substrings = std::min(num_substrings, bits);

  // One counting sort per substring: histogram the keys, prefix-sum them
  // into the directory, then place ids in ascending row order, which
  // leaves every bucket ascending.
  std::vector<uint32_t> keys(live.size());
  tables_.resize(static_cast<size_t>(num_substrings));
  for (int s = 0; s < num_substrings; ++s) {
    Table& table = tables_[static_cast<size_t>(s)];
    table.begin = SubstringBegin(bits, num_substrings, s);
    table.width = SubstringBegin(bits, num_substrings, s + 1) - table.begin;
    table.key_bits = KeyBits(table.width, rows);
    table.key_lo = table.begin + table.width - table.key_bits;
    table.offsets.assign((size_t{1} << table.key_bits) + 1, 0);
    for (size_t r = 0; r < live.size(); ++r) {
      keys[r] = Key(database_.code(live[r]), table);
      ++table.offsets[keys[r] + 1];
    }
    for (size_t v = 1; v < table.offsets.size(); ++v) {
      table.offsets[v] += table.offsets[v - 1];
    }
    std::vector<int> cursor(table.offsets.begin(), table.offsets.end() - 1);
    table.ids.resize(live.size());
    for (size_t r = 0; r < live.size(); ++r) {
      table.ids[static_cast<size_t>(cursor[keys[r]]++)] = live[r];
    }
  }
}

int MultiIndexHashTable::substring_width(int s) const {
  return tables_[static_cast<size_t>(s)].width;
}

size_t MultiIndexHashTable::directory_size(int s) const {
  return tables_[static_cast<size_t>(s)].offsets.size();
}

uint32_t MultiIndexHashTable::Key(const uint64_t* code, const Table& table) {
  // key_bits <= 32, so the key spans at most two words.
  const int word = table.key_lo >> 6;
  const int shift = table.key_lo & 63;
  uint64_t value = code[word] >> shift;
  if (shift + table.key_bits > 64) value |= code[word + 1] << (64 - shift);
  return static_cast<uint32_t>(value &
                               ((uint64_t{1} << table.key_bits) - 1));
}

double MultiIndexHashTable::MeanSameKeyRows() const {
  const int rows = static_cast<int>(tables_.front().ids.size());
  if (rows == 0) return 0.0;
  double sum_squares = 0.0;
  for (const Table& table : tables_) {
    for (size_t v = 0; v + 1 < table.offsets.size(); ++v) {
      const double bucket = table.offsets[v + 1] - table.offsets[v];
      sum_squares += bucket * bucket;
    }
  }
  return sum_squares / rows;
}

void MultiIndexHashTable::Probe(const uint64_t* query, int r, int first_id,
                                std::vector<int>* candidates,
                                obs::KernelCounters* counters,
                                std::vector<Neighbor>* out) const {
  candidates->clear();
  // Pigeonhole: a code at distance <= r matches some substring within
  // floor(r / S); its key, a part of that substring, is then within it too.
  const int sub_radius = r / num_substrings();
  double buckets = 0.0;
  for (const Table& table : tables_) {
    buckets += BucketsWithin(table.key_bits, sub_radius);
  }
  const std::vector<int>& all_ids = tables_.front().ids;
  if (buckets > static_cast<double>(all_ids.size())) {
    // Opening that many buckets costs more than verifying every row.
    for (const int id : all_ids) {
      if (id >= first_id) candidates->push_back(id);
    }
    counters->mih_candidates_probed +=
        static_cast<int64_t>(candidates->size());
  } else {
    for (const Table& table : tables_) {
      const int* ids = table.ids.data();
      const auto visit = [&](uint32_t key) {
        const int* last = ids + table.offsets[key + 1];
        const int* first =
            std::lower_bound(ids + table.offsets[key], last, first_id);
        counters->mih_candidates_probed += last - first;
        candidates->insert(candidates->end(), first, last);
      };
      const uint32_t key = Key(query, table);
      visit(key);
      // Every key_bits-bit mask of d set bits, ascending (Gosper's hack).
      for (int d = 1; d <= std::min(sub_radius, table.key_bits); ++d) {
        for (uint64_t mask = (uint64_t{1} << d) - 1;
             mask < (uint64_t{1} << table.key_bits);) {
          visit(key ^ static_cast<uint32_t>(mask));
          const uint64_t low = mask & (~mask + 1);
          const uint64_t ripple = mask + low;
          mask = (((ripple ^ mask) >> 2) / low) | ripple;
        }
      }
    }
  }
  // Ascending ids, each once: a code matching several substrings turns
  // up once per match.
  std::sort(candidates->begin(), candidates->end());
  candidates->erase(std::unique(candidates->begin(), candidates->end()),
                    candidates->end());
  counters->mih_candidates_verified +=
      static_cast<int64_t>(candidates->size());
  const int words = database_.words_per_code();
  for (const int id : *candidates) {
    const int d = HammingDistance(query, database_.code(id), words);
    if (d <= r) out->push_back({id, d});
  }
}

std::vector<Neighbor> MultiIndexHashTable::WithinRadius(const uint64_t* query,
                                                        int r) const {
  std::vector<Neighbor> out;
  if (r < 0) return out;
  std::vector<int> candidates;
  obs::KernelCounters counters;
  Probe(query, r, 0, &candidates, &counters, &out);
  counters.Flush();
  return out;
}

}  // namespace uhscm::index
