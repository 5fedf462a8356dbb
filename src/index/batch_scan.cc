#include "index/batch_scan.h"

#include <algorithm>

#include "obs/kernel_counters.h"

namespace uhscm::index {
namespace {

/// Block of packed codes targeted at ~64 KiB so it stays cache-resident
/// across all queries of the batch.
constexpr int kTargetBlockBytes = 64 * 1024;

/// Codes per emitting call. Each call re-reads the query's live
/// worst-of-heap as its bound, so a heap that fills or tightens mid-block
/// prunes the rest of the block (see src/index/README.md).
constexpr int kEmitRun = 256;

}  // namespace

int PickCodeBlockSize(int words_per_code, int requested) {
  if (requested > 0) return requested;
  const int bytes_per_code = words_per_code * 8;
  return std::max(256, kTargetBlockBytes / bytes_per_code);
}

std::vector<std::vector<Neighbor>> BatchTopK(const PackedCodes& db,
                                             const uint64_t* const* queries,
                                             int num_queries, int k,
                                             const BatchScanOptions& options) {
  std::vector<std::vector<Neighbor>> results(
      static_cast<size_t>(std::max(0, num_queries)));
  const TombstoneSet* dead = options.tombstones;
  if (dead != nullptr && !dead->any()) dead = nullptr;
  // Clamp k to the live row count so the result size matches a scan over
  // the survivors.
  k = std::min(k, db.size() - (dead != nullptr ? dead->dead_count() : 0));
  if (k <= 0 || num_queries <= 0) return results;

  const int n = db.size();
  const int words = db.words_per_code();
  const int block = PickCodeBlockSize(words, options.code_block);
  const BatchEmitFn emit = options.force_tier ? GetBatchEmitFn(options.tier)
                                              : GetBatchEmitFn();

  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(a, b);
  };
  for (auto& heap : results) heap.reserve(static_cast<size_t>(k));
  int32_t hit_index[kEmitRun];
  int32_t hit_distance[kEmitRun];

  // Function-local work counters: plain integer bumps inside the scan
  // loops, one atomic flush to the registry when the batch is done.
  obs::KernelCounters counters;

  for (int begin = 0; begin < n; begin += block) {
    const int end = begin + std::min(block, n - begin);
    counters.rows_scanned += static_cast<int64_t>(end - begin) * num_queries;
    for (int q = 0; q < num_queries; ++q) {
      std::vector<Neighbor>& heap = results[static_cast<size_t>(q)];
      for (int lo = begin; lo < end; lo += kEmitRun) {
        // Only a full heap bounds the run: every code is emitted while it
        // fills, then only codes that could displace its worst entry.
        const bool armed = static_cast<int>(heap.size()) == k;
        const int hits = emit(queries[q], db.code(lo),
                              std::min(kEmitRun, end - lo), words,
                              armed ? heap.front().distance : kNoThreshold,
                              nullptr, hit_index, hit_distance);
        if (armed) {
          counters.early_abandon_calls += 1;
          if (hits == 0) counters.blocks_skipped += 1;
        }
        for (int h = 0; h < hits; ++h) {
          const Neighbor hit{lo + hit_index[h], hit_distance[h]};
          if (dead != nullptr && dead->Test(hit.id)) continue;
          if (static_cast<int>(heap.size()) < k) {
            heap.push_back(hit);
            std::push_heap(heap.begin(), heap.end(), cmp);
          } else if (hit.distance < heap.front().distance) {
            // Strict < matches the per-query scan: ids only ascend, so a
            // distance tie never displaces the current worst.
            std::pop_heap(heap.begin(), heap.end(), cmp);
            heap.back() = hit;
            std::push_heap(heap.begin(), heap.end(), cmp);
          }
        }
      }
    }
  }

  counters.Flush();
  for (auto& heap : results) std::sort_heap(heap.begin(), heap.end(), cmp);
  return results;
}

std::vector<std::vector<Neighbor>> BatchTopK(const PackedCodes& db,
                                             const PackedCodes& queries,
                                             int k,
                                             const BatchScanOptions& options) {
  std::vector<const uint64_t*> ptrs(static_cast<size_t>(queries.size()));
  for (int q = 0; q < queries.size(); ++q) ptrs[static_cast<size_t>(q)] = queries.code(q);
  return BatchTopK(db, ptrs.data(), queries.size(), k, options);
}

}  // namespace uhscm::index
