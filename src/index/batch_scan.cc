#include "index/batch_scan.h"

#include <algorithm>

#include "obs/kernel_counters.h"

namespace uhscm::index {
namespace {

/// Block of packed codes targeted at 32 KiB, so it stays L1-resident
/// while every query of the batch is scored against it. At 64 KiB (more
/// than a 48 KiB L1d) each query re-read the block from L2, and the scan
/// cost about a fifth more (src/index/README.md, "Blocked batch scan").
constexpr int kTargetBlockBytes = 32 * 1024;

/// Codes per emitting call. Each call re-reads the query's live
/// worst-of-heap as its bound, so a heap that fills or tightens mid-block
/// prunes the rest of the block (see src/index/README.md).
constexpr int kEmitRun = 256;

/// Codes per cache block: `requested` when positive, otherwise
/// kTargetBlockBytes of codes and at least 256 codes (one emit run).
int PickCodeBlockSize(int words_per_code, int requested) {
  if (requested > 0) return requested;
  return std::max(kEmitRun, kTargetBlockBytes / (words_per_code * 8));
}

}  // namespace

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
  // Query g of a group writes its hits to slot g * run (BatchEmitFn).
  int32_t hit_index[kMaxEmitQueries * kEmitRun];
  int32_t hit_distance[kMaxEmitQueries * kEmitRun];
  int32_t bounds[kMaxEmitQueries] = {};
  int hit_count[kMaxEmitQueries] = {};

  // Function-local work counters: plain integer bumps inside the scan
  // loops, one atomic flush to the registry when the batch is done.
  obs::KernelCounters counters;

  for (int begin = 0; begin < n; begin += block) {
    const int end = begin + std::min(block, n - begin);
    counters.rows_scanned += static_cast<int64_t>(end - begin) * num_queries;
    // The block's queries go to the kernel in groups of up to
    // kMaxEmitQueries, so each load of codes serves the whole group.
    for (int q0 = 0; q0 < num_queries; q0 += kMaxEmitQueries) {
      const int group = std::min(kMaxEmitQueries, num_queries - q0);
      std::vector<Neighbor>* heaps = results.data() + q0;
      for (int lo = begin; lo < end; lo += kEmitRun) {
        const int run = std::min(kEmitRun, end - lo);
        // Only a full heap bounds the run: every code is emitted while it
        // fills, then only codes that could displace its worst entry.
        for (int g = 0; g < group; ++g) {
          bounds[g] = static_cast<int>(heaps[g].size()) == k
                          ? heaps[g].front().distance
                          : kNoThreshold;
        }
        emit(queries + q0, group, db.code(lo), run, words, bounds, nullptr,
             hit_index, hit_distance, hit_count);
        for (int g = 0; g < group; ++g) {
          if (bounds[g] != kNoThreshold) {
            counters.early_abandon_calls += 1;
            if (hit_count[g] == 0) counters.blocks_skipped += 1;
          }
          std::vector<Neighbor>& heap = heaps[g];
          for (int h = g * run; h < g * run + hit_count[g]; ++h) {
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
