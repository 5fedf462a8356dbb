#include "index/batch_scan.h"

#include <algorithm>

#include "obs/kernel_counters.h"

namespace uhscm::index {
namespace {

/// Block of packed codes targeted at ~64 KiB so it stays cache-resident
/// across all queries of the batch.
constexpr int kTargetBlockBytes = 64 * 1024;

/// Sub-chunk width for hierarchical min-skip walks over a just-written
/// distance buffer: a chunk whose minimum is >= the frozen threshold is
/// skipped without paying the per-code displacement branch (see the
/// safety argument in src/index/README.md).
constexpr int kDistChunk = 128;

/// Minimum of dist[lo..hi) — a straight-line reduction the compiler
/// auto-vectorizes; the buffer is L1-resident because the kernel just
/// wrote it. Precondition: lo < hi.
int32_t ChunkMin(const int32_t* dist, int lo, int hi) {
  int32_t m = dist[lo];
  for (int i = lo + 1; i < hi; ++i) m = m < dist[i] ? m : dist[i];
  return m;
}

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
  // Clamp k to the live row count so a heap can actually fill (the
  // early-abandon threshold only arms on a full heap) and the result
  // size matches a scan over the survivors.
  k = std::min(k, db.size() - (dead != nullptr ? dead->dead_count() : 0));
  if (k <= 0 || num_queries <= 0) return results;

  const int n = db.size();
  const int words = db.words_per_code();
  const int block = PickCodeBlockSize(words, options.code_block);
  const BatchDistanceMinFn kernel = options.force_tier
                                        ? GetBatchDistanceMinFn(options.tier)
                                        : GetBatchDistanceMinFn();

  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(a, b);
  };
  for (auto& heap : results) heap.reserve(static_cast<size_t>(k));
  std::vector<int32_t> dist(static_cast<size_t>(block));

  // Function-local work counters: plain integer bumps inside the scan
  // loops, one atomic flush to the registry when the batch is done.
  obs::KernelCounters counters;

  for (int begin = 0; begin < n; begin += block) {
    const int count = std::min(block, n - begin);
    const uint64_t* block_codes = db.code(begin);
    for (int q = 0; q < num_queries; ++q) {
      std::vector<Neighbor>& heap = results[static_cast<size_t>(q)];
      // Exact distances while the heap is still filling (it can only fill
      // during the first block(s)); once full, the frozen worst-of-heap is
      // a safe pruning threshold — it only shrinks within the block, and
      // the live heap check below re-applies the tighter bound.
      const int32_t threshold = static_cast<int>(heap.size()) == k
                                    ? heap.front().distance
                                    : kNoThreshold;
      // Warm heap: no insertion happened yet for this block, so the heap
      // front still equals `threshold`, and a block whose minimum
      // distance is >= it contains no qualifying code — skip the
      // per-code branch loop entirely. The kernel returns that minimum
      // from the registers the distances were computed in.
      const int32_t best = kernel(queries[q], block_codes, count, words,
                                  threshold, dist.data());
      counters.rows_scanned += count;
      if (threshold != kNoThreshold) {
        counters.early_abandon_calls += 1;
        if (best >= threshold) {
          counters.blocks_skipped += 1;
          continue;
        }
      }
      auto insert_range = [&](int lo, int hi) {
        for (int i = lo; i < hi; ++i) {
          if (dead != nullptr && dead->Test(begin + i)) continue;
          const int d = dist[i];
          if (static_cast<int>(heap.size()) < k) {
            heap.push_back({begin + i, d});
            std::push_heap(heap.begin(), heap.end(), cmp);
          } else if (d < heap.front().distance) {
            // Strict < matches the per-query scan: ids only ascend, so a
            // distance tie never displaces the current worst.
            std::pop_heap(heap.begin(), heap.end(), cmp);
            heap.back() = {begin + i, d};
            std::push_heap(heap.begin(), heap.end(), cmp);
          }
        }
      };
      if (threshold != kNoThreshold) {
        // The block holds at least one qualifying code, but typically only
        // a handful: chunk-level min reductions (SIMD-friendly, L1-resident
        // reads) locate the hot chunks and only those pay the per-code
        // displacement branch.
        for (int c0 = 0; c0 < count; c0 += kDistChunk) {
          const int c1 = std::min(c0 + kDistChunk, count);
          if (ChunkMin(dist.data(), c0, c1) >= threshold) continue;
          insert_range(c0, c1);
        }
      } else {
        insert_range(0, count);
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
