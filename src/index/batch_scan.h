#ifndef UHSCM_INDEX_BATCH_SCAN_H_
#define UHSCM_INDEX_BATCH_SCAN_H_

#include <cstdint>
#include <vector>

#include "index/hamming_kernels.h"
#include "index/linear_scan.h"
#include "index/packed_codes.h"
#include "index/shard_index.h"

namespace uhscm::index {

struct BatchScanOptions {
  /// Codes per cache block; 0 picks a size that keeps one block of packed
  /// codes (~64 KiB) resident in L1/L2 while every query in the batch is
  /// scored against it.
  int code_block = 0;
  /// Kernel tier override for benches and the forced-tier CI runs; the
  /// default uses the process-wide dispatch decision (ActiveKernelTier).
  /// Unavailable tiers fall back to the best available tier below them.
  bool force_tier = false;
  KernelTier tier = KernelTier::kScalar;
  /// Deletion bitmap over `db` rows (null = all rows live). Tombstoned
  /// rows are still scored by the kernel (the block stays contiguous) but
  /// can never enter a heap, so results match a scan over the survivors.
  const TombstoneSet* tombstones = nullptr;
};

/// Codes per cache block when BatchScanOptions::code_block == 0: sized so
/// one block of packed codes (~64 KiB) stays L1/L2-resident while every
/// query of the batch is scored against it. Shared with the self-join
/// engine, whose tiles are both query blocks and code blocks at once.
int PickCodeBlockSize(int words_per_code, int requested);

/// \brief Query-blocked x code-blocked exact top-k over packed codes.
///
/// Scores all `num_queries` queries against one cache-resident block of
/// codes before advancing to the next block, so each block of the corpus
/// is read from memory once per *batch* instead of once per *query* —
/// the Q-fold traffic amortization the per-query scan cannot get. Codes
/// are visited in ascending id order per query and top-k selection uses
/// the same bounded max-heap displacement rule as LinearScanIndex::TopK
/// (strict distance improvement only), so results — ids, distances, and
/// tie-break order — are byte-identical to the per-query scan. Once a
/// query's heap is full, its current worst distance is handed to the
/// kernel as an early-abandon threshold (see hamming_kernels.h).
std::vector<std::vector<Neighbor>> BatchTopK(
    const PackedCodes& db, const uint64_t* const* queries, int num_queries,
    int k, const BatchScanOptions& options = {});

/// Convenience overload for a PackedCodes batch of queries.
std::vector<std::vector<Neighbor>> BatchTopK(
    const PackedCodes& db, const PackedCodes& queries, int k,
    const BatchScanOptions& options = {});

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_BATCH_SCAN_H_
