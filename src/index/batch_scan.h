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
  /// Codes per cache block; 0 picks about 32 KiB of packed codes (4096
  /// codes at 64 bits, 2048 at 128, at least 256), so one block stays
  /// L1-resident while every query in the batch is scored against it.
  int code_block = 0;
  /// Kernel tier override for benches and the forced-tier CI runs; the
  /// default uses the process-wide dispatch decision (ActiveKernelTier).
  /// Unavailable tiers fall back to the best available tier below them.
  bool force_tier = false;
  KernelTier tier = KernelTier::kScalar;
  /// Deletion bitmap over `db` rows (null = all rows live). Tombstoned
  /// rows are still scored by the kernel (the block stays contiguous) but
  /// their hits are dropped before the heap, so results match a scan over
  /// the survivors.
  const TombstoneSet* tombstones = nullptr;
};

/// \brief Query-blocked x code-blocked exact top-k over packed codes.
///
/// Scores all `num_queries` queries against one L1-resident block of
/// codes before advancing to the next block, so each block of the corpus
/// is read from memory once per *batch* instead of once per *query* —
/// the Q-fold traffic amortization the per-query scan cannot get. Codes
/// are visited in ascending id order per query and top-k selection uses
/// the same bounded max-heap displacement rule as LinearScanIndex::TopK
/// (strict distance improvement only), so results — ids, distances, and
/// tie-break order — are byte-identical to the per-query scan. Each
/// block is walked in 256-code runs through the emitting kernel
/// (BatchEmitFn), up to four queries per call, so one load of each step
/// of codes serves the whole group. Each query's bound is re-read from
/// its heap before every run: once the heap holds k live entries, a run
/// emits only the codes strictly below its current worst distance.
std::vector<std::vector<Neighbor>> BatchTopK(
    const PackedCodes& db, const uint64_t* const* queries, int num_queries,
    int k, const BatchScanOptions& options = {});

/// Convenience overload for a PackedCodes batch of queries.
std::vector<std::vector<Neighbor>> BatchTopK(
    const PackedCodes& db, const PackedCodes& queries, int k,
    const BatchScanOptions& options = {});

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_BATCH_SCAN_H_
