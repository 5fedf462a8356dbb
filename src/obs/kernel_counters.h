#ifndef UHSCM_OBS_KERNEL_COUNTERS_H_
#define UHSCM_OBS_KERNEL_COUNTERS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace uhscm::obs {

/// \brief Per-batch accumulator for kernel-level work counters.
///
/// The scan and MIH kernels bump these as plain (non-atomic) fields in a
/// function-local instance — zero contention inside the kernel — and
/// flush the totals to the global registry once per batch call. When the
/// layer is runtime-disabled, the bumps remain (plain integer adds,
/// invisible next to the hamming kernel work) but the flush becomes a
/// no-op, so the atomics are never touched.
///
/// Registry names: scan.rows_scanned, scan.blocks_skipped,
/// scan.early_abandon_calls, mih.candidates_probed,
/// mih.candidates_verified, join.tiles, join.pairs_pruned,
/// join.pairs_scored.
struct KernelCounters {
  int64_t rows_scanned = 0;
  int64_t blocks_skipped = 0;
  int64_t early_abandon_calls = 0;
  int64_t mih_candidates_probed = 0;
  int64_t mih_candidates_verified = 0;
  /// Self-join engine (src/index/self_join.h): tile-pair tasks executed,
  /// unordered pairs disposed by tile/chunk min-skips, and pairs that
  /// reached the per-pair branch. pruned + scored covers every live pair
  /// of a join call exactly once.
  int64_t join_tiles = 0;
  int64_t join_pairs_pruned = 0;
  int64_t join_pairs_scored = 0;

  /// Adds the accumulated deltas into the global registry and zeroes
  /// this instance. Safe to call with all-zero counters (cheap no-op).
  void Flush();
};

}  // namespace uhscm::obs

#endif  // UHSCM_OBS_KERNEL_COUNTERS_H_
