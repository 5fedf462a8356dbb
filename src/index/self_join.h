#ifndef UHSCM_INDEX_SELF_JOIN_H_
#define UHSCM_INDEX_SELF_JOIN_H_

#include <cstdint>
#include <vector>

#include "index/hamming_kernels.h"
#include "index/neighbor.h"
#include "index/packed_codes.h"
#include "index/shard_index.h"

namespace uhscm::index {

/// \brief Tiled corpus x corpus self-join over packed codes.
///
/// The offline-analytics counterpart of the serving scan: every row is
/// simultaneously query and corpus. Instead of the branchy O(n^2)
/// per-pair loop (the mostsimilar shape), the corpus is walked as an
/// upper triangle of row tiles — each unordered pair of rows lands in
/// exactly one tile pair, is scored once by the emitting batched kernel
/// (BatchEmitFn in hamming_kernels.h), and credits both rows' reducers.
/// The kernel emits only the pairs that could enter a top-k list (or fall
/// within the radius), so the few survivors are all that leave the
/// kernel (a sparse RadiusJoin probes a multi-index hash instead; see
/// there). Tile pairs run on a ThreadPool; results are nevertheless
/// byte-identical to the naive per-pair reference (ReferenceTopKJoin /
/// ReferenceRadiusJoin below), including tie handling and tombstoned
/// rows, because every reducer keeps the exact k-smallest (distance, id)
/// set, which is unique regardless of the order candidates arrive in.
struct SelfJoinOptions {
  /// Rows per tile; 0 picks a size per join. TopKJoin takes about 16 KiB
  /// of codes (TopKJoinTileRows: 1024 rows at 128 bits), so the inner
  /// tile and its bounds stay in L1 while the other tile's rows stream
  /// past. RadiusJoin's tiled path takes about 64 KiB (4096 rows at 128
  /// bits, at least 256), the size its hash-vs-tiles cost rule was priced
  /// at.
  int tile = 0;
  /// Worker threads for the tile-pair loop (0 = hardware concurrency).
  int threads = 0;
  /// Kernel tier override for benches and forced-tier CI runs; the
  /// default uses the process-wide dispatch decision. Unavailable tiers
  /// grade down like BatchScanOptions::force_tier.
  bool force_tier = false;
  KernelTier tier = KernelTier::kScalar;
  /// Deletion bitmap over rows (null = all live). Tombstoned rows are
  /// excluded from the join entirely: they are never queries (their
  /// result list stays empty), never candidates, and never pair
  /// endpoints.
  const TombstoneSet* tombstones = nullptr;
};

/// Work accounting for one join call (also mirrored into the metrics
/// registry as join.tiles / join.pairs_pruned / join.pairs_scored when
/// the observability layer is runtime-enabled).
struct SelfJoinStats {
  /// tile-pair tasks executed, or row-range probe tasks when RadiusJoin
  /// runs on the multi-index hash
  int64_t tiles = 0;
  int64_t pairs_total = 0;   ///< unordered live pairs the join covers
  /// live pairs left out: their distance reached the bound of every
  /// endpoint (worst kept distance + 1, or radius + 1), or the
  /// multi-index hash never offered them or its verification rejected
  /// them
  int64_t pairs_pruned = 0;
  /// live pairs offered to a top-k list or the radius output: the kernel
  /// emitted them, or the hash verified them within the radius;
  /// pairs_pruned + pairs_scored == pairs_total
  int64_t pairs_scored = 0;
  double seconds = 0.0;      ///< wall time of the join
};

/// Rows per TopKJoin tile: `requested` when positive, otherwise about
/// 16 KiB of codes (1024 rows at 128 bits) and at least 256 rows.
int TopKJoinTileRows(int words_per_code, int requested);

/// \brief k nearest neighbors for every row (self-matches excluded).
///
/// result[i] holds the k live rows j != i with the smallest
/// (distance, id) keys, sorted by NeighborLess — exactly what
/// LinearScanIndex::TopK would return for row i's code against a corpus
/// with row i removed. k is clamped to live_rows - 1; tombstoned rows
/// get empty lists. Each row's candidates go to one flat n x k array of
/// packed (distance << 32 | id) keys, kept sorted by insertion, so one
/// integer compare is the NeighborLess displacement test and the row's
/// emit bound is its last key's distance + 1 once the list is full.
std::vector<std::vector<Neighbor>> TopKJoin(const PackedCodes& codes, int k,
                                            const SelfJoinOptions& options = {},
                                            SelfJoinStats* stats = nullptr);

/// One unordered pair surfaced by a threshold join: a < b always.
struct JoinPair {
  int a;
  int b;
  int distance;
};

inline bool operator==(const JoinPair& x, const JoinPair& y) {
  return x.a == y.a && x.b == y.b && x.distance == y.distance;
}

/// \brief All unordered live pairs within Hamming radius (inclusive).
///
/// WithinRadius semantics lifted to the whole corpus: every {i, j} with
/// i < j, both live, and d(i, j) <= radius, sorted by (a, b). It does
/// not always score every pair. A cost rule picks one of two paths,
/// which return the same pairs:
/// - a multi-index hash (multi_index_hash.h) over the live rows, with
///   S = radius + 1 balanced substrings (possible while S <= bits / 8),
///   when the table's own bucket counts say a row's probe work is
///   cheaper than the live / 2 pairs the blocked join scores per row at
///   the resolved kernel tier. Each row probes for candidates j > i,
///   which are deduplicated and verified with the popcount distance;
///   row ranges run on the ThreadPool and concatenate in (a, b) order.
///   This serves sparse joins such as dedup at small radii.
/// - the tiled join otherwise (crowded buckets, large radii): the
///   emitting kernel compares every distance against radius + 1 and
///   writes out only the qualifying pairs; each tile task's (a, b)-sorted
///   chunk is placed by row, in task order, without a global sort.
/// The tier options pick the tiled join's kernel and, through its
/// measured speed, where the rule switches; the hash verifies with the
/// same popcount distance at every tier.
std::vector<JoinPair> RadiusJoin(const PackedCodes& codes, int radius,
                                 const SelfJoinOptions& options = {},
                                 SelfJoinStats* stats = nullptr);

/// How DedupGroups links rows into clusters.
enum class DedupLink {
  /// Union only reciprocal best matches: {i, j} is an edge iff each is
  /// the other's nearest neighbor (top-1 under (distance, id)) and
  /// d(i, j) <= radius — the mostsimilar "mutual match" rule. Clusters
  /// are disjoint pairs by construction.
  kReciprocalBest,
  /// Union every within-radius pair: clusters are the connected
  /// components of the radius graph (transitive near-duplicate closure —
  /// "the same photo re-exported five times" lands in one group).
  kRadius,
};

struct DedupOptions {
  /// Inclusive Hamming radius below which two rows count as duplicates.
  int radius = 0;
  DedupLink link = DedupLink::kRadius;
};

/// \brief Duplicate clusters from a threshold + best-match reduction.
struct DedupGroupsResult {
  /// Each group: member ids sorted ascending, size >= 2. Groups sorted
  /// by their first member (the canonical representative — the row a
  /// dedup pass would keep).
  std::vector<std::vector<int>> groups;
  /// Reciprocal best-match pairs within the radius (computed under both
  /// link modes; under kReciprocalBest these are exactly the union-find
  /// edges). Sorted by (a, b).
  std::vector<JoinPair> reciprocal_pairs;
  /// Sum of group sizes — rows that have at least one duplicate.
  int64_t rows_clustered = 0;
  SelfJoinStats join;
};

/// \brief Threshold + reciprocal-best-match union-find over the radius
/// join: duplicate clusters at corpus scale.
///
/// Runs RadiusJoin(radius), derives each row's best within-radius match
/// (which equals its global nearest neighbor whenever that neighbor
/// qualifies), and unions edges per DedupOptions::link. The reducer is
/// pure code over the pair list, so byte-identity of the radius join
/// carries over to the groups.
DedupGroupsResult DedupGroups(const PackedCodes& codes,
                              const DedupOptions& dedup,
                              const SelfJoinOptions& options = {});

/// Pure reducer from a within-radius pair list, in any order, to dedup
/// groups: O(n + pairs) time and O(n) memory over dense arrays, where
/// n = the largest id in the pairs + 1. It keeps a best match per row,
/// an array union-find whose roots are each component's smallest
/// member, and places members in one ascending pass.
DedupGroupsResult ReducePairsToGroups(const std::vector<JoinPair>& pairs,
                                      DedupLink link);

/// \brief Naive per-pair references — the branchy O(n^2) loop the engine
/// replaces, kept as the semantic oracle and the bench baseline.
///
/// Each unordered live pair is scored once with the per-pair
/// HammingDistance call and offered to both rows' bounded heaps
/// ((distance, id) displacement). Output is byte-identical to the tiled
/// engine by construction of both.
std::vector<std::vector<Neighbor>> ReferenceTopKJoin(
    const PackedCodes& codes, int k, const TombstoneSet* tombstones = nullptr);
std::vector<JoinPair> ReferenceRadiusJoin(
    const PackedCodes& codes, int radius,
    const TombstoneSet* tombstones = nullptr);

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_SELF_JOIN_H_
