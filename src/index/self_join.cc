#include "index/self_join.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "index/multi_index_hash.h"
#include "obs/kernel_counters.h"
#include "obs/metrics.h"

namespace uhscm::index {
namespace {

/// Flush bound for the buffered list updates of an off-diagonal tile
/// task: candidates are staged lock-free and applied under the owning
/// tile's mutex in batches of at most this many, so a cold join (lists
/// not yet full, every pair emitted) cannot stage O(tile^2) entries.
constexpr size_t kFlushCandidates = 8192;

/// Safe saturating "threshold + 1": a pair at exactly the worst kept
/// distance can still displace that entry on the id tie-break (tile
/// mirroring delivers candidates out of id order, unlike the
/// ascending-id serving scan), so the join may only leave out pairs
/// whose distance is *strictly* greater than every involved worst kept
/// distance. An emit bound of that distance + 1 buys exactly that.
int32_t PlusOne(int32_t threshold) {
  return threshold >= kNoThreshold - 1 ? kNoThreshold : threshold + 1;
}

/// Per-call tile geometry plus live-row bookkeeping (prefix counts give
/// O(1) "live pairs in range" for the pruning counters).
struct TileMap {
  int n = 0;
  int tile = 0;
  int num_tiles = 0;
  const TombstoneSet* dead = nullptr;
  /// live_prefix[i] = live rows among [0, i).
  std::vector<int> live_prefix;

  /// `pick_tile` sizes the tiles from the code width and
  /// SelfJoinOptions::tile (TopKJoinTileRows or RadiusJoinTileRows).
  TileMap(const PackedCodes& codes, const SelfJoinOptions& options,
          int (*pick_tile)(int words_per_code, int requested)) {
    n = codes.size();
    tile = codes.words_per_code() > 0
               ? pick_tile(codes.words_per_code(), options.tile)
               : 1;
    num_tiles = n > 0 ? (n + tile - 1) / tile : 0;
    dead = options.tombstones;
    if (dead != nullptr && !dead->any()) dead = nullptr;
    live_prefix.resize(static_cast<size_t>(n) + 1, 0);
    for (int i = 0; i < n; ++i) {
      live_prefix[static_cast<size_t>(i) + 1] =
          live_prefix[static_cast<size_t>(i)] + (IsLive(i) ? 1 : 0);
    }
  }

  bool IsLive(int i) const { return dead == nullptr || !dead->Test(i); }
  int LiveIn(int lo, int hi) const {
    return live_prefix[static_cast<size_t>(hi)] -
           live_prefix[static_cast<size_t>(lo)];
  }
  int live() const { return live_prefix[static_cast<size_t>(n)]; }
  int TileBegin(int t) const { return t * tile; }
  int TileEnd(int t) const { return std::min(n, (t + 1) * tile); }
};

/// Work counters one task accumulates as plain ints and adds to the
/// join-wide atomics (and the obs registry) once when it finishes.
struct TaskCounters {
  int64_t pruned = 0;
  int64_t scored = 0;

  /// One kernel call over `live` live pairs, `emitted` of them emitted.
  void Add(int live, int emitted) {
    pruned += live - emitted;
    scored += emitted;
  }
};

struct JoinTotals {
  // Relaxed: independent work counters accumulated across tasks and
  // read only after the join's pool barrier, which orders them.
  std::atomic<int64_t> tiles{0};
  std::atomic<int64_t> pruned{0};
  std::atomic<int64_t> scored{0};

  void Absorb(const TaskCounters& task) {
    tiles.fetch_add(1, std::memory_order_relaxed);
    pruned.fetch_add(task.pruned, std::memory_order_relaxed);
    scored.fetch_add(task.scored, std::memory_order_relaxed);
  }
};

using obs::StageTimer;

void FlushJoinCounters(const JoinTotals& totals) {
  obs::KernelCounters counters;
  counters.join_tiles = totals.tiles.load(std::memory_order_relaxed);
  counters.join_pairs_pruned = totals.pruned.load(std::memory_order_relaxed);
  counters.join_pairs_scored = totals.scored.load(std::memory_order_relaxed);
  counters.Flush();
}

/// All (I, J) tile pairs with I <= J, diagonals first: the diagonal task
/// is what fills a tile's lists (arming every later bound), so it must
/// not queue behind off-diagonal work that cannot prune yet. The pairs of
/// one row band I come in ascending J.
std::vector<std::pair<int, int>> TilePairsDiagonalFirst(int num_tiles) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(num_tiles) *
                static_cast<size_t>(num_tiles + 1) / 2);
  for (int t = 0; t < num_tiles; ++t) pairs.emplace_back(t, t);
  for (int i = 0; i < num_tiles; ++i) {
    for (int j = i + 1; j < num_tiles; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

/// The tier the join's kernel runs at: the forced tier, or the
/// process-wide dispatch, falling back as GetBatchEmitFn does.
KernelTier ResolveTier(const SelfJoinOptions& options) {
  KernelTier tier = options.force_tier ? options.tier : ActiveKernelTier();
  if (tier == KernelTier::kAvx512 && !KernelTierAvailable(tier)) {
    tier = KernelTier::kAvx2;
  }
  if (tier == KernelTier::kAvx2 && !KernelTierAvailable(tier)) {
    tier = KernelTier::kScalar;
  }
  return tier;
}

/// Output of one emitting kernel call, sized for the longest run a task
/// scores (one tile).
struct Hits {
  std::vector<int32_t> index;
  std::vector<int32_t> distance;

  explicit Hits(int capacity)
      : index(static_cast<size_t>(capacity)),
        distance(static_cast<size_t>(capacity)) {}
};

// ------------------------------------------------------------- TopKJoin

/// Codes per TopKJoin tile when SelfJoinOptions::tile is 0: about 16 KiB
/// (1024 rows at 128 bits), so the scanned tile's codes and bounds stay
/// in L1 while every row of the other tile streams past them.
constexpr int kTopKTileBytes = 16 * 1024;

/// A neighbor as one integer: (distance << 32) | id. Distances and ids are
/// non-negative, so unsigned key order is NeighborLess order.
inline uint64_t PackNeighbor(int id, int32_t distance) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(distance)) << 32) |
         static_cast<uint32_t>(id);
}

/// An unfilled list slot: above every real key.
constexpr uint64_t kEmptyKey = UINT64_MAX;

/// Offers one candidate key to a row's k-slot list, kept ascending with
/// empty slots at the back, by sorted insertion under the full
/// (distance, id) order. Unlike the serving scan's strict-distance rule
/// (safe there because ids only ascend), the join's mirrored candidates
/// arrive out of id order, so an equal-distance smaller id must displace
/// the last entry. Keeping the exact k-smallest set makes the final list
/// independent of arrival order — the byte-identity argument. Updates
/// *bound to last + 1 once the list holds k entries.
inline void OfferKey(uint64_t* list, int k, uint64_t key, int32_t* bound) {
  if (key >= list[k - 1]) return;
  int slot = k - 1;
  for (; slot > 0 && list[slot - 1] > key; --slot) list[slot] = list[slot - 1];
  list[slot] = key;
  if (list[k - 1] != kEmptyKey) {
    *bound = PlusOne(static_cast<int32_t>(list[k - 1] >> 32));
  }
}

/// Shared mutable state of one TopKJoin call. Row i's list
/// keys[i*k, (i+1)*k) and bounds[i] are owned by row i's tile: mutated
/// only under tile_mu[i / tile]. Reads from other tasks go through the
/// same lock and are used only as conservative (stale = larger) emit
/// bounds.
struct TopKState {
  int k = 0;
  std::vector<uint64_t> keys;
  /// Emit bound per row: last + 1 once list i holds k entries,
  /// INT32_MAX while it fills, 0 for tombstoned rows (which never take a
  /// candidate, so only the live endpoint's bound may emit their pairs).
  std::vector<int32_t> bounds;
  /// Plain std::mutex by design: a call-local stripe array (one lock
  /// per tile, sized at runtime), never held two at a time and never
  /// nested with any named lock in the serving hierarchy — the same
  /// exemption ParallelFor's completion latch gets.
  std::vector<std::mutex> tile_mu;

  TopKState(const TileMap& tiles, int k_eff)
      : k(k_eff),
        keys(static_cast<size_t>(tiles.n) * static_cast<size_t>(k_eff),
             kEmptyKey),
        bounds(static_cast<size_t>(tiles.n), INT32_MAX),
        tile_mu(static_cast<size_t>(std::max(1, tiles.num_tiles))) {
    for (int i = 0; i < tiles.n; ++i) {
      if (!tiles.IsLive(i)) bounds[static_cast<size_t>(i)] = 0;
    }
  }

  uint64_t* list(int row) {
    return keys.data() + static_cast<size_t>(row) * static_cast<size_t>(k);
  }
  void Offer(int row, uint64_t key) {
    OfferKey(list(row), k, key, &bounds[static_cast<size_t>(row)]);
  }
};

/// One staged list update: candidate `key` for row `row`.
struct StagedOffer {
  uint64_t key;
  int row;
};

void ApplyOffers(TopKState* state, int tile_index,
                 std::vector<StagedOffer>* offers) {
  if (offers->empty()) return;
  std::lock_guard<std::mutex> lock(
      state->tile_mu[static_cast<size_t>(tile_index)]);
  for (const StagedOffer& offer : *offers) state->Offer(offer.row, offer.key);
  offers->clear();
}

/// Diagonal tile task: rows [t0, t1) against each other, each unordered
/// pair once (row i scans the contiguous run [i+1, t1)). The task owns
/// every list it touches, so the kernel reads the live bounds directly:
/// a pair is emitted unless its distance reaches both rows' bounds, and
/// bounds only shrink, so a pair left out could never enter either list.
/// The emitted few are offered to both lists, which decide exactly.
void TopKDiagonalTile(const PackedCodes& codes, const TileMap& tiles,
                      BatchEmitFn emit, int t, TopKState* state,
                      TaskCounters* counters) {
  const int t0 = tiles.TileBegin(t);
  const int t1 = tiles.TileEnd(t);
  const int words = codes.words_per_code();
  std::lock_guard<std::mutex> lock(state->tile_mu[static_cast<size_t>(t)]);
  int32_t* bounds = state->bounds.data();
  Hits hits(t1 - t0);
  for (int i = t0; i < t1 - 1; ++i) {
    if (!tiles.IsLive(i)) continue;
    const int live_ahead = tiles.LiveIn(i + 1, t1);
    if (live_ahead == 0) break;  // no live candidate after i in this tile
    const uint64_t* query = codes.code(i);
    int emitted = 0;
    emit(&query, 1, codes.code(i + 1), t1 - i - 1, words, bounds + i,
         bounds + i + 1, hits.index.data(), hits.distance.data(), &emitted);
    int live_emitted = 0;
    for (int e = 0; e < emitted; ++e) {
      const int j = i + 1 + hits.index[static_cast<size_t>(e)];
      if (!tiles.IsLive(j)) continue;
      ++live_emitted;
      const int32_t d = hits.distance[static_cast<size_t>(e)];
      state->Offer(i, PackNeighbor(j, d));
      state->Offer(j, PackNeighbor(i, d));
    }
    counters->Add(live_ahead, live_emitted);
  }
}

/// Off-diagonal tile task (ti < tj): every row of tile ti scans tile
/// tj's contiguous codes once against a snapshot of both tiles' bounds,
/// taken under the owning tiles' locks; staleness is conservative
/// because bounds only shrink. Each emitted pair is staged for the query
/// row (tile ti side) and mirrored to the candidate row (tile tj side)
/// when that side's snapshot bound admits it, then applied under one
/// lock per side.
void TopKOffDiagonalTile(const PackedCodes& codes, const TileMap& tiles,
                         BatchEmitFn emit, int ti, int tj, TopKState* state,
                         TaskCounters* counters) {
  const int i0 = tiles.TileBegin(ti), i1 = tiles.TileEnd(ti);
  const int j0 = tiles.TileBegin(tj), j1 = tiles.TileEnd(tj);
  const int count = j1 - j0;
  const int live_j = tiles.LiveIn(j0, j1);
  if (live_j == 0 || tiles.LiveIn(i0, i1) == 0) return;
  const int words = codes.words_per_code();

  std::vector<int32_t> bounds_i(static_cast<size_t>(i1 - i0));
  std::vector<int32_t> bounds_j(static_cast<size_t>(count));
  {
    std::lock_guard<std::mutex> lock(
        state->tile_mu[static_cast<size_t>(ti)]);
    std::copy(state->bounds.begin() + i0, state->bounds.begin() + i1,
              bounds_i.begin());
  }
  {
    std::lock_guard<std::mutex> lock(
        state->tile_mu[static_cast<size_t>(tj)]);
    std::copy(state->bounds.begin() + j0, state->bounds.begin() + j1,
              bounds_j.begin());
  }

  Hits hits(count);
  std::vector<StagedOffer> query_side, mirror_side;
  for (int i = i0; i < i1; ++i) {
    if (!tiles.IsLive(i)) continue;
    const int32_t bound_i = bounds_i[static_cast<size_t>(i - i0)];
    const uint64_t* query = codes.code(i);
    int emitted = 0;
    emit(&query, 1, codes.code(j0), count, words, &bound_i, bounds_j.data(),
         hits.index.data(), hits.distance.data(), &emitted);
    int live_emitted = 0;
    for (int e = 0; e < emitted; ++e) {
      const int c = hits.index[static_cast<size_t>(e)];
      const int j = j0 + c;
      if (!tiles.IsLive(j)) continue;
      ++live_emitted;
      const int32_t d = hits.distance[static_cast<size_t>(e)];
      // Stage each side only where its snapshot bound admits the pair.
      // A bound is last + 1, so a pair tying the last entry is staged and
      // the live list decides the id tie-break under the lock.
      if (d < bound_i) query_side.push_back({PackNeighbor(j, d), i});
      if (d < bounds_j[static_cast<size_t>(c)]) {
        mirror_side.push_back({PackNeighbor(i, d), j});
      }
    }
    counters->Add(live_j, live_emitted);
    if (query_side.size() + mirror_side.size() >= kFlushCandidates) {
      ApplyOffers(state, ti, &query_side);
      ApplyOffers(state, tj, &mirror_side);
    }
  }
  ApplyOffers(state, ti, &query_side);
  ApplyOffers(state, tj, &mirror_side);
}

// ----------------------------------------------------------- RadiusJoin

/// Codes per tiled RadiusJoin tile when SelfJoinOptions::tile is 0: about
/// 64 KiB (4096 rows at 128 bits), the size MihUnitCostInPairs was priced
/// at. 16 KiB radius tiles measured mixed against it.
constexpr int kRadiusTileBytes = 64 * 1024;

/// Rows per tiled RadiusJoin tile: `requested` when positive, otherwise
/// kRadiusTileBytes of codes and at least 256 rows.
int RadiusJoinTileRows(int words_per_code, int requested) {
  if (requested > 0) return requested;
  return std::max(256, kRadiusTileBytes / (words_per_code * 8));
}

/// One tile-pair task of a radius join: emits every qualifying live pair
/// of the (ti, tj) tile rectangle (diagonal tiles scan the strict upper
/// triangle) into `out`, in (a, b) order within the task. The kernel
/// emits only pairs below the row bound radius + 1 (no per-code bounds);
/// tombstoned rows are dropped from those.
void RadiusTileTask(const PackedCodes& codes, const TileMap& tiles,
                    BatchEmitFn emit, int radius, int ti, int tj,
                    std::vector<JoinPair>* out, TaskCounters* counters) {
  const int i0 = tiles.TileBegin(ti), i1 = tiles.TileEnd(ti);
  const int j0 = tiles.TileBegin(tj), j1 = tiles.TileEnd(tj);
  if (tiles.LiveIn(i0, i1) == 0 || tiles.LiveIn(j0, j1) == 0) return;
  const int words = codes.words_per_code();
  const int32_t bound = PlusOne(radius);
  Hits hits(j1 - j0);
  for (int i = i0; i < i1; ++i) {
    if (!tiles.IsLive(i)) continue;
    const int start = ti == tj ? i + 1 : j0;  // each unordered pair once
    const int live_range = tiles.LiveIn(start, j1);
    if (live_range == 0) continue;
    const uint64_t* query = codes.code(i);
    int emitted = 0;
    emit(&query, 1, codes.code(start), j1 - start, words, &bound, nullptr,
         hits.index.data(), hits.distance.data(), &emitted);
    int live_emitted = 0;
    for (int e = 0; e < emitted; ++e) {
      const int j = start + hits.index[static_cast<size_t>(e)];
      if (!tiles.IsLive(j)) continue;
      ++live_emitted;
      out->push_back({i, j, hits.distance[static_cast<size_t>(e)]});
    }
    counters->Add(live_range, live_emitted);
  }
}

/// The per-task pair lists of a radius join, in task order.
std::vector<JoinPair> Concatenate(
    const std::vector<std::vector<JoinPair>>& chunks) {
  size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  std::vector<JoinPair> result;
  result.reserve(total);
  for (const auto& chunk : chunks) {
    result.insert(result.end(), chunk.begin(), chunk.end());
  }
  return result;
}

/// RadiusJoin over every tile pair with the emitting kernel.
std::vector<JoinPair> BlockedRadiusJoin(const PackedCodes& codes,
                                        const TileMap& tiles, int radius,
                                        BatchEmitFn emit, ThreadPool* pool,
                                        JoinTotals* totals) {
  const std::vector<std::pair<int, int>> pairs =
      TilePairsDiagonalFirst(tiles.num_tiles);
  std::vector<std::vector<JoinPair>> per_task(pairs.size());
  {
    StageTimer timer("stage.join_scan_ns");
    pool->ParallelFor(static_cast<int>(pairs.size()), [&](int task) {
      const auto [ti, tj] = pairs[static_cast<size_t>(task)];
      TaskCounters counters;
      RadiusTileTask(codes, tiles, emit, radius, ti, tj,
                     &per_task[static_cast<size_t>(task)], &counters);
      totals->Absorb(counters);
    });
  }
  StageTimer timer("stage.join_merge_ns");
  // Counting placement by row a. Each task's chunk is (a, b)-sorted, and
  // the tasks holding row a's pairs come in ascending tj in task order
  // (its diagonal tile first, then tiles to the right), so placing the
  // chunks in task order leaves every row's pairs in ascending b.
  std::vector<size_t> row_start(static_cast<size_t>(tiles.n) + 1, 0);
  for (const auto& chunk : per_task) {
    for (const JoinPair& pair : chunk) {
      ++row_start[static_cast<size_t>(pair.a) + 1];
    }
  }
  for (int i = 0; i < tiles.n; ++i) {
    row_start[static_cast<size_t>(i) + 1] += row_start[static_cast<size_t>(i)];
  }
  std::vector<JoinPair> result(row_start.back());
  for (const auto& chunk : per_task) {
    for (const JoinPair& pair : chunk) {
      result[row_start[static_cast<size_t>(pair.a)]++] = pair;
    }
  }
  return result;
}

// ------------------------------------------------------- MIH RadiusJoin

/// Blocked-join pairs that one unit of hash-probe work (one bucket
/// opened, or one bucket entry read, with its share of the candidate
/// sort and the random-access popcount verification) costs, by the tier
/// the blocked join would run and the code width. Measured on planted
/// 60k-row corpora (20k rows for the blocked join; 1% tombstones, one
/// pinned thread) on a 4-vCPU AVX-512 VPOPCNTDQ host, in two rounds.
/// The SIMD tiers' 1- and 2-word cells: a unit cost 28 ns at one word
/// and 28-37 ns at two, and the kernel scored a pair in 0.16 / 0.37 ns
/// at avx512 and 0.45 / 1.05 ns at avx2. The scalar row and the 3+ word
/// column, re-measured on the popcnt scalar body and the plain wide-code
/// bodies: a unit cost 15-29 ns at one word, 18-26 ns at two and
/// 21-41 ns at three to eight; a pair cost 2.2-2.8 / 2.1-2.6 /
/// 3.2-6.7 ns at scalar and 2.4-6.2 ns at 3+ words on either SIMD tier
/// (avx512 runs the AVX2 body at 3-7 words). The 60k-row crossovers
/// agree. Both paths stay exact whichever the rule picks.
double MihUnitCostInPairs(KernelTier tier, int words) {
  //                                       1 word  2 words  3+ words
  static constexpr double kPairs[3][3] = {{9.0, 9.0, 7.0},      // scalar
                                          {53.0, 31.0, 9.0},    // avx2
                                          {158.0, 89.0, 9.0}};  // avx512
  return kPairs[static_cast<int>(tier)][std::min(words, 3) - 1];
}

/// Rows per MIH probe task: enough for the pool to balance the triangle
/// (early rows see more candidates j > i than late ones).
constexpr int kMihTaskRows = 2048;

/// The cost rule, decided from the table's own counts. With S = r + 1
/// substrings the pigeonhole sub-radius is 0, so a row opens one bucket
/// per substring and reads the rows sharing its key there:
/// S + MeanSameKeyRows() units. The table is kept when that, in blocked
/// pairs (MihUnitCostInPairs), is below the live / 2 pairs per row the
/// blocked join scores, so crowded buckets (clustered codes) price
/// themselves out. Past S = bits / 8 the substrings would drop below
/// 8 bits and the sub-radius above 0, opening several buckets of about
/// live / 256 rows each per substring: the blocked join wins there, so
/// no table is built.
std::optional<MultiIndexHashTable> MihIfCheaper(const PackedCodes& codes,
                                                const TileMap& tiles,
                                                int radius, KernelTier tier) {
  const int substrings = radius + 1;
  if (substrings > std::max(1, codes.bits() / 8)) return std::nullopt;
  StageTimer timer("stage.mih_build_ns");
  MultiIndexHashTable mih(codes, substrings, tiles.dead);
  const double probe_cost = substrings + mih.MeanSameKeyRows();
  if (MihUnitCostInPairs(tier, codes.words_per_code()) * probe_cost >=
      0.5 * tiles.live()) {
    return std::nullopt;
  }
  return mih;
}

/// RadiusJoin through a multi-index hash over the live rows: row i
/// probes for ids j > i, so each unordered pair is found once, and
/// contiguous row ranges concatenated in order are (a, b)-sorted.
std::vector<JoinPair> MihRadiusJoin(const MultiIndexHashTable& mih,
                                    const PackedCodes& codes,
                                    const TileMap& tiles, int radius,
                                    ThreadPool* pool, JoinTotals* totals) {
  const int tasks = (tiles.n + kMihTaskRows - 1) / kMihTaskRows;
  std::vector<std::vector<JoinPair>> per_task(static_cast<size_t>(tasks));
  {
    StageTimer timer("stage.mih_probe_ns");
    pool->ParallelFor(tasks, [&](int task) {
      const int begin = task * kMihTaskRows;
      const int end = std::min(tiles.n, begin + kMihTaskRows);
      std::vector<int> candidates;
      std::vector<Neighbor> hits;
      obs::KernelCounters mih_counters;
      TaskCounters counters;
      std::vector<JoinPair>& out = per_task[static_cast<size_t>(task)];
      for (int i = begin; i < end; ++i) {
        if (!tiles.IsLive(i)) continue;
        hits.clear();
        mih.Probe(codes.code(i), radius, i + 1, &candidates, &mih_counters,
                  &hits);
        for (const Neighbor& hit : hits) {
          out.push_back({i, hit.id, hit.distance});
        }
        counters.Add(tiles.LiveIn(i + 1, tiles.n),
                     static_cast<int>(hits.size()));
      }
      mih_counters.Flush();
      totals->Absorb(counters);
    });
  }
  StageTimer timer("stage.join_merge_ns");
  return Concatenate(per_task);
}

}  // namespace

int TopKJoinTileRows(int words_per_code, int requested) {
  if (requested > 0) return requested;
  return std::max(256, kTopKTileBytes / (words_per_code * 8));
}

std::vector<std::vector<Neighbor>> TopKJoin(const PackedCodes& codes, int k,
                                            const SelfJoinOptions& options,
                                            SelfJoinStats* stats) {
  Stopwatch watch;
  const TileMap tiles(codes, options, &TopKJoinTileRows);
  const int live = tiles.live();
  SelfJoinStats local;
  local.pairs_total =
      static_cast<int64_t>(live) * (live - 1) / 2;
  std::vector<std::vector<Neighbor>> results(
      static_cast<size_t>(std::max(0, tiles.n)));
  // Self excluded, so a live row has at most live-1 neighbors; clamping
  // (like the batched scan clamps to the live count) lets lists actually
  // fill, arming the emit bounds.
  k = std::min(k, live - 1);
  if (k <= 0 || tiles.n <= 0) {
    if (stats != nullptr) {
      local.seconds = watch.ElapsedSeconds();
      *stats = local;
    }
    return results;
  }

  const BatchEmitFn emit = GetBatchEmitFn(ResolveTier(options));
  TopKState state(tiles, k);
  JoinTotals totals;
  ThreadPool pool(options.threads);
  {
    StageTimer timer("stage.join_scan_ns");
    // Diagonal tiles first, as their own parallel phase: they fill every
    // row's list (a tile holds up to `tile` rows, usually >> k), so by
    // the time the off-diagonal rectangles run, the emit bounds are
    // armed corpus-wide.
    pool.ParallelFor(tiles.num_tiles, [&](int t) {
      TaskCounters counters;
      TopKDiagonalTile(codes, tiles, emit, t, &state, &counters);
      totals.Absorb(counters);
    });
    const std::vector<std::pair<int, int>> pairs =
        TilePairsDiagonalFirst(tiles.num_tiles);
    const int num_off = static_cast<int>(pairs.size()) - tiles.num_tiles;
    pool.ParallelFor(num_off, [&](int task) {
      const auto [ti, tj] =
          pairs[static_cast<size_t>(tiles.num_tiles + task)];
      TaskCounters counters;
      TopKOffDiagonalTile(codes, tiles, emit, ti, tj, &state, &counters);
      totals.Absorb(counters);
    });
  }
  {
    StageTimer timer("stage.join_merge_ns");
    for (int i = 0; i < tiles.n; ++i) {
      if (!tiles.IsLive(i)) continue;
      const uint64_t* list = state.list(i);
      std::vector<Neighbor>& row = results[static_cast<size_t>(i)];
      row.resize(static_cast<size_t>(k));
      for (int r = 0; r < k; ++r) {
        row[static_cast<size_t>(r)] = {static_cast<int>(list[r] & 0xffffffffu),
                                       static_cast<int32_t>(list[r] >> 32)};
      }
    }
  }

  FlushJoinCounters(totals);
  local.tiles = totals.tiles.load(std::memory_order_relaxed);
  local.pairs_pruned = totals.pruned.load(std::memory_order_relaxed);
  local.pairs_scored = totals.scored.load(std::memory_order_relaxed);
  local.seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return results;
}

std::vector<JoinPair> RadiusJoin(const PackedCodes& codes, int radius,
                                 const SelfJoinOptions& options,
                                 SelfJoinStats* stats) {
  Stopwatch watch;
  const TileMap tiles(codes, options, &RadiusJoinTileRows);
  const int live = tiles.live();
  SelfJoinStats local;
  local.pairs_total = static_cast<int64_t>(live) * (live - 1) / 2;
  std::vector<JoinPair> result;
  if (radius < 0 || live < 2) {
    if (stats != nullptr) {
      local.seconds = watch.ElapsedSeconds();
      *stats = local;
    }
    return result;
  }

  JoinTotals totals;
  ThreadPool pool(options.threads);
  const KernelTier tier = ResolveTier(options);
  if (const std::optional<MultiIndexHashTable> mih =
          MihIfCheaper(codes, tiles, radius, tier)) {
    result = MihRadiusJoin(*mih, codes, tiles, radius, &pool, &totals);
  } else {
    result = BlockedRadiusJoin(codes, tiles, radius, GetBatchEmitFn(tier),
                               &pool, &totals);
  }

  FlushJoinCounters(totals);
  local.tiles = totals.tiles.load(std::memory_order_relaxed);
  local.pairs_pruned = totals.pruned.load(std::memory_order_relaxed);
  local.pairs_scored = totals.scored.load(std::memory_order_relaxed);
  local.seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return result;
}

// ------------------------------------------------------------ reducers

DedupGroupsResult ReducePairsToGroups(const std::vector<JoinPair>& pairs,
                                      DedupLink link) {
  DedupGroupsResult result;
  int n = 0;
  for (const JoinPair& pair : pairs) n = std::max({n, pair.a + 1, pair.b + 1});
  // Best within-radius match per row as a packed (distance << 32) | id
  // key, so one unsigned min is the (distance, id) order. Whenever a
  // row's global nearest neighbor is within the radius, this equals it.
  constexpr uint64_t kNoMatch = ~uint64_t{0};
  std::vector<uint64_t> best(static_cast<size_t>(n), kNoMatch);
  auto offer = [&best](int row, int other, int distance) {
    uint64_t& key = best[static_cast<size_t>(row)];
    key = std::min(key, static_cast<uint64_t>(distance) << 32 |
                            static_cast<uint32_t>(other));
  };
  for (const JoinPair& pair : pairs) {
    offer(pair.a, pair.b, pair.distance);
    offer(pair.b, pair.a, pair.distance);
  }
  auto match = [&best](int row) {
    return static_cast<int>(best[static_cast<size_t>(row)] & 0xffffffffu);
  };
  // Ascending rows emit each mutual best match once, from its smaller
  // end, so the pairs come out (a, b)-sorted.
  for (int a = 0; a < n; ++a) {
    if (best[static_cast<size_t>(a)] == kNoMatch) continue;
    const int b = match(a);
    if (b > a && match(b) == a) {
      result.reciprocal_pairs.push_back(
          {a, b, static_cast<int>(best[static_cast<size_t>(a)] >> 32)});
    }
  }

  // Array union-find with path halving. The smaller root wins, so every
  // parent is smaller than its child and each root is its component's
  // smallest member.
  std::vector<int> parent(static_cast<size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const JoinPair& pair :
       link == DedupLink::kRadius ? pairs : result.reciprocal_pairs) {
    const int ra = find(pair.a), rb = find(pair.b);
    parent[std::max(ra, rb)] = std::min(ra, rb);
  }
  // One ascending pass points every row at its root (its parent is
  // already resolved) and counts the components' sizes; a root's count
  // then becomes its group's index, or -1 for a row left alone.
  std::vector<int> slot(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    parent[i] = parent[parent[i]];
    ++slot[parent[i]];
  }
  for (int root = 0; root < n; ++root) {
    if (parent[root] != root) continue;
    const int size = slot[root];
    slot[root] = size < 2 ? -1 : static_cast<int>(result.groups.size());
    if (size < 2) continue;
    result.groups.emplace_back().reserve(static_cast<size_t>(size));
    result.rows_clustered += size;
  }
  for (int i = 0; i < n; ++i) {
    if (slot[parent[i]] >= 0) result.groups[slot[parent[i]]].push_back(i);
  }
  return result;
}

DedupGroupsResult DedupGroups(const PackedCodes& codes,
                              const DedupOptions& dedup,
                              const SelfJoinOptions& options) {
  SelfJoinStats stats;
  const std::vector<JoinPair> pairs =
      RadiusJoin(codes, dedup.radius, options, &stats);
  StageTimer timer("stage.join_reduce_ns");
  DedupGroupsResult result = ReducePairsToGroups(pairs, dedup.link);
  result.join = stats;
  return result;
}

// ---------------------------------------------------------- references

namespace {

/// Offers one candidate to a bounded max-heap under the full
/// (distance, id) order — the reference reducer, independent of
/// TopKJoin's packed-key lists.
void OfferNeighbor(std::vector<Neighbor>* heap, int k, Neighbor candidate) {
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(a, b);
  };
  if (static_cast<int>(heap->size()) < k) {
    heap->push_back(candidate);
    std::push_heap(heap->begin(), heap->end(), cmp);
  } else if (NeighborLess(candidate, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), cmp);
    heap->back() = candidate;
    std::push_heap(heap->begin(), heap->end(), cmp);
  }
}

}  // namespace

std::vector<std::vector<Neighbor>> ReferenceTopKJoin(
    const PackedCodes& codes, int k, const TombstoneSet* tombstones) {
  const int n = codes.size();
  const int words = codes.words_per_code();
  const TombstoneSet* dead =
      tombstones != nullptr && tombstones->any() ? tombstones : nullptr;
  auto live = [dead](int i) { return dead == nullptr || !dead->Test(i); };
  int live_count = 0;
  for (int i = 0; i < n; ++i) live_count += live(i) ? 1 : 0;
  std::vector<std::vector<Neighbor>> results(static_cast<size_t>(n));
  k = std::min(k, live_count - 1);
  if (k <= 0) return results;
  for (int i = 0; i < n; ++i) {
    if (!live(i)) continue;
    for (int j = i + 1; j < n; ++j) {
      if (!live(j)) continue;
      const int d = HammingDistance(codes.code(i), codes.code(j), words);
      OfferNeighbor(&results[static_cast<size_t>(i)], k, {j, d});
      OfferNeighbor(&results[static_cast<size_t>(j)], k, {i, d});
    }
  }
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(a, b);
  };
  for (auto& heap : results) std::sort_heap(heap.begin(), heap.end(), cmp);
  return results;
}

std::vector<JoinPair> ReferenceRadiusJoin(const PackedCodes& codes, int radius,
                                          const TombstoneSet* tombstones) {
  const int n = codes.size();
  const int words = codes.words_per_code();
  const TombstoneSet* dead =
      tombstones != nullptr && tombstones->any() ? tombstones : nullptr;
  auto live = [dead](int i) { return dead == nullptr || !dead->Test(i); };
  std::vector<JoinPair> result;
  if (radius < 0) return result;
  for (int i = 0; i < n; ++i) {
    if (!live(i)) continue;
    for (int j = i + 1; j < n; ++j) {
      if (!live(j)) continue;
      const int d = HammingDistance(codes.code(i), codes.code(j), words);
      if (d <= radius) result.push_back({i, j, d});
    }
  }
  return result;
}

}  // namespace uhscm::index
