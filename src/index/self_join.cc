#include "index/self_join.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "index/batch_scan.h"
#include "obs/kernel_counters.h"
#include "obs/metrics.h"

namespace uhscm::index {
namespace {

/// Flush bound for the buffered heap updates of an off-diagonal tile
/// task: candidates are staged lock-free and applied under the owning
/// tile's mutex in batches of at most this many, so a cold join (heaps
/// not yet full, every pair emitted) cannot stage O(tile^2) entries.
constexpr size_t kFlushCandidates = 8192;

/// Safe saturating "threshold + 1": a pair at exactly the heap-front
/// distance can still displace the front on the id tie-break (tile
/// mirroring delivers candidates out of id order, unlike the
/// ascending-id serving scan), so the join may only leave out pairs
/// whose distance is *strictly* greater than every involved front. An
/// emit bound of front+1 buys exactly that.
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

  TileMap(const PackedCodes& codes, const SelfJoinOptions& options) {
    n = codes.size();
    tile = codes.words_per_code() > 0
               ? PickCodeBlockSize(codes.words_per_code(), options.tile)
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

/// Records one stage duration into the registry's stage.* histograms
/// (the same namespace the serving tracer fills), so the bench's
/// stage_breakdown JSON works for joins too. No-op when the obs layer is
/// runtime-disabled.
class StageTimer {
 public:
  explicit StageTimer(const char* name) : name_(name) {}
  ~StageTimer() {
    if (!obs::RuntimeEnabled()) return;
    const int64_t ns =
        static_cast<int64_t>(watch_.ElapsedSeconds() * 1e9);
    obs::MetricsRegistry::Global().GetHistogram(name_)->Record(ns);
  }

 private:
  const char* name_;
  Stopwatch watch_;
};

void FlushJoinCounters(const JoinTotals& totals) {
  obs::KernelCounters counters;
  counters.join_tiles = totals.tiles.load(std::memory_order_relaxed);
  counters.join_pairs_pruned = totals.pruned.load(std::memory_order_relaxed);
  counters.join_pairs_scored = totals.scored.load(std::memory_order_relaxed);
  counters.Flush();
}

/// All (I, J) tile pairs with I <= J, diagonals first: the diagonal task
/// is what fills a tile's heaps (arming every later bound), so it must
/// not queue behind off-diagonal work that cannot prune yet.
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

BatchEmitFn ResolveEmitFn(const SelfJoinOptions& options) {
  return options.force_tier ? GetBatchEmitFn(options.tier) : GetBatchEmitFn();
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

/// Offers one candidate to a bounded max-heap under the full
/// (distance, id) order. Unlike the serving scan's strict-distance rule
/// (safe there because ids only ascend), the join's mirrored candidates
/// arrive out of id order, so an equal-distance smaller id must displace
/// the front. Keeping the exact k-smallest set makes the final sorted
/// list independent of arrival order — the byte-identity argument.
/// Updates *bound to front + 1 once the heap holds k entries.
void OfferNeighbor(std::vector<Neighbor>* heap, int k, Neighbor candidate,
                   int32_t* bound) {
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
  } else {
    return;
  }
  if (static_cast<int>(heap->size()) == k) {
    *bound = PlusOne(heap->front().distance);
  }
}

/// Shared mutable state of one TopKJoin call. Heap i and bounds[i] are
/// owned by row i's tile: mutated only under tile_mu[i / tile]. Reads
/// from other tasks go through the same lock and are used only as
/// conservative (stale = larger) emit bounds.
struct TopKState {
  int k = 0;
  std::vector<std::vector<Neighbor>> heaps;
  /// Emit bound per row: front + 1 once heap i holds k entries,
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
        heaps(static_cast<size_t>(tiles.n)),
        bounds(static_cast<size_t>(tiles.n), INT32_MAX),
        tile_mu(static_cast<size_t>(std::max(1, tiles.num_tiles))) {
    for (int i = 0; i < tiles.n; ++i) {
      if (tiles.IsLive(i)) {
        heaps[static_cast<size_t>(i)].reserve(static_cast<size_t>(k));
      } else {
        bounds[static_cast<size_t>(i)] = 0;
      }
    }
  }
};

/// One staged heap update: candidate `nb` for row `row`.
struct StagedOffer {
  int row;
  Neighbor nb;
};

void ApplyOffers(TopKState* state, int tile_index,
                 std::vector<StagedOffer>* offers) {
  if (offers->empty()) return;
  std::lock_guard<std::mutex> lock(
      state->tile_mu[static_cast<size_t>(tile_index)]);
  for (const StagedOffer& offer : *offers) {
    OfferNeighbor(&state->heaps[static_cast<size_t>(offer.row)], state->k,
                  offer.nb, &state->bounds[static_cast<size_t>(offer.row)]);
  }
  offers->clear();
}

/// Diagonal tile task: rows [t0, t1) against each other, each unordered
/// pair once (row i scans the contiguous run [i+1, t1)). The task owns
/// every heap it touches, so the kernel reads the live bounds directly:
/// a pair is emitted unless its distance reaches both rows' bounds, and
/// bounds only shrink, so a pair left out could never enter either heap.
/// The emitted few are offered to both heaps, which decide exactly.
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
    const int emitted =
        emit(codes.code(i), codes.code(i + 1), t1 - i - 1, words, bounds[i],
             bounds + i + 1, hits.index.data(), hits.distance.data());
    int live_emitted = 0;
    for (int e = 0; e < emitted; ++e) {
      const int j = i + 1 + hits.index[static_cast<size_t>(e)];
      if (!tiles.IsLive(j)) continue;
      ++live_emitted;
      const int32_t d = hits.distance[static_cast<size_t>(e)];
      OfferNeighbor(&state->heaps[static_cast<size_t>(i)], state->k, {j, d},
                    &bounds[i]);
      OfferNeighbor(&state->heaps[static_cast<size_t>(j)], state->k, {i, d},
                    &bounds[j]);
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
    const int emitted =
        emit(codes.code(i), codes.code(j0), count, words, bound_i,
             bounds_j.data(), hits.index.data(), hits.distance.data());
    int live_emitted = 0;
    for (int e = 0; e < emitted; ++e) {
      const int c = hits.index[static_cast<size_t>(e)];
      const int j = j0 + c;
      if (!tiles.IsLive(j)) continue;
      ++live_emitted;
      const int32_t d = hits.distance[static_cast<size_t>(e)];
      // Stage each side only where its snapshot bound admits the pair.
      // A bound is front + 1, so a pair tying the front is staged and the
      // live heap decides the id tie-break under the lock.
      if (d < bound_i) query_side.push_back({i, {j, d}});
      if (d < bounds_j[static_cast<size_t>(c)]) {
        mirror_side.push_back({j, {i, d}});
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
    const int emitted =
        emit(codes.code(i), codes.code(start), j1 - start, words, bound,
             nullptr, hits.index.data(), hits.distance.data());
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

}  // namespace

std::vector<std::vector<Neighbor>> TopKJoin(const PackedCodes& codes, int k,
                                            const SelfJoinOptions& options,
                                            SelfJoinStats* stats) {
  Stopwatch watch;
  const TileMap tiles(codes, options);
  const int live = tiles.live();
  SelfJoinStats local;
  local.pairs_total =
      static_cast<int64_t>(live) * (live - 1) / 2;
  std::vector<std::vector<Neighbor>> results(
      static_cast<size_t>(std::max(0, tiles.n)));
  // Self excluded, so a live row has at most live-1 neighbors; clamping
  // (like the batched scan clamps to the live count) lets heaps actually
  // fill, arming the emit bounds.
  k = std::min(k, live - 1);
  if (k <= 0 || tiles.n <= 0) {
    if (stats != nullptr) {
      local.seconds = watch.ElapsedSeconds();
      *stats = local;
    }
    return results;
  }

  const BatchEmitFn emit = ResolveEmitFn(options);
  TopKState state(tiles, k);
  JoinTotals totals;
  ThreadPool pool(options.threads);
  {
    StageTimer timer("stage.join_scan_ns");
    // Diagonal tiles first, as their own parallel phase: they fill every
    // row's heap (a tile holds up to `tile` rows, usually >> k), so by
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
    auto cmp = [](const Neighbor& a, const Neighbor& b) {
      return NeighborLess(a, b);
    };
    for (auto& heap : state.heaps) std::sort_heap(heap.begin(), heap.end(), cmp);
    results = std::move(state.heaps);
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
  const TileMap tiles(codes, options);
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

  const BatchEmitFn emit = ResolveEmitFn(options);
  const std::vector<std::pair<int, int>> pairs =
      TilePairsDiagonalFirst(tiles.num_tiles);
  std::vector<std::vector<JoinPair>> per_task(pairs.size());
  JoinTotals totals;
  ThreadPool pool(options.threads);
  {
    StageTimer timer("stage.join_scan_ns");
    pool.ParallelFor(static_cast<int>(pairs.size()), [&](int task) {
      const auto [ti, tj] = pairs[static_cast<size_t>(task)];
      TaskCounters counters;
      RadiusTileTask(codes, tiles, emit, radius, ti, tj,
                     &per_task[static_cast<size_t>(task)], &counters);
      totals.Absorb(counters);
    });
  }
  {
    StageTimer timer("stage.join_merge_ns");
    size_t total = 0;
    for (const auto& chunk : per_task) total += chunk.size();
    result.reserve(total);
    for (auto& chunk : per_task) {
      result.insert(result.end(), chunk.begin(), chunk.end());
    }
    // Tasks emit (a, b)-sorted chunks; one global sort makes the output
    // canonical regardless of tile size or scheduling.
    std::sort(result.begin(), result.end(), JoinPairLess);
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

namespace {

/// Deterministic union-find over sparse row ids (path halving + union by
/// smaller root, so every component's root is its smallest member).
class UnionFind {
 public:
  int Find(int x) {
    auto [it, inserted] = parent_.try_emplace(x, x);
    int root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      const int next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    (void)it;
    (void)inserted;
    return root;
  }

  void Union(int a, int b) {
    const int ra = Find(a), rb = Find(b);
    if (ra == rb) return;
    // Smaller id wins the root, so the representative of a finished
    // component is always its smallest member.
    if (ra < rb) {
      parent_[rb] = ra;
    } else {
      parent_[ra] = rb;
    }
  }

  const std::map<int, int>& nodes() const { return parent_; }

 private:
  std::map<int, int> parent_;
};

}  // namespace

DedupGroupsResult ReducePairsToGroups(const std::vector<JoinPair>& pairs,
                                      DedupLink link) {
  DedupGroupsResult result;
  // Best within-radius match per participating row, under the canonical
  // (distance, id) order. Whenever a row's global nearest neighbor is
  // within the radius, this equals it (the global best is the minimum).
  std::map<int, Neighbor> best;
  auto offer = [&best](int row, Neighbor nb) {
    auto [it, inserted] = best.try_emplace(row, nb);
    if (!inserted && NeighborLess(nb, it->second)) it->second = nb;
  };
  for (const JoinPair& pair : pairs) {
    offer(pair.a, {pair.b, pair.distance});
    offer(pair.b, {pair.a, pair.distance});
  }
  for (const JoinPair& pair : pairs) {
    const auto a = best.find(pair.a);
    const auto b = best.find(pair.b);
    if (a->second.id == pair.b && b->second.id == pair.a) {
      result.reciprocal_pairs.push_back(pair);  // pairs is (a, b)-sorted
    }
  }

  UnionFind uf;
  if (link == DedupLink::kRadius) {
    for (const JoinPair& pair : pairs) uf.Union(pair.a, pair.b);
  } else {
    for (const JoinPair& pair : result.reciprocal_pairs) {
      uf.Union(pair.a, pair.b);
    }
  }
  std::map<int, std::vector<int>> components;
  for (const auto& [row, unused] : uf.nodes()) {
    (void)unused;
    components[uf.Find(row)].push_back(row);
  }
  for (auto& [root, members] : components) {
    (void)root;
    if (members.size() < 2) continue;  // isolated Find() artifacts
    std::sort(members.begin(), members.end());
    result.rows_clustered += static_cast<int64_t>(members.size());
    result.groups.push_back(std::move(members));
  }
  // std::map iteration gives groups sorted by root == smallest member.
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
  std::vector<int32_t> bounds(static_cast<size_t>(n), INT32_MAX);
  for (int i = 0; i < n; ++i) {
    if (!live(i)) continue;
    for (int j = i + 1; j < n; ++j) {
      if (!live(j)) continue;
      const int d = HammingDistance(codes.code(i), codes.code(j), words);
      OfferNeighbor(&results[static_cast<size_t>(i)], k, {j, d},
                    &bounds[static_cast<size_t>(i)]);
      OfferNeighbor(&results[static_cast<size_t>(j)], k, {i, d},
                    &bounds[static_cast<size_t>(j)]);
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
