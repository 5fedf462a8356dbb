// `dedup`: the codes -> dedup path of `uhscm_cli dedup --k=10 --radius=8`
// over a planted near-duplicate corpus of 128-bit codes — the only
// workload where index/self_join does the work — then near-duplicate
// lookups of the same corpus through the serving stack (two-word codes,
// which no serve-* workload covers).
#include <algorithm>
#include <map>

#include "corpus.h"
#include "index/self_join.h"
#include "io/serialize.h"
#include "serving.h"
#include "workloads.h"

namespace uhscm::ledger {

namespace {

constexpr int kBits = 128;
constexpr int kK = 10;
constexpr int kRadius = 8;
/// Sized so that a join rep (one per round) takes about 1.4 s.
constexpr int kRows = 60000;
constexpr int kCheckedRows = 256;

/// What one dedup job produced and the CPU time of its parts.
struct Dedup {
  std::vector<std::vector<index::Neighbor>> topk;
  index::SelfJoinStats topk_stats;
  index::DedupGroupsResult groups;
  double topk_s = 0.0;
  double groups_s = 0.0;
};

Dedup RunDedup(const index::PackedCodes& codes, const index::TombstoneSet& dead) {
  index::SelfJoinOptions options;
  options.tombstones = dead.any() ? &dead : nullptr;
  index::DedupOptions dedup;
  dedup.radius = kRadius;
  dedup.link = index::DedupLink::kRadius;
  Dedup d;
  d.topk_s =
      TimeCall([&] { d.topk = index::TopKJoin(codes, kK, options, &d.topk_stats); })
          .cpu_s;
  d.groups_s =
      TimeCall([&] { d.groups = index::DedupGroups(codes, dedup, options); }).cpu_s;
  return d;
}

/// Checks `kCheckedRows` seeded live rows against a per-row linear scan
/// that excludes the row itself: the row's top-k list must match exactly,
/// and every row within the radius must share its dedup group (the row is
/// grouped exactly when it has such a neighbour).
int64_t CheckDedup(const index::PackedCodes& codes, const index::TombstoneSet& dead,
                   const Dedup& d, uint64_t seed) {
  std::vector<int> group_of(static_cast<size_t>(codes.size()), -1);
  for (size_t g = 0; g < d.groups.groups.size(); ++g) {
    for (const int row : d.groups.groups[g]) group_of[static_cast<size_t>(row)] = static_cast<int>(g);
  }
  Rng rng(seed);
  int64_t mismatched = 0;
  for (int checked = 0; checked < kCheckedRows;) {
    const int r = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(codes.size())));
    if (dead.Test(r)) continue;
    ++checked;
    std::vector<index::Neighbor> all;
    bool grouped_right = true;
    bool has_near = false;
    for (int j = 0; j < codes.size(); ++j) {
      if (j == r || dead.Test(j)) continue;
      const int distance = codes.Distance(r, j);
      all.push_back({j, distance});
      if (distance <= kRadius) {
        has_near = true;
        grouped_right &= group_of[static_cast<size_t>(j)] ==
                             group_of[static_cast<size_t>(r)] &&
                         group_of[static_cast<size_t>(r)] >= 0;
      }
    }
    grouped_right &= has_near == (group_of[static_cast<size_t>(r)] >= 0);
    const size_t k = std::min(static_cast<size_t>(kK), all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                      index::NeighborLess);
    const std::vector<index::Neighbor>& got = d.topk[static_cast<size_t>(r)];
    bool topk_right = got.size() == k;
    for (size_t i = 0; topk_right && i < k; ++i) {
      topk_right = got[i].id == all[i].id && got[i].distance == all[i].distance;
    }
    if (!topk_right || !grouped_right) ++mismatched;
  }
  return mismatched;
}

}  // namespace

void RunDedupWorkload(const RunConfig& config, Report* report) {
  const PlantedCorpus corpus =
      MakePlantedCorpus(kRows, kBits, kRadius, StreamSeed(config.seed, "corpus"));
  io::CodesSnapshot snapshot;
  snapshot.codes = corpus.codes;
  snapshot.tombstone_words = corpus.dead.words();
  const std::string path = SnapshotPath(config);
  const Status saved = io::SaveCodesSnapshot(snapshot, path);
  if (!saved.ok()) Fatal("SaveCodesSnapshot: " + saved.ToString());

  Result<io::CodesSnapshot> result = io::LoadCodesSnapshot(path);
  if (!result.ok()) Fatal("LoadCodesSnapshot: " + result.status().ToString());
  const io::CodesSnapshot loaded = std::move(*result);
  const index::TombstoneSet dead =
      index::TombstoneSet::FromWords(loaded.codes.size(), loaded.tombstone_words);

  Dedup last;
  ServingSpec spec;
  // Set-up is `uhscm_cli dedup` before its first join: load the snapshot
  // and rebuild the tombstone set.
  spec.setup = [&] {
    Result<io::CodesSnapshot> codes = io::CodesSnapshot{};
    index::TombstoneSet tombstones;
    const Timing load = TimeCall([&] {
      codes = io::LoadCodesSnapshot(path);
      if (!codes.ok()) Fatal("LoadCodesSnapshot: " + codes.status().ToString());
      tombstones =
          index::TombstoneSet::FromWords(codes->codes.size(), codes->tombstone_words);
    });
    return std::map<std::string, Timing>{{"io.load_s", load}};
  };
  // The join's stage timers and counters run in every build of the
  // library, so a traced job runs the same code as an untraced one; it
  // differs only in being attributed per layer afterwards.
  spec.job = [&](bool traced) {
    last = Dedup{};
    const Timing rep = TimeCall([&] { last = RunDedup(loaded.codes, dead); });
    report->Attempt(1);
    if (!traced) return rep;
    const index::SelfJoinStats& topk = last.topk_stats;
    const index::SelfJoinStats& radius = last.groups.join;
    // DedupGroups runs this radius join, then reduces its pairs.
    index::SelfJoinOptions options;
    options.tombstones = dead.any() ? &dead : nullptr;
    const double radius_s = TimeCall([&] {
                              index::RadiusJoin(loaded.codes, kRadius, options);
                            }).cpu_s;
    const double reduce_s = last.groups_s - radius_s;
    report->Layer("join.topk_s", last.topk_s);
    report->Layer("join.radius_s", radius_s);
    report->Layer("join.reduce_s", reduce_s);
    report->Layer("join.topk_pruned_frac",
                  static_cast<double>(topk.pairs_pruned) / topk.pairs_total);
    report->Layer("join.radius_pruned_frac",
                  static_cast<double>(radius.pairs_pruned) / radius.pairs_total);
    report->Layer("join.topk_mpairs_s",
                  static_cast<double>(topk.pairs_total) / last.topk_s / 1e6);
    // The share of this rep's CPU time that no stage accounts for.
    report->Layer("residual_frac", 1.0 - (last.topk_s + last.groups_s) / rep.cpu_s);
    return rep;
  };
  // Near-duplicate lookups: corpus rows with up to radius/2 bits flipped,
  // each asking for its k nearest stored codes.
  ServingStack stack(snapshot, 0.0);
  const Oracle oracle(snapshot.codes, snapshot.tombstone_words);
  spec.bulk_queries = 4096;
  spec.window_seconds = 0.1;
  spec.fixed_rate = 1500.0;
  const double map = RunServing(
      config, spec, &stack,
      PerturbedStream(corpus.codes, kRadius / 2, StreamSeed(config.seed, "queries")),
      &oracle, report);
  if (!config.trace) {
    report->E2e("map", map);
    report->Diag("dedup.groups", static_cast<double>(last.groups.groups.size()));
  }
  report->Attempt(kCheckedRows);
  report->Fail(CheckDedup(loaded.codes, dead, last, StreamSeed(config.seed, "check")),
               "dedup row differs from the per-row linear scan");
}

}  // namespace uhscm::ledger
