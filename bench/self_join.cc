// self_join — tiled corpus x corpus join vs the naive per-pair loop.
//
// Builds a corpus with planted near-duplicate clusters (plus random
// background rows and a few tombstones — the dedup workload shape) and
// measures all-pairs work as unordered live pairs per second:
//
//   naive/topk        : ReferenceTopKJoin — the branchy O(n^2) per-pair
//                       HammingDistance loop (the mostsimilar shape) with
//                       bounded-heap reduction; also the identity oracle
//   naive/radius      : ReferenceRadiusJoin — same loop, threshold filter
//   join/topk/<tier>  : tiled TopKJoin forced to <tier> (emitting kernel)
//   join/radius/<tier>: tiled RadiusJoin forced to <tier> — a sparse
//                       radius emits almost no pair from the kernel
//   tile/topk/<rows>  : tile-size sweep at the dispatched tier
//
// Every engine result is checked byte-identical to its naive reference —
// ids, distances, tie order, tombstoned rows — before any number is
// reported; a mismatch is a hard failure. Results land on stdout and in
// BENCH_self_join.json. One gate, armed only where it can hold (SIMD
// present, n >= 50000, bits >= 128):
//
//   headline : tiled TopKJoin >= 5x the naive per-pair loop (pairs/sec)
//
// The naive rows are timed once instead of best-of-N: at n >= 50k they
// run for seconds, long enough that scheduler noise amortizes; best-of
// repeats matter for the ms-scale engine rows.
//
//   $ ./build/self_join [--n=50000] [--bits=128] [--k=10] [--radius=8]
//                       [--threads=0] [--reps=2] [--json=BENCH_self_join.json]
//   $ ./build/self_join --list-tiers   # one available tier per line
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "index/batch_scan.h"
#include "index/packed_codes.h"
#include "index/self_join.h"
#include "index/shard_index.h"
#include "perf_util.h"

namespace uhscm::bench {
namespace {

struct Flags {
  int n = 50000;
  int bits = 128;
  int k = 10;
  int radius = 8;
  int threads = 0;
  int reps = 2;
  uint64_t seed = 2023;
  std::string json = "BENCH_self_join.json";
  bool list_tiers = false;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--n=")) {
      flags.n = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--bits=")) {
      flags.bits = std::atoi(arg.c_str() + 7);
    } else if (StartsWith(arg, "--k=")) {
      flags.k = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--radius=")) {
      flags.radius = std::atoi(arg.c_str() + 9);
    } else if (StartsWith(arg, "--threads=")) {
      flags.threads = std::atoi(arg.c_str() + 10);
    } else if (StartsWith(arg, "--reps=")) {
      flags.reps = std::max(1, std::atoi(arg.c_str() + 7));
    } else if (StartsWith(arg, "--seed=")) {
      flags.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (StartsWith(arg, "--json=")) {
      flags.json = arg.substr(7);
    } else if (arg == "--list-tiers") {
      flags.list_tiers = true;
    } else {
      std::fprintf(stderr,
                   "usage: self_join [--n=N] [--bits=K] [--k=K] [--radius=R] "
                   "[--threads=T] [--reps=N] [--seed=N] [--json=PATH] "
                   "[--list-tiers]\n");
      std::exit(2);
    }
  }
  return flags;
}

struct Row {
  std::string name;
  std::string tier;
  double seconds = 0.0;
  double pairs_per_s = 0.0;
  double pruned_frac = 0.0;
  double speedup = 1.0;  // vs the matching naive row
};

std::vector<index::KernelTier> AvailableTiers() {
  std::vector<index::KernelTier> tiers;
  for (const index::KernelTier tier :
       {index::KernelTier::kScalar, index::KernelTier::kAvx2,
        index::KernelTier::kAvx512}) {
    if (index::KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// The dedup workload corpus: `n` rows of which ~4% form planted
/// near-duplicate clusters (5 copies each, every copy within
/// `radius / 2` flips of its base so intra-cluster pairs stay within
/// `radius`), the rest random background, ~1% tombstoned. Random
/// background pairs sit around bits/2 — far above any small radius — so
/// the radius join's output is essentially the planted clusters.
index::PackedCodes MakeCorpus(const Flags& flags, Rng* rng,
                              index::TombstoneSet* dead) {
  const int copies = 5;
  const int clusters = std::max(1, flags.n / (25 * copies));
  const int planted = clusters * copies;
  const int background = std::max(0, flags.n - planted);
  const int max_flips = std::max(1, flags.radius / 2);

  index::PackedCodes bases = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(clusters, flags.bits, rng));
  index::PackedCodes corpus;
  for (int c = 0; c < clusters; ++c) {
    for (int dup = 0; dup < copies; ++dup) {
      std::vector<uint64_t> words(bases.code(c),
                                  bases.code(c) + bases.words_per_code());
      const int nflips =
          dup == 0 ? 0
                   : 1 + static_cast<int>(rng->UniformInt(
                             static_cast<uint64_t>(max_flips)));
      for (int f = 0; f < nflips; ++f) {
        const int bit = static_cast<int>(
            rng->UniformInt(static_cast<uint64_t>(flags.bits)));
        words[static_cast<size_t>(bit / 64)] ^= 1ULL << (bit % 64);
      }
      corpus.Append(
          index::PackedCodes::FromRawWords(1, flags.bits, std::move(words)));
    }
  }
  if (background > 0) {
    corpus.Append(index::PackedCodes::FromSignMatrix(
        RandomSignCodes(background, flags.bits, rng)));
  }
  dead->Resize(corpus.size());
  for (int i = 0; i < corpus.size(); i += 100) dead->Set(i);
  return corpus;
}

bool SameTopK(const std::vector<std::vector<index::Neighbor>>& a,
              const std::vector<std::vector<index::Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t r = 0; r < a[i].size(); ++r) {
      if (a[i][r].id != b[i][r].id || a[i][r].distance != b[i][r].distance) {
        return false;
      }
    }
  }
  return true;
}

bool SamePairs(const std::vector<index::JoinPair>& a,
               const std::vector<index::JoinPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const std::vector<index::KernelTier> tiers = AvailableTiers();
  if (flags.list_tiers) {
    for (const index::KernelTier tier : tiers) {
      std::printf("%s\n", index::KernelTierName(tier));
    }
    return 0;
  }

  Rng rng(flags.seed);
  index::TombstoneSet dead;
  const index::PackedCodes corpus = MakeCorpus(flags, &rng, &dead);
  const int live = corpus.size() - dead.dead_count();
  const double pair_count =
      static_cast<double>(live) * (live - 1) / 2.0;
  const index::KernelTier active_tier = index::ActiveKernelTier();
  const char* simd_name = index::KernelTierName(active_tier);

  std::printf(
      "corpus n=%d bits=%d (%d words/code) | %d tombstoned, %.0f live "
      "pairs | k=%d radius=%d threads=%d\n",
      corpus.size(), flags.bits, corpus.words_per_code(), dead.dead_count(),
      pair_count, flags.k, flags.radius, flags.threads);
  std::printf("dispatched kernel tier: %s | tiers available:", simd_name);
  for (const index::KernelTier tier : tiers) {
    std::printf(" %s", index::KernelTierName(tier));
  }
  std::printf("\n\n");

  std::vector<Row> rows;
  double naive_topk_secs = 0.0;
  double naive_radius_secs = 0.0;
  auto add_row = [&](const std::string& name, const std::string& tier,
                     double seconds, double naive_secs,
                     const index::SelfJoinStats* stats) {
    Row row;
    row.name = name;
    row.tier = tier;
    row.seconds = seconds;
    row.pairs_per_s = pair_count / seconds;
    row.pruned_frac =
        stats != nullptr && stats->pairs_total > 0
            ? static_cast<double>(stats->pairs_pruned) / stats->pairs_total
            : 0.0;
    row.speedup = naive_secs > 0.0 ? naive_secs / seconds : 1.0;
    rows.push_back(row);
  };

  // Naive per-pair baselines — the mostsimilar loop the engine replaces.
  // Timed once (they run for seconds at gate scale) and kept as the
  // byte-identity oracle for every engine row below.
  std::vector<std::vector<index::Neighbor>> want_topk;
  {
    Stopwatch watch;
    want_topk = index::ReferenceTopKJoin(corpus, flags.k, &dead);
    naive_topk_secs = watch.ElapsedSeconds();
    add_row("naive/topk", "scalar", naive_topk_secs, naive_topk_secs,
            nullptr);
  }
  std::vector<index::JoinPair> want_radius;
  {
    Stopwatch watch;
    want_radius = index::ReferenceRadiusJoin(corpus, flags.radius, &dead);
    naive_radius_secs = watch.ElapsedSeconds();
    add_row("naive/radius", "scalar", naive_radius_secs, naive_radius_secs,
            nullptr);
  }

  // Tiled TopKJoin per tier. The scalar row
  // isolates the tiling/batching win; higher tiers add the SIMD win.
  double engine_topk_secs = 0.0;
  for (const index::KernelTier tier : tiers) {
    index::SelfJoinOptions options;
    options.force_tier = true;
    options.tier = tier;
    options.threads = flags.threads;
    options.tombstones = &dead;
    index::SelfJoinStats stats;
    std::vector<std::vector<index::Neighbor>> got;
    const double secs = TimeBest(flags.reps, [&] {
      got = index::TopKJoin(corpus, flags.k, options, &stats);
    });
    if (!SameTopK(got, want_topk)) {
      std::fprintf(stderr, "FATAL: TopKJoin/%s differs from naive reference\n",
                   index::KernelTierName(tier));
      return 1;
    }
    add_row(std::string("join/topk/") + index::KernelTierName(tier),
            index::KernelTierName(tier), secs, naive_topk_secs, &stats);
    if (tier == active_tier) engine_topk_secs = secs;
  }

  // Tiled RadiusJoin per tier: at a sparse radius the kernel emits
  // almost nothing.
  double engine_radius_secs = 0.0;
  for (const index::KernelTier tier : tiers) {
    index::SelfJoinOptions options;
    options.force_tier = true;
    options.tier = tier;
    options.threads = flags.threads;
    options.tombstones = &dead;
    index::SelfJoinStats stats;
    std::vector<index::JoinPair> got;
    const double secs = TimeBest(flags.reps, [&] {
      got = index::RadiusJoin(corpus, flags.radius, options, &stats);
    });
    if (!SamePairs(got, want_radius)) {
      std::fprintf(stderr,
                   "FATAL: RadiusJoin/%s differs from naive reference\n",
                   index::KernelTierName(tier));
      return 1;
    }
    add_row(std::string("join/radius/") + index::KernelTierName(tier),
            index::KernelTierName(tier), secs, naive_radius_secs, &stats);
    if (tier == active_tier) engine_radius_secs = secs;
  }

  // Tile-size sweep at the dispatched tier: too small pays per-tile
  // overhead, too large spills the inner block out of cache.
  const int auto_tile =
      index::PickCodeBlockSize(corpus.words_per_code(), 0);
  for (const int tile : {auto_tile / 2, auto_tile, auto_tile * 2,
                         auto_tile * 4}) {
    index::SelfJoinOptions options;
    options.tile = tile;
    options.threads = flags.threads;
    options.tombstones = &dead;
    index::SelfJoinStats stats;
    std::vector<std::vector<index::Neighbor>> got;
    const double secs = TimeBest(flags.reps, [&] {
      got = index::TopKJoin(corpus, flags.k, options, &stats);
    });
    if (!SameTopK(got, want_topk)) {
      std::fprintf(stderr,
                   "FATAL: TopKJoin tile=%d differs from naive reference\n",
                   tile);
      return 1;
    }
    add_row("tile/topk/" + std::to_string(tile) +
                (tile == auto_tile ? "(auto)" : ""),
            simd_name, secs, naive_topk_secs, &stats);
  }

  // Dedup reduction on top of the radius join — group counts are sanity,
  // identity follows from the radius join check plus the shared reducer.
  index::DedupOptions dedup;
  dedup.radius = flags.radius;
  index::SelfJoinOptions dedup_options;
  dedup_options.threads = flags.threads;
  dedup_options.tombstones = &dead;
  const index::DedupGroupsResult groups =
      index::DedupGroups(corpus, dedup, dedup_options);
  const index::DedupGroupsResult want_groups =
      index::ReducePairsToGroups(want_radius, dedup.link);
  if (groups.groups != want_groups.groups) {
    std::fprintf(stderr, "FATAL: DedupGroups differs from naive reduction\n");
    return 1;
  }

  TableWriter table({"config", "secs", "Mpairs/s", "pruned%", "speedup"});
  for (const Row& row : rows) {
    table.AddRow({row.name, Fmt(row.seconds, "%.4f"),
                  Fmt(row.pairs_per_s / 1e6, "%.1f"),
                  Fmt(row.pruned_frac * 100.0, "%.1f"),
                  Fmt(row.speedup, "%.2f")});
  }
  table.Print(std::cout);

  const double headline =
      engine_topk_secs > 0.0 ? naive_topk_secs / engine_topk_secs : 0.0;
  const double radius_speedup =
      engine_radius_secs > 0.0 ? naive_radius_secs / engine_radius_secs : 0.0;
  std::printf(
      "\nall join results byte-identical to the naive per-pair reference\n");
  std::printf("headline: tiled %s TopKJoin = %.2fx naive per-pair loop\n",
              simd_name, headline);
  std::printf("radius:   tiled %s RadiusJoin = %.2fx naive per-pair loop\n",
              simd_name, radius_speedup);
  std::printf("dedup:    %zu groups, %lld rows clustered\n",
              groups.groups.size(),
              static_cast<long long>(groups.rows_clustered));

  if (!flags.json.empty()) {
    std::FILE* f = std::fopen(flags.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr,
                   "WARNING: cannot write %s — perf trajectory not recorded\n",
                   flags.json.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"self_join\",\n");
      WriteJsonRunMeta(f);
      WriteJsonStageBreakdown(f);
      std::fprintf(f,
                   "  \"n\": %d, \"bits\": %d, \"k\": %d, \"radius\": %d, "
                   "\"threads\": %d, \"live_pairs\": %.0f,\n",
                   corpus.size(), flags.bits, flags.k, flags.radius,
                   flags.threads, pair_count);
      std::fprintf(f, "  \"kernel_tier\": \"%s\",\n", simd_name);
      std::fprintf(f, "  \"tiers_available\": [");
      for (size_t i = 0; i < tiers.size(); ++i) {
        std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                     index::KernelTierName(tiers[i]));
      }
      std::fprintf(f, "],\n  \"rows\": [\n");
      for (size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(f,
                     "    {\"config\": \"%s\", \"tier\": \"%s\", "
                     "\"seconds\": %.6f, \"pairs_per_s\": %.1f, "
                     "\"pruned_frac\": %.4f, \"speedup_vs_naive\": %.3f}%s\n",
                     rows[i].name.c_str(), rows[i].tier.c_str(),
                     rows[i].seconds, rows[i].pairs_per_s,
                     rows[i].pruned_frac, rows[i].speedup,
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f,
                   "  ],\n  \"dedup_groups\": %zu,\n"
                   "  \"rows_clustered\": %lld,\n"
                   "  \"headline_speedup\": %.3f,\n"
                   "  \"radius_speedup\": %.3f\n}\n",
                   groups.groups.size(),
                   static_cast<long long>(groups.rows_clustered), headline,
                   radius_speedup);
      std::fclose(f);
      std::printf("wrote %s\n", flags.json.c_str());
    }
  }

  // The >=5x bar only applies where it can hold: SIMD present and a
  // corpus big enough that the O(n^2) naive loop actually hurts.
  const bool gate_armed = index::Avx2Available() &&
                          active_tier != index::KernelTier::kScalar &&
                          flags.n >= 50000 && flags.bits >= 128;
  if (gate_armed && headline < 5.0) {
    std::fprintf(stderr,
                 "\nFAIL: tiled TopKJoin only %.2fx the naive per-pair loop "
                 "(need >= 5x)\n",
                 headline);
    return 1;
  }
  return 0;
}

}  // namespace uhscm::bench

int main(int argc, char** argv) { return uhscm::bench::Main(argc, argv); }
