#include "index/self_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/packed_codes.h"
#include "index/shard_index.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace uhscm::index {
namespace {

using uhscm::testing::RandomSignCodes;

std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// A corpus with planted near-duplicates: `clusters` groups of
/// `copies` rows each, every copy within `flips` bit flips of its
/// cluster base, plus `extra` unrelated random rows. With random
/// bits >= 64 codes the background pair distance concentrates around
/// bits/2, far above any small radius, so the planted pairs are exactly
/// the expected join output.
PackedCodes PlantedDuplicates(int clusters, int copies, int extra, int bits,
                              int flips, Rng* rng) {
  PackedCodes codes =
      PackedCodes::FromSignMatrix(RandomSignCodes(clusters, bits, rng));
  PackedCodes result;
  for (int c = 0; c < clusters; ++c) {
    for (int dup = 0; dup < copies; ++dup) {
      std::vector<uint64_t> words(codes.code(c),
                                  codes.code(c) + codes.words_per_code());
      const int nflips =
          dup == 0 ? 0
                   : 1 + static_cast<int>(rng->UniformInt(
                             static_cast<uint64_t>(flips)));
      for (int f = 0; f < nflips; ++f) {
        const int bit =
            static_cast<int>(rng->UniformInt(static_cast<uint64_t>(bits)));
        words[static_cast<size_t>(bit / 64)] ^= 1ULL << (bit % 64);
      }
      result.Append(PackedCodes::FromRawWords(1, bits, std::move(words)));
    }
  }
  if (extra > 0) {
    result.Append(PackedCodes::FromSignMatrix(RandomSignCodes(extra, bits, rng)));
  }
  return result;
}

void ExpectTopKIdentical(const std::vector<std::vector<Neighbor>>& got,
                         const std::vector<std::vector<Neighbor>>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << label << " row " << i;
    for (size_t r = 0; r < got[i].size(); ++r) {
      EXPECT_EQ(got[i][r].id, want[i][r].id)
          << label << " row " << i << " rank " << r;
      EXPECT_EQ(got[i][r].distance, want[i][r].distance)
          << label << " row " << i << " rank " << r;
    }
  }
}

void ExpectPairsIdentical(const std::vector<JoinPair>& got,
                          const std::vector<JoinPair>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i])
        << label << " pair " << i << ": {" << got[i].a << "," << got[i].b
        << "," << got[i].distance << "} vs {" << want[i].a << ","
        << want[i].b << "," << want[i].distance << "}";
  }
}

/// Every third row tombstoned (row 0 included).
TombstoneSet EveryThirdDead(int n) {
  TombstoneSet dead;
  dead.Resize(n);
  for (int i = 0; i < n; i += 3) dead.Set(i);
  return dead;
}

// --------------------------------------------------------- byte identity

TEST(SelfJoinTest, TopKJoinMatchesReferenceAcrossTiersTilesThreads) {
  // 96 bits run the 2-word layouts; 192 and 576 bits (3 and 9 words) run
  // the wide-code path under per-code bounds: the AVX2 body, and the
  // VPOPCNTDQ body with a 1-word tail.
  for (const int bits : {96, 192, 576}) {
    Rng rng(41);
    PackedCodes codes =
        PackedCodes::FromSignMatrix(RandomSignCodes(301, bits, &rng));
    const auto want = ReferenceTopKJoin(codes, 7);
    for (const KernelTier tier : AvailableTiers()) {
      for (const int tile : {0, 17, 64}) {
        for (const int threads : {1, 4}) {
          SelfJoinOptions options;
          options.force_tier = true;
          options.tier = tier;
          options.tile = tile;
          options.threads = threads;
          SelfJoinStats stats;
          const auto got = TopKJoin(codes, 7, options, &stats);
          const std::string label = "bits=" + std::to_string(bits) + " " +
                                    KernelTierName(tier) +
                                    " tile=" + std::to_string(tile) +
                                    " threads=" + std::to_string(threads);
          ExpectTopKIdentical(got, want, label);
          // Every live pair is disposed exactly once: left out by the
          // kernel (pruned) or emitted by it (scored).
          EXPECT_EQ(stats.pairs_pruned + stats.pairs_scored,
                    stats.pairs_total)
              << label;
          EXPECT_GT(stats.tiles, 0) << label;
        }
      }
    }
  }
}

TEST(SelfJoinTest, TopKJoinTieHeavyCodesMatchReference) {
  // 16-bit codes over 220 rows force massive distance ties, so any
  // deviation from the (distance, id) displacement rule — e.g. the
  // serving scan's strict-< rule, which is only safe for in-order
  // arrival — shows up immediately.
  Rng rng(43);
  PackedCodes codes =
      PackedCodes::FromSignMatrix(RandomSignCodes(220, 16, &rng));
  const auto want = ReferenceTopKJoin(codes, 9);
  for (const int tile : {0, 13}) {
    for (const int threads : {1, 4}) {
      SelfJoinOptions options;
      options.tile = tile;
      options.threads = threads;
      ExpectTopKIdentical(TopKJoin(codes, 9, options), want,
                          "ties tile=" + std::to_string(tile) +
                              " threads=" + std::to_string(threads));
    }
  }
}

TEST(SelfJoinTest, TopKJoinHonorsTombstones) {
  Rng rng(47);
  PackedCodes codes =
      PackedCodes::FromSignMatrix(RandomSignCodes(240, 64, &rng));
  const TombstoneSet dead = EveryThirdDead(codes.size());
  const auto want = ReferenceTopKJoin(codes, 5, &dead);
  for (const KernelTier tier : AvailableTiers()) {
    SelfJoinOptions options;
    options.force_tier = true;
    options.tier = tier;
    options.tile = 50;
    options.tombstones = &dead;
    const auto got = TopKJoin(codes, 5, options);
    ExpectTopKIdentical(got, want, KernelTierName(tier));
    for (int i = 0; i < codes.size(); ++i) {
      if (dead.Test(i)) {
        EXPECT_TRUE(got[static_cast<size_t>(i)].empty()) << i;
      } else {
        // No tombstoned id may surface as a neighbor.
        for (const Neighbor& nb : got[static_cast<size_t>(i)]) {
          EXPECT_FALSE(dead.Test(nb.id)) << "row " << i;
        }
      }
    }
  }
}

TEST(SelfJoinTest, TopKJoinEdgeCases) {
  Rng rng(53);
  PackedCodes codes =
      PackedCodes::FromSignMatrix(RandomSignCodes(9, 64, &rng));

  // k larger than live-1 clamps: every row lists all other rows.
  const auto all = TopKJoin(codes, 100);
  ExpectTopKIdentical(all, ReferenceTopKJoin(codes, 100), "k>live-1");
  for (const auto& row : all) EXPECT_EQ(row.size(), 8u);

  EXPECT_TRUE(TopKJoin(codes, 0).empty() ||
              TopKJoin(codes, 0)[0].empty());  // k=0: all rows empty
  EXPECT_TRUE(TopKJoin(PackedCodes(), 3).empty());  // empty corpus

  // Single live row: nothing to pair with.
  TombstoneSet all_but_one;
  all_but_one.Resize(codes.size());
  for (int i = 1; i < codes.size(); ++i) all_but_one.Set(i);
  SelfJoinOptions options;
  options.tombstones = &all_but_one;
  for (const auto& row : TopKJoin(codes, 3, options)) {
    EXPECT_TRUE(row.empty());
  }

  // All rows dead.
  TombstoneSet everyone;
  everyone.Resize(codes.size());
  for (int i = 0; i < codes.size(); ++i) everyone.Set(i);
  options.tombstones = &everyone;
  SelfJoinStats stats;
  for (const auto& row : TopKJoin(codes, 3, options, &stats)) {
    EXPECT_TRUE(row.empty());
  }
  EXPECT_EQ(stats.pairs_total, 0);
}

TEST(SelfJoinTest, TopKJoinDeterministicAcrossRuns) {
  Rng rng(59);
  PackedCodes codes =
      PackedCodes::FromSignMatrix(RandomSignCodes(400, 32, &rng));
  SelfJoinOptions options;
  options.threads = 4;
  options.tile = 37;
  const auto first = TopKJoin(codes, 6, options);
  for (int run = 0; run < 3; ++run) {
    ExpectTopKIdentical(TopKJoin(codes, 6, options), first,
                        "run " + std::to_string(run));
  }
}

TEST(SelfJoinTest, RadiusJoinMatchesReferenceAcrossTiersAndRadii) {
  Rng rng(61);
  PackedCodes codes = PlantedDuplicates(12, 5, 140, 128, 6, &rng);
  for (const int radius : {0, 3, 8, 128}) {
    const auto want = ReferenceRadiusJoin(codes, radius);
    for (const KernelTier tier : AvailableTiers()) {
      SelfJoinOptions options;
      options.force_tier = true;
      options.tier = tier;
      options.tile = 45;
      options.threads = 4;
      SelfJoinStats stats;
      const auto got = RadiusJoin(codes, radius, options, &stats);
      const std::string label = std::string(KernelTierName(tier)) +
                                " radius=" + std::to_string(radius);
      ExpectPairsIdentical(got, want, label);
      EXPECT_EQ(stats.pairs_pruned + stats.pairs_scored, stats.pairs_total)
          << label;
      // The kernel emits exactly the within-radius pairs.
      EXPECT_EQ(stats.pairs_scored, static_cast<int64_t>(want.size()))
          << label;
      if (radius == 0) {
        // Sparse join: almost nothing may leave the kernel.
        EXPECT_GT(stats.pairs_pruned, stats.pairs_total / 2) << label;
      }
    }
  }
}

TEST(SelfJoinTest, RadiusJoinHonorsTombstones) {
  Rng rng(67);
  PackedCodes codes = PlantedDuplicates(8, 4, 60, 64, 3, &rng);
  TombstoneSet dead;
  dead.Resize(codes.size());
  for (int i = 0; i < codes.size(); i += 4) dead.Set(i);
  const auto want = ReferenceRadiusJoin(codes, 5, &dead);
  SelfJoinOptions options;
  options.tombstones = &dead;
  options.tile = 19;
  const auto got = RadiusJoin(codes, 5, options);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "pair " << i;
    EXPECT_FALSE(dead.Test(got[i].a)) << i;
    EXPECT_FALSE(dead.Test(got[i].b)) << i;
  }
}

TEST(SelfJoinTest, RadiusJoinNegativeRadiusIsEmpty) {
  Rng rng(71);
  PackedCodes codes =
      PackedCodes::FromSignMatrix(RandomSignCodes(50, 64, &rng));
  EXPECT_TRUE(RadiusJoin(codes, -1).empty());
}

// ------------------------------------- RadiusJoin: MIH and blocked paths

/// `rows` copies of one random code: every pair ties at distance 0, so
/// every bound stays at 1 and the kernel emits every pair.
PackedCodes ExactDuplicates(int rows, int bits, Rng* rng) {
  const PackedCodes base =
      PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, rng));
  PackedCodes result;
  for (int r = 0; r < rows; ++r) result.Append(base);
  return result;
}

/// Runs RadiusJoin over `codes` and checks it against `want` (the
/// ReferenceRadiusJoin output at this radius) with ==, together with the
/// pruned + scored == total partition on both SelfJoinStats and the
/// registry's join.* counters. Returns true when the multi-index hash
/// served the join (mih.candidates_verified moved).
bool ExpectRadiusJoinExact(const PackedCodes& codes, int radius,
                           const TombstoneSet* dead,
                           const SelfJoinOptions& base,
                           const std::vector<JoinPair>& want,
                           const std::string& label) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* pruned = registry.GetCounter("join.pairs_pruned");
  obs::Counter* scored = registry.GetCounter("join.pairs_scored");
  obs::Counter* verified = registry.GetCounter("mih.candidates_verified");
  const int64_t pruned0 = pruned->value();
  const int64_t scored0 = scored->value();
  const int64_t verified0 = verified->value();
  SelfJoinOptions options = base;
  options.tombstones = dead;
  SelfJoinStats stats;
  const auto got = RadiusJoin(codes, radius, options, &stats);
  EXPECT_TRUE(got == want) << label;
  ExpectPairsIdentical(got, want, label);
  EXPECT_EQ(stats.pairs_pruned + stats.pairs_scored, stats.pairs_total)
      << label;
  EXPECT_EQ(stats.pairs_scored, static_cast<int64_t>(want.size())) << label;
  EXPECT_EQ(pruned->value() - pruned0 + scored->value() - scored0,
            stats.pairs_total)
      << label;
  EXPECT_EQ(scored->value() - scored0, stats.pairs_scored) << label;
  return verified->value() != verified0;
}

bool ExpectRadiusJoinExact(const PackedCodes& codes, int radius,
                           const TombstoneSet* dead,
                           const SelfJoinOptions& base,
                           const std::string& label) {
  return ExpectRadiusJoinExact(codes, radius, dead, base,
                               ReferenceRadiusJoin(codes, radius, dead),
                               label);
}

/// The pairs of a reference join within a smaller radius: exactly
/// ReferenceRadiusJoin at that radius, without rescoring every pair.
std::vector<JoinPair> WithinRadius(const std::vector<JoinPair>& pairs,
                                   int radius) {
  std::vector<JoinPair> out;
  for (const JoinPair& pair : pairs) {
    if (pair.distance <= radius) out.push_back(pair);
  }
  return out;
}

/// 4000 rows in two halves of 25 planted clusters (rows 0–124 and
/// 2000–2124) before random background, so pairs fall on both sides of
/// the hash path's 2048-row task boundary and across it.
PackedCodes TwoBlockDuplicates(int bits, int flips, Rng* rng) {
  PackedCodes codes = PlantedDuplicates(25, 5, 1875, bits, flips, rng);
  codes.Append(PlantedDuplicates(25, 5, 1875, bits, flips, rng));
  return codes;
}

TombstoneSet FirstAndLastDead(int n) {
  TombstoneSet dead;
  dead.Resize(n);
  dead.Set(0);
  dead.Set(n - 1);
  return dead;
}

TEST(SelfJoinTest, RadiusJoinExactOnBothPathsAcrossWidthsAndRadii) {
  // 4000 rows, so the cost rule picks the multi-index hash for small
  // radii. Radii 0 .. bits/8 + 1 cross every substring count the hash
  // can use (S = r + 1 up to bits/8), the switch to the blocked join
  // (where it falls depends on the kernel tier) and the radii past
  // bits/8, where no table is built; bits/2 is far past it.
  // Each join must equal the reference, with and without the first and
  // last rows tombstoned.
  for (const int bits : {64, 70, 128, 192}) {
    Rng rng(500 + bits);
    const PackedCodes codes = TwoBlockDuplicates(bits, bits / 16, &rng);
    const TombstoneSet first_last = FirstAndLastDead(codes.size());
    int last_mih = -1;
    int first_blocked = -1;
    for (const TombstoneSet* dead :
         {static_cast<const TombstoneSet*>(nullptr), &first_last}) {
      const int small = bits / 8 + 1;
      const std::vector<JoinPair> reference =
          ReferenceRadiusJoin(codes, small, dead);
      for (int radius = 0; radius <= small; ++radius) {
        const std::string label =
            "bits=" + std::to_string(bits) + " radius=" +
            std::to_string(radius) +
            (dead != nullptr ? " first+last dead" : "");
        if (ExpectRadiusJoinExact(codes, radius, dead, {},
                                  WithinRadius(reference, radius), label)) {
          last_mih = radius;
        } else if (first_blocked < 0) {
          first_blocked = radius;
        }
      }
    }
    // Radius bits/2 admits about half of all pairs: a 600-row corpus
    // keeps that output small.
    const PackedCodes few = PlantedDuplicates(10, 5, 550, bits, 4, &rng);
    const TombstoneSet few_dead = FirstAndLastDead(few.size());
    for (const TombstoneSet* dead :
         {static_cast<const TombstoneSet*>(nullptr), &few_dead}) {
      EXPECT_FALSE(ExpectRadiusJoinExact(
          few, bits / 2, dead, {},
          "bits=" + std::to_string(bits) + " radius=bits/2"));
    }
    // The hash serves the small radii (at least 0..2 on every tier),
    // the blocked join the rest.
    EXPECT_EQ(last_mih + 1, first_blocked) << "bits=" << bits;
    EXPECT_GE(first_blocked, 3) << "bits=" << bits;
  }
}

TEST(SelfJoinTest, RadiusJoinExactAcrossTiersAndThreads) {
  Rng rng(503);
  const PackedCodes codes = TwoBlockDuplicates(128, 6, &rng);
  for (const int radius : {0, 1, 8, 20, 40}) {
    const std::vector<JoinPair> want = ReferenceRadiusJoin(codes, radius);
    for (const KernelTier tier : AvailableTiers()) {
      for (const int threads : {1, 4}) {
        SelfJoinOptions options;
        options.force_tier = true;
        options.tier = tier;
        options.threads = threads;
        ExpectRadiusJoinExact(codes, radius, nullptr, options, want,
                              std::string(KernelTierName(tier)) +
                                  " threads=" + std::to_string(threads) +
                                  " radius=" + std::to_string(radius));
      }
    }
  }
}

TEST(SelfJoinTest, RadiusJoinBucketOfHundredsOfIdenticalCodes) {
  // 400 copies of one code share a bucket in every substring's table;
  // every pair among them is within any radius. Each of those rows reads
  // 400 entries per substring, more than the vectorized blocked join
  // spends on its ~1250 pairs, so the rule prices the hash out on the
  // SIMD tiers. Against the scalar kernel the hash still pays, and serves
  // the crowded bucket, while it has few substrings (radius 0 and 1); at
  // radius 4 its five tables cost more than the scalar blocked join.
  Rng rng(509);
  PackedCodes codes = ExactDuplicates(400, 128, &rng);
  codes.Append(PlantedDuplicates(20, 5, 2000, 128, 3, &rng));
  for (const int radius : {0, 1, 4}) {
    const std::vector<JoinPair> want = ReferenceRadiusJoin(codes, radius);
    for (const KernelTier tier : AvailableTiers()) {
      SelfJoinOptions options;
      options.force_tier = true;
      options.tier = tier;
      EXPECT_EQ(ExpectRadiusJoinExact(codes, radius, nullptr, options, want,
                                      std::string(KernelTierName(tier)) +
                                          " radius=" +
                                          std::to_string(radius)),
                tier == KernelTier::kScalar && radius < 4)
          << KernelTierName(tier) << " radius=" << radius;
    }
  }
}

TEST(SelfJoinTest, RadiusJoinFallsBackToTilesOnClusteredCodes) {
  // Ten tight clusters of 400 rows (every copy within one flip of its
  // centre), the way learned codes group by class: most rows share their
  // key with hundreds of others in every table, so the hash loses to
  // the blocked join on every tier. The same number of spread-out rows
  // at the same radius takes the hash.
  Rng rng(541);
  const PackedCodes clustered = PlantedDuplicates(10, 400, 0, 128, 1, &rng);
  const PackedCodes spread = PlantedDuplicates(40, 5, 3800, 128, 1, &rng);
  const std::vector<JoinPair> want_clustered =
      ReferenceRadiusJoin(clustered, 2);
  const std::vector<JoinPair> want_spread = ReferenceRadiusJoin(spread, 2);
  for (const KernelTier tier : AvailableTiers()) {
    SelfJoinOptions options;
    options.force_tier = true;
    options.tier = tier;
    const std::string label = KernelTierName(tier);
    EXPECT_FALSE(ExpectRadiusJoinExact(clustered, 2, nullptr, options,
                                       want_clustered, label + " clustered"));
    EXPECT_TRUE(ExpectRadiusJoinExact(spread, 2, nullptr, options,
                                      want_spread, label + " spread"));
  }
}

TEST(SelfJoinTest, RadiusJoinWithEveryMemberOfOneBucketDead) {
  // Rows 0..29 are one code, all tombstoned: their bucket is empty in
  // every table, and no pair may touch them.
  Rng rng(521);
  PackedCodes codes = ExactDuplicates(30, 128, &rng);
  codes.Append(TwoBlockDuplicates(128, 4, &rng));
  TombstoneSet dead;
  dead.Resize(codes.size());
  for (int i = 0; i < 30; ++i) dead.Set(i);
  dead.Set(codes.size() - 1);
  for (const int radius : {0, 4, 8, 40}) {
    ExpectRadiusJoinExact(codes, radius, &dead, {},
                          "radius=" + std::to_string(radius));
  }
}

TEST(SelfJoinTest, RadiusJoinTinyAndSingleLiveCorpora) {
  Rng rng(523);
  for (const int n : {0, 1, 2}) {
    const PackedCodes codes =
        PackedCodes::FromSignMatrix(RandomSignCodes(n, 128, &rng));
    for (const int radius : {0, 8, 128}) {
      ExpectRadiusJoinExact(codes, radius, nullptr, {},
                            "n=" + std::to_string(n) +
                                " radius=" + std::to_string(radius));
    }
  }
  // One live row among 4000: no pair, whatever the radius.
  const PackedCodes codes = PlantedDuplicates(50, 5, 3750, 128, 4, &rng);
  TombstoneSet dead;
  dead.Resize(codes.size());
  for (int i = 0; i < codes.size(); ++i) {
    if (i != 17) dead.Set(i);
  }
  for (const int radius : {0, 8, 128}) {
    SelfJoinStats stats;
    SelfJoinOptions options;
    options.tombstones = &dead;
    EXPECT_TRUE(RadiusJoin(codes, radius, options, &stats).empty());
    EXPECT_EQ(stats.pairs_total, 0);
    ExpectRadiusJoinExact(codes, radius, &dead, {},
                          "one live row radius=" + std::to_string(radius));
  }
}

// ------------------------------------------------- loose fronts, big k

TEST(SelfJoinTest, LooseFrontCorporaMatchReference) {
  // Corpora where list bounds stay loose and nearly every pair leaves the
  // kernel: one code repeated (all ties, id order decides everything) and
  // two centres with one-bit copies (fronts at 2, half the pairs within
  // bound). The emitted-candidate path then carries the whole join.
  Rng rng(83);
  const std::vector<std::pair<std::string, PackedCodes>> corpora = {
      {"duplicates", ExactDuplicates(150, 128, &rng)},
      {"two-centres", PlantedDuplicates(2, 90, 0, 64, 1, &rng)}};
  for (const auto& [name, codes] : corpora) {
    const TombstoneSet dead = EveryThirdDead(codes.size());
    for (const TombstoneSet* tombstones : {static_cast<const TombstoneSet*>(nullptr), &dead}) {
      const auto want_topk = ReferenceTopKJoin(codes, 6, tombstones);
      const auto want_radius = ReferenceRadiusJoin(codes, 2, tombstones);
      for (const KernelTier tier : AvailableTiers()) {
        for (const int tile : {0, 17, 64}) {
          for (const int threads : {1, 4}) {
            SelfJoinOptions options;
            options.force_tier = true;
            options.tier = tier;
            options.tile = tile;
            options.threads = threads;
            options.tombstones = tombstones;
            const std::string label =
                name + " " + KernelTierName(tier) +
                " tile=" + std::to_string(tile) +
                " threads=" + std::to_string(threads) +
                (tombstones != nullptr ? " tombstones" : "");
            SelfJoinStats stats;
            ExpectTopKIdentical(TopKJoin(codes, 6, options, &stats), want_topk,
                                label);
            EXPECT_EQ(stats.pairs_pruned + stats.pairs_scored,
                      stats.pairs_total)
                << label;
            if (name == "duplicates") {
              EXPECT_EQ(stats.pairs_scored, stats.pairs_total) << label;
            }
            ExpectPairsIdentical(RadiusJoin(codes, 2, options), want_radius,
                                 label + " radius");
          }
        }
      }
    }
  }
}

TEST(SelfJoinTest, TopKJoinWithKAtLeastTileRowsMatchesReference) {
  // k >= rows per tile: a diagonal tile cannot fill its own lists, so the
  // bounds stay at INT32_MAX into the off-diagonal phase and the
  // staged-offer flushes carry the cold join.
  Rng rng(89);
  PackedCodes codes =
      PackedCodes::FromSignMatrix(RandomSignCodes(150, 128, &rng));
  const TombstoneSet dead = EveryThirdDead(codes.size());
  for (const TombstoneSet* tombstones : {static_cast<const TombstoneSet*>(nullptr), &dead}) {
    for (const auto& [tile, k] : {std::pair{8, 8}, std::pair{8, 20},
                                  std::pair{17, 40}}) {
      const auto want = ReferenceTopKJoin(codes, k, tombstones);
      for (const KernelTier tier : AvailableTiers()) {
        for (const int threads : {1, 4}) {
          SelfJoinOptions options;
          options.force_tier = true;
          options.tier = tier;
          options.tile = tile;
          options.threads = threads;
          options.tombstones = tombstones;
          SelfJoinStats stats;
          const std::string label =
              std::string(KernelTierName(tier)) + " tile=" +
              std::to_string(tile) + " k=" + std::to_string(k) +
              " threads=" + std::to_string(threads) +
              (tombstones != nullptr ? " tombstones" : "");
          ExpectTopKIdentical(TopKJoin(codes, k, options, &stats), want,
                              label);
          EXPECT_EQ(stats.pairs_pruned + stats.pairs_scored,
                    stats.pairs_total)
              << label;
        }
      }
    }
  }
}

TEST(SelfJoinTest, TopKJoinFrontTiesBreakByIdAcrossTiles) {
  // Every code sets 2 of the same 8 bits, so pair distances are 0, 2 or 4
  // and each row's 5th neighbor ties with many others at its distance.
  // With tiles of 16 rows, a row's list first fills from its own tile
  // (larger ids for early rows), then mirrored candidates with smaller ids
  // arrive from earlier tiles at that same distance and must displace the
  // last entry on the id tie-break alone. The list keeps the (distance,
  // id)-smallest k, so the emit bound must admit ties (last + 1), the
  // order must compare ids, and the lists must come out sorted.
  Rng rng(97);
  const int n = 96;
  std::vector<uint64_t> words(static_cast<size_t>(n));
  for (uint64_t& word : words) {
    const int a = static_cast<int>(rng.UniformInt(8));
    int b = static_cast<int>(rng.UniformInt(7));
    if (b >= a) ++b;
    word = (1ULL << a) | (1ULL << b);
  }
  const PackedCodes codes = PackedCodes::FromRawWords(n, 64, std::move(words));
  const TombstoneSet dead = EveryThirdDead(n);
  for (const TombstoneSet* tombstones :
       {static_cast<const TombstoneSet*>(nullptr), &dead}) {
    const auto want = ReferenceTopKJoin(codes, 5, tombstones);
    // The corpus does what the test is for: most rows' 5th and 6th
    // nearest tie, so the id decides which of them is kept.
    const auto wider = ReferenceTopKJoin(codes, 6, tombstones);
    int cut_through_tie = 0;
    for (const auto& row : wider) {
      cut_through_tie += !row.empty() && row[4].distance == row[5].distance;
    }
    EXPECT_GT(cut_through_tie, n / 3);
    for (const KernelTier tier : AvailableTiers()) {
      for (const int threads : {1, 4}) {
        SelfJoinOptions options;
        options.force_tier = true;
        options.tier = tier;
        options.tile = 16;
        options.threads = threads;
        options.tombstones = tombstones;
        SelfJoinStats stats;
        const std::string label =
            std::string(KernelTierName(tier)) +
            " threads=" + std::to_string(threads) +
            (tombstones != nullptr ? " tombstones" : "");
        ExpectTopKIdentical(TopKJoin(codes, 5, options, &stats), want, label);
        EXPECT_EQ(stats.tiles, 6 * 7 / 2) << label;
      }
    }
  }
}

// --------------------------------------------------------------- reducers

/// The reducer ReducePairsToGroups replaced, kept verbatim as the
/// reference the dense one is checked against: a std::map best-match
/// table, a std::map union-find and a std::map of components. It needs
/// (a, b)-sorted pairs.
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

DedupGroupsResult MapReducePairsToGroups(const std::vector<JoinPair>& pairs,
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

/// Runs ReducePairsToGroups on `pairs` as given and the map reducer on
/// the same pairs (a, b)-sorted, and compares groups, rows_clustered and
/// reciprocal pairs with == under both links.
void ExpectReducersAgree(const std::vector<JoinPair>& pairs,
                         const std::string& label) {
  std::vector<JoinPair> sorted = pairs;
  std::sort(sorted.begin(), sorted.end(),
            [](const JoinPair& x, const JoinPair& y) {
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });
  for (const DedupLink link :
       {DedupLink::kRadius, DedupLink::kReciprocalBest}) {
    const std::string where =
        label + (link == DedupLink::kRadius ? " link=radius" : " link=best");
    const DedupGroupsResult got = ReducePairsToGroups(pairs, link);
    const DedupGroupsResult want = MapReducePairsToGroups(sorted, link);
    EXPECT_EQ(got.groups, want.groups) << where;
    EXPECT_EQ(got.rows_clustered, want.rows_clustered) << where;
    ExpectPairsIdentical(got.reciprocal_pairs, want.reciprocal_pairs, where);
  }
}

TEST(SelfJoinTest, ReducePairsRadiusModeTakesTransitiveClosure) {
  // 0-1, 1-2 chain plus isolated 5-6 pair: radius linking closes the
  // chain into {0,1,2} even though 0-2 was never a pair.
  const std::vector<JoinPair> pairs = {{0, 1, 2}, {1, 2, 3}, {5, 6, 1}};
  const auto result = ReducePairsToGroups(pairs, DedupLink::kRadius);
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_EQ(result.groups[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(result.groups[1], (std::vector<int>{5, 6}));
  EXPECT_EQ(result.rows_clustered, 5);
}

TEST(SelfJoinTest, ReducePairsReciprocalBestKeepsOnlyMutualMatches) {
  // 1's best is 0 (d=2); 0's best is 1 — reciprocal. 2's best is 1
  // (d=3) but 1's best is 0, so 1-2 is one-sided and must not link.
  // 5-6 (d=1) is mutual.
  const std::vector<JoinPair> pairs = {{0, 1, 2}, {1, 2, 3}, {5, 6, 1}};
  const auto result = ReducePairsToGroups(pairs, DedupLink::kReciprocalBest);
  ASSERT_EQ(result.reciprocal_pairs.size(), 2u);
  EXPECT_TRUE(result.reciprocal_pairs[0] == (JoinPair{0, 1, 2}));
  EXPECT_TRUE(result.reciprocal_pairs[1] == (JoinPair{5, 6, 1}));
  ASSERT_EQ(result.groups.size(), 2u);
  EXPECT_EQ(result.groups[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(result.groups[1], (std::vector<int>{5, 6}));
}

TEST(SelfJoinTest, ReducePairsBreaksBestMatchTiesByAscendingId) {
  // Row 1 is at distance 2 from both 0 and 3: the canonical
  // (distance, id) order makes 0 its best, so only 0-1 can be
  // reciprocal.
  const std::vector<JoinPair> pairs = {{0, 1, 2}, {1, 3, 2}};
  const auto result = ReducePairsToGroups(pairs, DedupLink::kReciprocalBest);
  ASSERT_EQ(result.reciprocal_pairs.size(), 1u);
  EXPECT_TRUE(result.reciprocal_pairs[0] == (JoinPair{0, 1, 2}));
}

TEST(SelfJoinTest, ReducerMatchesMapReferenceOnExistingInputs) {
  // The hand-made lists above and the join outputs the DedupGroups tests
  // reduce, rebuilt from the same seeds.
  ExpectReducersAgree({{0, 1, 2}, {1, 2, 3}, {5, 6, 1}}, "chain");
  ExpectReducersAgree({{0, 1, 2}, {1, 3, 2}}, "tie");
  Rng rng73(73);
  ExpectReducersAgree(
      ReferenceRadiusJoin(PlantedDuplicates(10, 4, 80, 128, 5, &rng73), 6),
      "planted radius=6");
  Rng rng74(74);
  const PackedCodes two_blocks = TwoBlockDuplicates(128, 5, &rng74);
  for (const int radius : {0, 6, 40}) {
    ExpectReducersAgree(ReferenceRadiusJoin(two_blocks, radius),
                        "two blocks radius=" + std::to_string(radius));
  }
  Rng rng79(79);
  ExpectReducersAgree(
      ReferenceRadiusJoin(PlantedDuplicates(6, 4, 0, 128, 2, &rng79), 4),
      "clusters radius=4");
}

TEST(SelfJoinTest, ReducerMatchesMapReferenceOnMillionsOfZeroDistancePairs) {
  // 1500 copies of one code and 300 of another give 1.17M pairs at
  // distance 0, where every row's best match is decided by id alone.
  Rng rng(601);
  PackedCodes codes = ExactDuplicates(1500, 128, &rng);
  codes.Append(PlantedDuplicates(20, 5, 500, 128, 2, &rng));
  codes.Append(ExactDuplicates(300, 128, &rng));
  const std::vector<JoinPair> pairs = RadiusJoin(codes, 0);
  ASSERT_GE(pairs.size(), 1500u * 1499u / 2u + 300u * 299u / 2u);
  ExpectReducersAgree(pairs, "identical codes");
  const DedupGroupsResult groups =
      ReducePairsToGroups(pairs, DedupLink::kReciprocalBest);
  ASSERT_FALSE(groups.groups.empty());
  EXPECT_EQ(groups.groups[0], (std::vector<int>{0, 1}));
}

TEST(SelfJoinTest, ReducerMatchesMapReferenceOnDistanceTies) {
  // Row 5 is at distance 1 from both 3 and 7, and 7 has no other pair:
  // the id tie-break makes 3 row 5's best, so only 3-5 is reciprocal.
  const std::vector<JoinPair> tie = {{3, 5, 1}, {5, 7, 1}, {7, 9, 2}};
  ExpectReducersAgree(tie, "hand tie");
  const DedupGroupsResult hand =
      ReducePairsToGroups(tie, DedupLink::kReciprocalBest);
  ExpectPairsIdentical(hand.reciprocal_pairs, {{3, 5, 1}}, "hand tie");
  // Random pairs over 300 rows with distances 0..2: most rows have
  // several matches at their best distance.
  Rng rng(607);
  std::vector<JoinPair> pairs;
  for (int a = 0; a < 300; ++a) {
    for (int b = a + 1; b < 300; ++b) {
      if (rng.UniformInt(40) == 0) {
        pairs.push_back({a, b, static_cast<int>(rng.UniformInt(3))});
      }
    }
  }
  ExpectReducersAgree(pairs, "random ties");
}

TEST(SelfJoinTest, ReducerMatchesMapReferenceOnSparseAndFarIds) {
  // Rows 0, 1, 3 and 5..6 and everything between 10 and 999999 are in
  // no pair; the far ids size the reducer's arrays to a million rows.
  const std::vector<JoinPair> pairs = {{2, 4, 1},       {4, 9, 3},
                                       {7, 1000000, 0}, {8, 999999, 2},
                                       {9, 999999, 2},  {999999, 1000000, 1}};
  ExpectReducersAgree(pairs, "sparse ids");
  const DedupGroupsResult groups =
      ReducePairsToGroups(pairs, DedupLink::kRadius);
  EXPECT_EQ(groups.groups,
            (std::vector<std::vector<int>>{{2, 4, 7, 8, 9, 999999, 1000000}}));
  EXPECT_EQ(groups.rows_clustered, 7);
}

TEST(SelfJoinTest, ReducerOnEmptyPairList) {
  ExpectReducersAgree({}, "empty");
  for (const DedupLink link :
       {DedupLink::kRadius, DedupLink::kReciprocalBest}) {
    const DedupGroupsResult result = ReducePairsToGroups({}, link);
    EXPECT_TRUE(result.groups.empty());
    EXPECT_TRUE(result.reciprocal_pairs.empty());
    EXPECT_EQ(result.rows_clustered, 0);
  }
}

TEST(SelfJoinTest, ReducerIsIndependentOfPairOrder) {
  // The same join output shuffled and reversed: the reducer must give
  // what the map reducer gives on the sorted list.
  Rng rng(613);
  PackedCodes codes = ExactDuplicates(40, 128, &rng);
  codes.Append(TwoBlockDuplicates(128, 5, &rng));
  // A chain given from its far end: each union hangs the old root under
  // a smaller one, so the placement pass resolves a parent path 4 deep.
  ExpectReducersAgree({{3, 4, 1}, {2, 3, 1}, {1, 2, 1}, {0, 1, 1}},
                      "chain from its far end");
  std::vector<JoinPair> pairs = ReferenceRadiusJoin(codes, 6);
  const DedupGroupsResult sorted =
      ReducePairsToGroups(pairs, DedupLink::kReciprocalBest);
  std::reverse(pairs.begin(), pairs.end());
  ExpectReducersAgree(pairs, "reversed");
  for (int round = 0; round < 3; ++round) {
    rng.Shuffle(&pairs);
    ExpectReducersAgree(pairs, "shuffle " + std::to_string(round));
    const DedupGroupsResult shuffled =
        ReducePairsToGroups(pairs, DedupLink::kReciprocalBest);
    EXPECT_EQ(shuffled.groups, sorted.groups);
    ExpectPairsIdentical(shuffled.reciprocal_pairs, sorted.reciprocal_pairs,
                         "shuffle " + std::to_string(round));
  }
}

TEST(SelfJoinTest, DedupGroupsMatchesReferenceReduction) {
  Rng rng(73);
  PackedCodes codes = PlantedDuplicates(10, 4, 80, 128, 5, &rng);
  for (const DedupLink link :
       {DedupLink::kRadius, DedupLink::kReciprocalBest}) {
    DedupOptions dedup;
    dedup.radius = 6;
    dedup.link = link;
    SelfJoinOptions options;
    options.threads = 4;
    const auto engine = DedupGroups(codes, dedup, options);
    const auto reference =
        ReducePairsToGroups(ReferenceRadiusJoin(codes, 6), link);
    ASSERT_EQ(engine.groups.size(), reference.groups.size());
    for (size_t g = 0; g < engine.groups.size(); ++g) {
      EXPECT_EQ(engine.groups[g], reference.groups[g]) << "group " << g;
    }
    ASSERT_EQ(engine.reciprocal_pairs.size(),
              reference.reciprocal_pairs.size());
    for (size_t p = 0; p < engine.reciprocal_pairs.size(); ++p) {
      EXPECT_TRUE(engine.reciprocal_pairs[p] == reference.reciprocal_pairs[p])
          << "pair " << p;
    }
    EXPECT_EQ(engine.rows_clustered, reference.rows_clustered);
  }
}

TEST(SelfJoinTest, DedupGroupsMatchesReferenceOnBothJoinPaths) {
  // 4000 rows: radii 0 and 6 take the multi-index hash, 40 the blocked
  // join; the groups must not tell them apart.
  Rng rng(74);
  const PackedCodes codes = TwoBlockDuplicates(128, 5, &rng);
  for (const int radius : {0, 6, 40}) {
    for (const DedupLink link :
         {DedupLink::kRadius, DedupLink::kReciprocalBest}) {
      DedupOptions dedup;
      dedup.radius = radius;
      dedup.link = link;
      const auto engine = DedupGroups(codes, dedup);
      const auto reference =
          ReducePairsToGroups(ReferenceRadiusJoin(codes, radius), link);
      const std::string label = "radius=" + std::to_string(radius);
      EXPECT_EQ(engine.groups, reference.groups) << label;
      EXPECT_TRUE(engine.reciprocal_pairs == reference.reciprocal_pairs)
          << label;
      EXPECT_EQ(engine.rows_clustered, reference.rows_clustered) << label;
    }
  }
}

TEST(SelfJoinTest, DedupGroupsFindsPlantedClusters) {
  // With zero extra rows and tight perturbation, radius linking must
  // recover exactly the planted clusters of 4 consecutive rows.
  Rng rng(79);
  PackedCodes codes = PlantedDuplicates(6, 4, 0, 128, 2, &rng);
  DedupOptions dedup;
  dedup.radius = 4;  // two perturbed copies are within 2+2 flips
  const auto result = DedupGroups(codes, dedup);
  ASSERT_EQ(result.groups.size(), 6u);
  for (int c = 0; c < 6; ++c) {
    const std::vector<int> want = {4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3};
    EXPECT_EQ(result.groups[static_cast<size_t>(c)], want) << "cluster " << c;
  }
  EXPECT_EQ(result.rows_clustered, 24);
}

}  // namespace
}  // namespace uhscm::index
