#include "index/self_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/packed_codes.h"
#include "index/shard_index.h"
#include "linalg/matrix.h"
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
  Rng rng(41);
  PackedCodes codes =
      PackedCodes::FromSignMatrix(RandomSignCodes(301, 96, &rng));
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
        const std::string label = std::string(KernelTierName(tier)) +
                                  " tile=" + std::to_string(tile) +
                                  " threads=" + std::to_string(threads);
        ExpectTopKIdentical(got, want, label);
        // Every live pair is disposed exactly once: left out by the
        // kernel (pruned) or emitted by it (scored).
        EXPECT_EQ(stats.pairs_pruned + stats.pairs_scored, stats.pairs_total)
            << label;
        EXPECT_GT(stats.tiles, 0) << label;
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

// ------------------------------------------------- loose fronts, big k

/// `rows` copies of one random code: every pair ties at distance 0, so
/// every bound stays at 1 and the kernel emits every pair.
PackedCodes ExactDuplicates(int rows, int bits, Rng* rng) {
  const PackedCodes base =
      PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, rng));
  PackedCodes result;
  for (int r = 0; r < rows; ++r) result.Append(base);
  return result;
}

TEST(SelfJoinTest, LooseFrontCorporaMatchReference) {
  // Corpora where heap fronts stay loose and nearly every pair leaves the
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
  // k >= rows per tile: a diagonal tile cannot fill its own heaps, so the
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

// --------------------------------------------------------------- reducers

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
