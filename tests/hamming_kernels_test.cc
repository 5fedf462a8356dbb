#include "index/hamming_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/batch_scan.h"
#include "index/linear_scan.h"
#include "index/packed_codes.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace uhscm::index {
namespace {

using linalg::Matrix;
using uhscm::testing::RandomSignCodes;

/// The tiers this host can actually run — the cross-tier exactness tests
/// iterate these so an avx512 machine checks all three and an avx2-only
/// machine still checks two.
std::vector<KernelTier> AvailableTiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

// ------------------------------------------------------ emitting kernel

/// What one emitting call wrote for one query: (index, distance) hits in
/// output order.
struct Emitted {
  std::vector<int32_t> index;
  std::vector<int32_t> distance;
};

/// Runs `fn` for `queries` on codes [0, n) of `db`, query q under row
/// bound row_bounds[q], with output buffers filled with a sentinel and
/// padded past num_queries * n. Fails if the kernel writes past a
/// query's returned count in its slot, or past the buffers.
std::vector<Emitted> RunEmit(BatchEmitFn fn,
                             const std::vector<const uint64_t*>& queries,
                             const PackedCodes& db, int n,
                             const std::vector<int32_t>& row_bounds,
                             const int32_t* code_bounds,
                             const std::string& label) {
  constexpr int32_t kSentinel = -7;
  constexpr int kPad = 16;
  const int num_queries = static_cast<int>(queries.size());
  const size_t slots = static_cast<size_t>(num_queries) * n;
  std::vector<int32_t> index(slots + kPad, kSentinel);
  std::vector<int32_t> distance(slots + kPad, kSentinel);
  std::vector<int> counts(queries.size(), -1);
  fn(queries.data(), num_queries, db.code(0), n, db.words_per_code(),
     row_bounds.data(), code_bounds, index.data(), distance.data(),
     counts.data());
  std::vector<Emitted> out(queries.size());
  for (int q = 0; q < num_queries; ++q) {
    const std::string who = label + " q=" + std::to_string(q);
    const int count = counts[static_cast<size_t>(q)];
    EXPECT_GE(count, 0) << who;
    EXPECT_LE(count, n) << who;
    const size_t begin = static_cast<size_t>(q) * n;
    const size_t used = begin + static_cast<size_t>(std::clamp(count, 0, n));
    for (size_t i = used; i < begin + static_cast<size_t>(n); ++i) {
      EXPECT_EQ(index[i], kSentinel) << who << " wrote index slot " << i;
      EXPECT_EQ(distance[i], kSentinel) << who << " wrote distance slot " << i;
    }
    out[static_cast<size_t>(q)] = {
        std::vector<int32_t>(index.begin() + begin, index.begin() + used),
        std::vector<int32_t>(distance.begin() + begin,
                             distance.begin() + used)};
  }
  for (size_t i = slots; i < index.size(); ++i) {
    EXPECT_EQ(index[i], kSentinel) << label << " wrote index pad " << i;
    EXPECT_EQ(distance[i], kSentinel) << label << " wrote distance pad " << i;
  }
  return out;
}

/// The emitting contract from first principles, for one query: every
/// code whose exact distance is below max(row_bound, code_bounds[i])
/// (row_bound alone when code_bounds is null), in index order.
Emitted BruteForceEmit(const uint64_t* query, const PackedCodes& db, int n,
                       int32_t row_bound, const int32_t* code_bounds) {
  Emitted want;
  for (int i = 0; i < n; ++i) {
    const int32_t bound = code_bounds == nullptr
                              ? row_bound
                              : std::max(row_bound, code_bounds[i]);
    const int32_t d = HammingDistance(query, db.code(i), db.words_per_code());
    if (d < bound) {
      want.index.push_back(i);
      want.distance.push_back(d);
    }
  }
  return want;
}

/// Checks one emitting call for `queries` on codes [0, n) of `db`: the
/// scalar reference must follow the contract (brute force, query by
/// query), and every available tier must reproduce it exactly — each
/// query's indices, distances and order. Returns the reference's hits.
std::vector<Emitted> ExpectEveryTierEmits(
    const std::vector<const uint64_t*>& queries, const PackedCodes& db, int n,
    const std::vector<int32_t>& row_bounds, const int32_t* code_bounds,
    const std::string& label) {
  const std::vector<Emitted> ref = RunEmit(
      &BatchEmitScalar, queries, db, n, row_bounds, code_bounds,
      "scalar " + label);
  for (size_t q = 0; q < queries.size(); ++q) {
    const Emitted want =
        BruteForceEmit(queries[q], db, n, row_bounds[q], code_bounds);
    EXPECT_EQ(ref[q].index, want.index) << "scalar " << label << " q=" << q;
    EXPECT_EQ(ref[q].distance, want.distance)
        << "scalar " << label << " q=" << q;
  }
  for (const KernelTier tier : AvailableTiers()) {
    const std::string who = std::string(KernelTierName(tier)) + " " + label;
    const std::vector<Emitted> got = RunEmit(
        GetBatchEmitFn(tier), queries, db, n, row_bounds, code_bounds, who);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(got[q].index, ref[q].index) << who << " q=" << q;
      EXPECT_EQ(got[q].distance, ref[q].distance) << who << " q=" << q;
    }
  }
  return ref;
}

/// ExpectEveryTierEmits for one query under one row bound.
Emitted ExpectEveryTierEmits(const PackedCodes& query, const PackedCodes& db,
                             int n, int32_t row_bound,
                             const int32_t* code_bounds,
                             const std::string& label) {
  return ExpectEveryTierEmits({query.code(0)}, db, n, {row_bound},
                              code_bounds, label)[0];
}

/// Every emitting tier must reproduce the scalar reference exactly, and
/// the scalar reference must follow the contract, across code widths:
/// widths at and off 64-bit boundaries, the width-specialized 1- and
/// 2-word layouts, and the blocked path for three or more words: the
/// AVX2 body (under the avx512 tier too) at 3-7 words, and the VPOPCNTDQ
/// body from 8 words with odd and even 512-bit chunk counts and scalar
/// tails of 0, 1, 2, 4 and 7 words. Run lengths go on and off the vector
/// width and the 128-code block, and bound patterns from "emit all" to
/// "emit none", with and without per-code bounds.
class EmitWidths : public ::testing::TestWithParam<int> {};

TEST_P(EmitWidths, EveryTierMatchesScalarReference) {
  const int bits = GetParam();
  const int max_n = 300;
  Rng rng(5200 + bits);
  const PackedCodes db =
      PackedCodes::FromSignMatrix(RandomSignCodes(max_n, bits, &rng));
  const PackedCodes query =
      PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const int words = db.words_per_code();

  std::vector<int32_t> exact(static_cast<size_t>(max_n));
  for (int i = 0; i < max_n; ++i) {
    exact[static_cast<size_t>(i)] =
        HammingDistance(query.code(0), db.code(i), words);
  }
  // Per-code bounds tying each distance exactly (never emits), one above
  // it (always emits), and a mix around it.
  std::vector<int32_t> tie = exact;
  std::vector<int32_t> above = exact;
  for (int32_t& b : above) ++b;
  std::vector<int32_t> mixed(static_cast<size_t>(max_n));
  for (int i = 0; i < max_n; ++i) {
    mixed[static_cast<size_t>(i)] =
        exact[static_cast<size_t>(i)] - 1 +
        static_cast<int32_t>(rng.UniformInt(3));
  }
  const std::vector<int32_t> zeros(static_cast<size_t>(max_n), 0);
  const std::vector<int32_t> maxes(static_cast<size_t>(max_n),
                                   std::numeric_limits<int32_t>::max());

  struct Case {
    std::string name;
    int32_t row_bound;
    const std::vector<int32_t>* code_bounds;
  };
  const int32_t median = bits / 2;
  const std::vector<Case> cases = {
      {"row=max codes=0", std::numeric_limits<int32_t>::max(), &zeros},
      {"row=0 codes=max", 0, &maxes},
      {"row=0 codes=0", 0, &zeros},
      {"row=median codes=0", median, &zeros},
      {"row=0 codes=tie", 0, &tie},
      {"row=0 codes=tie+1", 0, &above},
      {"row=median codes=tie", median, &tie},
      {"row=0 codes=mixed", 0, &mixed},
      {"row=median-4 codes=mixed", median - 4, &mixed},
      {"row=median codes=null", median, nullptr},
      {"row=max codes=null", kNoThreshold, nullptr},
      {"row=0 codes=null", 0, nullptr},
  };
  for (const int n : {0, 1, 3, 7, 8, 15, 16, 17, 31, 33, 257, 300}) {
    for (const Case& c : cases) {
      const std::string label = "bits=" + std::to_string(bits) +
                                " n=" + std::to_string(n) + " " + c.name;
      const Emitted ref = ExpectEveryTierEmits(
          query, db, n, c.row_bound,
          c.code_bounds == nullptr ? nullptr : c.code_bounds->data(), label);
      // Bound patterns whose outcome is known outright.
      if (c.name == "row=max codes=0" || c.name == "row=0 codes=max" ||
          c.name == "row=0 codes=tie+1" || c.name == "row=max codes=null") {
        EXPECT_EQ(static_cast<int>(ref.index.size()), n) << label;
      }
      if (c.name == "row=0 codes=0" || c.name == "row=0 codes=tie" ||
          c.name == "row=0 codes=null") {
        EXPECT_TRUE(ref.index.empty()) << label;
      }
    }
  }
}

TEST_P(EmitWidths, NearCodesUnderEveryBound) {
  // Codes a few flipped bits from the query, spread over every word,
  // under every row bound from 0 to one past the largest distance, so
  // every distance sits just below, at and just above some bound. A
  // body that dropped a chunk or a tail word would emit a wrong distance
  // or miss a hit; wide codes also meet the fused block minimum at every
  // bound around their distances.
  const int bits = GetParam();
  const int n = 300;
  Rng rng(5300 + bits);
  const PackedCodes query =
      PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const int words = query.words_per_code();
  std::vector<uint64_t> raw;
  for (int i = 0; i < n; ++i) {
    std::vector<uint64_t> code(query.code(0), query.code(0) + words);
    const int flips = static_cast<int>(rng.UniformInt(std::min(bits, 24) + 1));
    for (int f = 0; f < flips; ++f) {
      const int b = static_cast<int>(rng.UniformInt(bits));
      code[static_cast<size_t>(b / 64)] ^= 1ULL << (b % 64);
    }
    raw.insert(raw.end(), code.begin(), code.end());
  }
  const PackedCodes db = PackedCodes::FromRawWords(n, bits, std::move(raw));
  int32_t max_distance = 0;
  for (int i = 0; i < n; ++i) {
    max_distance =
        std::max(max_distance, HammingDistance(query.code(0), db.code(i), words));
  }
  for (int32_t row_bound = 0; row_bound <= max_distance + 1; ++row_bound) {
    for (const int n_run : {17, n}) {
      ExpectEveryTierEmits(query, db, n_run, row_bound, nullptr,
                           "bits=" + std::to_string(bits) +
                               " n=" + std::to_string(n_run) +
                               " row=" + std::to_string(row_bound));
    }
  }
}

TEST_P(EmitWidths, OneToFourQueriesPerCall) {
  // Calls with 1 to 4 queries, each under its own row bound, must emit
  // for every query exactly what the contract says for that query alone
  // (brute force), on every tier. Query 0 sits a few bits from most codes, so its hits are many and
  // dense; the others are random. Bound sets mix "emit all", "emit
  // none", the median and the near query's distances per query, with
  // per-code bounds null, mixed and all zero; query lists repeat a
  // pointer; run lengths go on and off the 8- and 16-code steps.
  const int bits = GetParam();
  const int max_n = 300;
  Rng rng(5400 + bits);
  const PackedCodes others =
      PackedCodes::FromSignMatrix(RandomSignCodes(3, bits, &rng));
  const PackedCodes near = PackedCodes::FromSignMatrix(
      RandomSignCodes(1, bits, &rng));
  const int words = near.words_per_code();
  std::vector<uint64_t> raw;
  for (int i = 0; i < max_n; ++i) {
    std::vector<uint64_t> code(near.code(0), near.code(0) + words);
    if (i % 3 != 0) {  // every third code is the query itself
      const int b = static_cast<int>(rng.UniformInt(bits));
      code[static_cast<size_t>(b / 64)] ^= 1ULL << (b % 64);
    }
    if (i % 5 == 0) {  // and every fifth one is far from it
      for (uint64_t& w : code) w = ~w;
      code.back() &= bits % 64 == 0 ? ~0ULL : (1ULL << (bits % 64)) - 1;
    }
    raw.insert(raw.end(), code.begin(), code.end());
  }
  const PackedCodes db = PackedCodes::FromRawWords(max_n, bits, std::move(raw));
  const std::vector<const uint64_t*> pool = {near.code(0), others.code(0),
                                             others.code(1), others.code(2)};

  std::vector<int32_t> mixed(static_cast<size_t>(max_n));
  for (int32_t& b : mixed) b = static_cast<int32_t>(rng.UniformInt(bits + 2));
  const std::vector<int32_t> zeros(static_cast<size_t>(max_n), 0);
  const std::vector<const int32_t*> code_bound_sets = {nullptr, mixed.data(),
                                                       zeros.data()};
  const char* const code_bound_names[] = {"null", "mixed", "zeros"};
  const int32_t kMax = std::numeric_limits<int32_t>::max();
  const int32_t median = bits / 2;
  const std::vector<std::vector<int32_t>> bound_sets = {
      {kMax, kMax, kMax, kMax},
      {0, 0, 0, 0},
      {2, 0, median, kMax},
      {0, kMax, 1, median - 4},
      {1, median, 0, 2},
  };
  const std::vector<std::vector<int>> picks = {
      {0}, {1, 0}, {1, 1}, {2, 0, 1}, {0, 3, 0}, {0, 1, 2, 3}, {3, 0, 0, 1}};
  for (const int n : {0, 1, 7, 16, 17, 33, 250, 300}) {
    for (const std::vector<int>& pick : picks) {
      std::vector<const uint64_t*> queries;
      for (const int p : pick) queries.push_back(pool[static_cast<size_t>(p)]);
      for (size_t s = 0; s < bound_sets.size(); ++s) {
        std::vector<int32_t> row_bounds(bound_sets[s].begin(),
                                        bound_sets[s].begin() +
                                            static_cast<long>(pick.size()));
        for (size_t c = 0; c < code_bound_sets.size(); ++c) {
          std::string label = "bits=" + std::to_string(bits) +
                              " n=" + std::to_string(n) + " queries=";
          for (const int p : pick) label += std::to_string(p);
          label += " bounds=" + std::to_string(s) + " codes=" +
                   code_bound_names[c];
          const int32_t* cb = code_bound_sets[c];
          ExpectEveryTierEmits(queries, db, n, row_bounds, cb, label);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, EmitWidths,
    ::testing::Values(1, 7, 63, 64, 65, 127, 128, 129, 190, 192, 255, 256,
                      300, 320, 384, 448, 511, 512, 576,
                      // 12 and 15 words: one 512-bit chunk and a 4- and
                      // 7-word tail
                      768, 960, 1024,
                      // 24 to 40 words: whole 512-bit chunks with no tail,
                      // and 1- and 2-word tails
                      1536, 2048, 2112, 2113, 2560,
                      // 73 words: an odd count of 512-bit chunks and a
                      // 1-word tail
                      4672));

TEST(KernelDispatch, TierNamesAndExplicitLookup) {
  EXPECT_STREQ(KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx2), "avx2");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx512), "avx512");
  EXPECT_EQ(GetBatchEmitFn(KernelTier::kScalar), &BatchEmitScalar);
  EXPECT_TRUE(KernelTierAvailable(KernelTier::kScalar));
  // Graded fallback: asking for a tier the host lacks returns the next
  // tier down, never a crash and never a scalar jump past an available
  // middle tier.
  if (!Avx2Available()) {
    EXPECT_EQ(GetBatchEmitFn(KernelTier::kAvx2), &BatchEmitScalar);
    EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
  }
  if (!Avx512Available()) {
    EXPECT_EQ(GetBatchEmitFn(KernelTier::kAvx512),
              GetBatchEmitFn(KernelTier::kAvx2));
  }
}

TEST(KernelDispatch, ParseKernelTier) {
  KernelTier tier = KernelTier::kAvx2;
  EXPECT_TRUE(ParseKernelTier("scalar", &tier));
  EXPECT_EQ(tier, KernelTier::kScalar);
  EXPECT_TRUE(ParseKernelTier("avx2", &tier));
  EXPECT_EQ(tier, KernelTier::kAvx2);
  EXPECT_TRUE(ParseKernelTier("avx512", &tier));
  EXPECT_EQ(tier, KernelTier::kAvx512);
  tier = KernelTier::kScalar;
  EXPECT_FALSE(ParseKernelTier("avx999", &tier));
  EXPECT_FALSE(ParseKernelTier("", &tier));
  EXPECT_FALSE(ParseKernelTier(nullptr, &tier));
  EXPECT_EQ(tier, KernelTier::kScalar) << "failed parse must not write";
}

// ----------------------------------------------------- batched top-k scan

/// Codes drawn around `centres` random centres with each bit flipped with
/// probability `flip`: few centres and small flips give the heavy
/// distance ties of trained codes.
PackedCodes ClusteredCodes(int n, int bits, int centres, double flip,
                           Rng* rng) {
  const Matrix centre = RandomSignCodes(centres, bits, rng);
  Matrix m(n, bits);
  for (int i = 0; i < n; ++i) {
    const int c = static_cast<int>(rng->UniformInt(centres));
    for (int b = 0; b < bits; ++b) {
      m(i, b) = rng->Bernoulli(flip) ? -centre(c, b) : centre(c, b);
    }
  }
  return PackedCodes::FromSignMatrix(m);
}

/// BatchTopK on every available tier must be memcmp-equal (ids,
/// distances, tie order) to the per-query scan over the live rows.
void ExpectBatchEqualsPerQueryScan(const PackedCodes& db,
                                   const PackedCodes& queries, int k,
                                   int code_block,
                                   const TombstoneSet* dead = nullptr) {
  LinearScanIndex scan(
      PackedCodes::FromRawWords(db.size(), db.bits(), db.words()));
  for (int i = 0; dead != nullptr && i < db.size(); ++i) {
    if (dead->Test(i)) scan.Remove(i);
  }
  for (const KernelTier tier : AvailableTiers()) {
    BatchScanOptions options;
    options.force_tier = true;
    options.tier = tier;
    options.code_block = code_block;
    options.tombstones = dead;
    const auto got = BatchTopK(db, queries, k, options);
    ASSERT_EQ(got.size(), static_cast<size_t>(queries.size()));
    for (int q = 0; q < queries.size(); ++q) {
      const auto want = scan.TopK(queries.code(q), k);
      const auto& g = got[static_cast<size_t>(q)];
      ASSERT_EQ(g.size(), want.size())
          << KernelTierName(tier) << " bits=" << db.bits() << " k=" << k
          << " block=" << code_block << " q=" << q;
      EXPECT_EQ(std::memcmp(g.data(), want.data(), g.size() * sizeof(Neighbor)),
                0)
          << KernelTierName(tier) << " bits=" << db.bits() << " k=" << k
          << " block=" << code_block << " q=" << q;
    }
  }
}

/// BatchTopK must reproduce per-query TopK exactly — ids, distances, and
/// tie-break order — across widths, k values, block boundaries, query
/// counts on and off the kernel's four-query groups, and tombstones.
class BatchTopKConfigs
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BatchTopKConfigs, MatchesPerQueryTopKByteForByte) {
  const auto [n, bits, k] = GetParam();
  Rng rng(7000 + n + bits + k);
  const PackedCodes db =
      PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  TombstoneSet dead;
  dead.Resize(db.size());
  for (int i = 1; i < db.size(); i += 4) dead.Set(i);
  for (const int num_queries : {1, 3, 5, 9, 17}) {
    const PackedCodes queries =
        PackedCodes::FromSignMatrix(RandomSignCodes(num_queries, bits, &rng));
    ExpectBatchEqualsPerQueryScan(db, queries, k, 0);
    ExpectBatchEqualsPerQueryScan(db, queries, k, 0, &dead);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchTopKConfigs,
    ::testing::Values(
        // bits=16 on hundreds of codes forces heavy distance ties: the
        // id tie-break order must survive batching.
        std::make_tuple(400, 16, 1), std::make_tuple(400, 16, 25),
        std::make_tuple(400, 16, 400),
        std::make_tuple(500, 64, 10), std::make_tuple(500, 128, 10),
        std::make_tuple(300, 100, 17), std::make_tuple(300, 320, 10),
        // k larger than the corpus clamps
        std::make_tuple(50, 64, 1000),
        // wide codes: pruning path active inside the scan
        std::make_tuple(300, 2048, 10)));

TEST(BatchTopKTest, TinyCodeBlocksCrossBlockBoundariesCorrectly) {
  Rng rng(88);
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(333, 64, &rng));
  PackedCodes queries = PackedCodes::FromSignMatrix(RandomSignCodes(5, 64, &rng));
  LinearScanIndex scan(
      PackedCodes::FromRawWords(db.size(), db.bits(), db.words()));

  BatchScanOptions options;
  options.code_block = 7;  // pathological block size: many partial blocks
  const auto batched = BatchTopK(db, queries, 20, options);
  for (int q = 0; q < queries.size(); ++q) {
    const auto expect = scan.TopK(queries.code(q), 20);
    const auto& got = batched[static_cast<size_t>(q)];
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].id, expect[i].id);
      EXPECT_EQ(got[i].distance, expect[i].distance);
    }
  }
}

TEST(BatchTopKTest, ForcedScalarTierMatchesDispatchedTier) {
  Rng rng(89);
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(250, 128, &rng));
  PackedCodes queries = PackedCodes::FromSignMatrix(RandomSignCodes(6, 128, &rng));

  BatchScanOptions scalar_options;
  scalar_options.force_tier = true;
  scalar_options.tier = KernelTier::kScalar;
  const auto scalar = BatchTopK(db, queries, 15, scalar_options);
  const auto dispatched = BatchTopK(db, queries, 15);
  ASSERT_EQ(scalar.size(), dispatched.size());
  for (size_t q = 0; q < scalar.size(); ++q) {
    ASSERT_EQ(scalar[q].size(), dispatched[q].size());
    for (size_t i = 0; i < scalar[q].size(); ++i) {
      EXPECT_EQ(scalar[q][i].id, dispatched[q][i].id);
      EXPECT_EQ(scalar[q][i].distance, dispatched[q][i].distance);
    }
  }
}

TEST(BatchTopKTest, EveryTierIsByteIdenticalToPerQueryScan) {
  // The tier must never change results — ids, distances, and tie-break
  // order all match the per-query scan on every tier. bits=16 forces
  // heavy ties so the ordering contract is actually stressed; k=10
  // keeps the heap's bound armed for most blocks.
  Rng rng(91);
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(700, 16, &rng));
  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(6, 16, &rng));
  LinearScanIndex scan(
      PackedCodes::FromRawWords(db.size(), db.bits(), db.words()));

  for (const KernelTier tier : AvailableTiers()) {
    BatchScanOptions options;
    options.force_tier = true;
    options.tier = tier;
    options.code_block = 64;  // several blocks, so skips can trigger
    const auto got = BatchTopK(db, queries, 10, options);
    ASSERT_EQ(got.size(), 6u);
    for (int q = 0; q < queries.size(); ++q) {
      const auto expect = scan.TopK(queries.code(q), 10);
      const auto& g = got[static_cast<size_t>(q)];
      ASSERT_EQ(g.size(), expect.size()) << KernelTierName(tier) << " q=" << q;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(g[i].id, expect[i].id)
            << KernelTierName(tier) << " q=" << q << " rank=" << i;
        EXPECT_EQ(g[i].distance, expect[i].distance)
            << KernelTierName(tier) << " q=" << q << " rank=" << i;
      }
    }
  }
}

TEST(BatchTopKTest, TombstonesWithFusedMinAcrossTiers) {
  // Tombstones and the armed bound compose: dead rows are still scored
  // by the kernel (the run stays contiguous) and are emitted when they
  // beat the bound, but must never enter a heap or set the bound. Wide
  // codes (1024 bits = 16 words) take the kernels' blocked wide path
  // with its fused block minimum, and each query's exact duplicate is
  // planted in the corpus *dead*: the best hit of its run, which must
  // still be dropped.
  Rng rng(93);
  const int bits = 1024;
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(500, bits, &rng));
  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(4, bits, &rng));
  TombstoneSet dead;
  dead.Resize(db.size());
  for (int i = 0; i < db.size(); i += 7) dead.Set(i);
  for (int q = 0; q < queries.size(); ++q) {
    // Plant query q's exact duplicate at a dead slot (distance 0 to the
    // query — the best match in its block — yet must be filtered).
    const int slot = 7 * (q + 3);
    std::vector<uint64_t> words(db.words());
    std::copy(queries.code(q), queries.code(q) + db.words_per_code(),
              words.begin() +
                  static_cast<size_t>(slot) * db.words_per_code());
    db = PackedCodes::FromRawWords(db.size(), bits, std::move(words));
  }

  // Per-query oracle: ascending-id scan over live rows with the same
  // strict-< displacement rule BatchTopK uses.
  const int k = 12;
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(a, b);
  };
  std::vector<std::vector<Neighbor>> want(static_cast<size_t>(queries.size()));
  for (int q = 0; q < queries.size(); ++q) {
    auto& heap = want[static_cast<size_t>(q)];
    for (int i = 0; i < db.size(); ++i) {
      if (dead.Test(i)) continue;
      const int d =
          HammingDistance(queries.code(q), db.code(i), db.words_per_code());
      if (static_cast<int>(heap.size()) < k) {
        heap.push_back({i, d});
        std::push_heap(heap.begin(), heap.end(), cmp);
      } else if (d < heap.front().distance) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        heap.back() = {i, d};
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
    std::sort_heap(heap.begin(), heap.end(), cmp);
  }

  for (const KernelTier tier : AvailableTiers()) {
    BatchScanOptions options;
    options.force_tier = true;
    options.tier = tier;
    options.tombstones = &dead;
    options.code_block = 96;  // several blocks and runs
    const auto got = BatchTopK(db, queries, k, options);
    for (int q = 0; q < queries.size(); ++q) {
      const auto& g = got[static_cast<size_t>(q)];
      const auto& w = want[static_cast<size_t>(q)];
      ASSERT_EQ(g.size(), w.size()) << KernelTierName(tier) << " q=" << q;
      for (size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(g[i].id, w[i].id)
            << KernelTierName(tier) << " q=" << q << " rank=" << i;
        EXPECT_EQ(g[i].distance, w[i].distance)
            << KernelTierName(tier) << " q=" << q << " rank=" << i;
        EXPECT_FALSE(dead.Test(g[i].id)) << KernelTierName(tier) << " q=" << q;
      }
    }
  }
}

// ------------------------------------- emitting scan against the oracle

/// 1-, 2- and 3-word codes: the emitting kernels' two narrow layouts and
/// their blocked path for wider codes.
class BatchTopKEmit : public ::testing::TestWithParam<int> {};

TEST_P(BatchTopKEmit, TombstonesAmongFirstKAndAWholeDeadFirstRun) {
  const int bits = GetParam();
  Rng rng(5100 + bits);
  const PackedCodes db = ClusteredCodes(1200, bits, 20, 0.1, &rng);
  const PackedCodes queries = ClusteredCodes(5, bits, 20, 0.1, &rng);
  TombstoneSet first_k;
  first_k.Resize(db.size());
  for (const int i : {0, 1, 3, 4, 6, 9}) first_k.Set(i);
  // Rows 0..299 cover the first 256-code run, and the first block too
  // when blocks are smaller: the heap fills only after it.
  TombstoneSet first_run;
  first_run.Resize(db.size());
  for (int i = 0; i < 300; ++i) first_run.Set(i);
  for (const int block : {0, 100, 7}) {
    ExpectBatchEqualsPerQueryScan(db, queries, 10, block, &first_k);
    ExpectBatchEqualsPerQueryScan(db, queries, 10, block, &first_run);
  }
}

TEST_P(BatchTopKEmit, KAtOrAboveTheLiveCount) {
  const int bits = GetParam();
  Rng rng(5200 + bits);
  const PackedCodes db = ClusteredCodes(300, bits, 5, 0.05, &rng);
  const PackedCodes queries = ClusteredCodes(4, bits, 5, 0.05, &rng);
  TombstoneSet dead;
  dead.Resize(db.size());
  for (int i = 0; i < db.size(); i += 3) dead.Set(i);  // 200 live rows
  for (const int block : {0, 7}) {
    for (const int k : {199, 200, 201, 1000}) {
      ExpectBatchEqualsPerQueryScan(db, queries, k, block, &dead);
      ExpectBatchEqualsPerQueryScan(db, queries, k, block);
    }
  }
}

TEST_P(BatchTopKEmit, TiesAtTheKthDistanceStraddleRunAndBlockBoundaries) {
  // The query is the zero code. Three rows sit at distance 1 and runs of
  // rows at distance 2 straddle ids 256 and 1024 (run boundaries), 512
  // (a run and a 512-code block boundary) and 600 (a 300-code block
  // boundary); every other row is far. Sweeping k moves the k-th
  // distance's cut through each tie run.
  const int bits = GetParam();
  const int words = (bits + 63) / 64;
  const int n = 1100;
  Rng rng(5300 + bits);
  std::vector<uint64_t> raw(static_cast<size_t>(n) * words);
  const uint64_t tail =
      bits % 64 == 0 ? ~0ULL : (1ULL << (bits % 64)) - 1;
  for (int i = 0; i < n; ++i) {
    uint64_t* code = raw.data() + static_cast<size_t>(i) * words;
    for (int w = 0; w < words; ++w) code[w] = rng.NextU64() | 0xFFFFULL;
    code[words - 1] &= tail;  // still >= 16 bits set
  }
  auto plant = [&](int id, int distance) {
    uint64_t* code = raw.data() + static_cast<size_t>(id) * words;
    std::fill(code, code + words, 0);
    // One bit among the first 32, one among the last 7.
    if (distance >= 1) code[0] |= 1ULL << (id % 32);
    if (distance >= 2) {
      const int b = bits - 1 - id % 7;
      code[b / 64] |= 1ULL << (b % 64);
    }
  };
  for (const int id : {3, 17, 40}) plant(id, 1);
  for (const auto& [lo, hi] : std::vector<std::pair<int, int>>{
           {250, 262}, {505, 519}, {590, 610}, {1020, 1030}}) {
    for (int id = lo; id < hi; ++id) plant(id, 2);
  }
  const PackedCodes db = PackedCodes::FromRawWords(n, bits, std::move(raw));
  const PackedCodes queries = PackedCodes::FromRawWords(
      2, bits, std::vector<uint64_t>(2 * static_cast<size_t>(words), 0));
  for (const int block : {0, 512, 300, 100}) {
    for (const int k : {3, 4, 10, 16, 20, 25, 30, 40, 50, 60}) {
      ExpectBatchEqualsPerQueryScan(db, queries, k, block);
    }
  }
}

TEST_P(BatchTopKEmit, HeavilyTiedFewClusterCodes) {
  // Ten tight clusters, like a trained model's codes: queries that are
  // exact corpus rows meet long runs of distance-0 ties.
  const int bits = GetParam();
  Rng rng(5400 + bits);
  const PackedCodes db = ClusteredCodes(2500, bits, 10, 0.02, &rng);
  std::vector<uint64_t> raw;
  for (int q = 0; q < 16; ++q) {
    const uint64_t* code = db.code(static_cast<int>(rng.UniformInt(2500)));
    raw.insert(raw.end(), code, code + db.words_per_code());
  }
  const PackedCodes queries =
      PackedCodes::FromRawWords(16, bits, std::move(raw));
  TombstoneSet dead;
  dead.Resize(db.size());
  for (int i = 0; i < db.size(); i += 5) dead.Set(i);
  for (const int block : {0, 64, 300}) {
    for (const int k : {1, 10, 100}) {
      ExpectBatchEqualsPerQueryScan(db, queries, k, block);
      ExpectBatchEqualsPerQueryScan(db, queries, k, block, &dead);
    }
  }
}

TEST_P(BatchTopKEmit, CodeBlocksSmallerThanTheRun) {
  const int bits = GetParam();
  Rng rng(5500 + bits);
  const PackedCodes db =
      PackedCodes::FromSignMatrix(RandomSignCodes(1000, bits, &rng));
  const PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(3, bits, &rng));
  for (const int block : {1, 7, 100, 255, 257}) {
    ExpectBatchEqualsPerQueryScan(db, queries, 10, block);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchTopKEmit,
                         ::testing::Values(64, 128, 192, 100));

TEST(BatchTopKCounters, RegistryInvariantsAfterABatch) {
  // scan.rows_scanned counts every (row, query) pair; an armed emit call
  // is counted in scan.early_abandon_calls and, when it returns no hit,
  // also in scan.blocks_skipped.
  Rng rng(5600);
  const PackedCodes db = ClusteredCodes(5000, 64, 10, 0.05, &rng);
  const PackedCodes queries = ClusteredCodes(7, 64, 10, 0.05, &rng);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* rows = reg.GetCounter("scan.rows_scanned");
  obs::Counter* armed = reg.GetCounter("scan.early_abandon_calls");
  obs::Counter* skipped = reg.GetCounter("scan.blocks_skipped");
  for (const KernelTier tier : AvailableTiers()) {
    rows->Reset();
    armed->Reset();
    skipped->Reset();
    BatchScanOptions options;
    options.force_tier = true;
    options.tier = tier;
    BatchTopK(db, queries, 10, options);
    EXPECT_EQ(rows->value(), int64_t{5000} * 7) << KernelTierName(tier);
    EXPECT_GT(armed->value(), 0) << KernelTierName(tier);
    EXPECT_GT(skipped->value(), 0) << KernelTierName(tier);
    EXPECT_LE(skipped->value(), armed->value()) << KernelTierName(tier);
  }
}

TEST(BatchTopKCounters, BoundIsReReadAtEveryRun) {
  // One 2048-row block of eight 256-code runs, at the default block size
  // and at an explicit one, and five queries: a four-query group and a
  // single one. Query q's exact duplicate is row q, so with k = 1 every
  // heap holds distance 0 after the first run. A bound re-read at every
  // run arms the other seven runs of each query, and each of them emits
  // nothing; a bound read once per block would arm none of them.
  Rng rng(5700);
  const PackedCodes db =
      PackedCodes::FromSignMatrix(RandomSignCodes(2048, 64, &rng));
  const PackedCodes queries =
      PackedCodes::FromRawWords(5, 64, std::vector<uint64_t>(
                                           db.code(0), db.code(0) + 5));
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* rows = reg.GetCounter("scan.rows_scanned");
  obs::Counter* armed = reg.GetCounter("scan.early_abandon_calls");
  obs::Counter* skipped = reg.GetCounter("scan.blocks_skipped");
  for (const KernelTier tier : AvailableTiers()) {
    for (const int block : {0, 2048}) {
      rows->Reset();
      armed->Reset();
      skipped->Reset();
      BatchScanOptions options;
      options.force_tier = true;
      options.tier = tier;
      options.code_block = block;
      const auto got = BatchTopK(db, queries, 1, options);
      for (int q = 0; q < 5; ++q) {
        ASSERT_EQ(got[static_cast<size_t>(q)].size(), 1u);
        EXPECT_EQ(got[static_cast<size_t>(q)][0].id, q);
        EXPECT_EQ(got[static_cast<size_t>(q)][0].distance, 0);
      }
      const std::string label =
          std::string(KernelTierName(tier)) + " block=" + std::to_string(block);
      EXPECT_EQ(rows->value(), int64_t{2048} * 5) << label;
      EXPECT_EQ(armed->value(), 5 * 7) << label;
      EXPECT_EQ(skipped->value(), 5 * 7) << label;
    }
  }
}

TEST(BatchTopKTest, EdgeCases) {
  Rng rng(90);
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(10, 64, &rng));
  PackedCodes queries = PackedCodes::FromSignMatrix(RandomSignCodes(3, 64, &rng));
  LinearScanIndex scan(
      PackedCodes::FromRawWords(db.size(), db.bits(), db.words()));

  // k = 0: one empty list per query.
  auto zero_k = scan.TopKBatch(queries, 0);
  ASSERT_EQ(zero_k.size(), 3u);
  for (const auto& list : zero_k) EXPECT_TRUE(list.empty());

  // No queries: empty result set.
  EXPECT_TRUE(BatchTopK(db, nullptr, 0, 5).empty());

  // Empty database: empty lists.
  PackedCodes empty_db =
      PackedCodes::FromSignMatrix(linalg::Matrix(0, 64));
  auto no_db = BatchTopK(empty_db, queries, 5);
  ASSERT_EQ(no_db.size(), 3u);
  for (const auto& list : no_db) EXPECT_TRUE(list.empty());
}

}  // namespace
}  // namespace uhscm::index
