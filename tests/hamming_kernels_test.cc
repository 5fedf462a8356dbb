#include "index/hamming_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/batch_scan.h"
#include "index/linear_scan.h"
#include "index/packed_codes.h"
#include "linalg/matrix.h"
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

// ------------------------------------------------------- kernel equality

/// Every dispatched tier must agree bit-for-bit with the scalar reference
/// and the per-pair HammingDistance across word counts 1..9 (widths both
/// at and off 64-bit boundaries) plus the wide Harley–Seal path.
class KernelWidths : public ::testing::TestWithParam<int> {};

TEST_P(KernelWidths, AllTiersMatchScalarReferenceExactly) {
  const int bits = GetParam();
  const int n = 257;  // odd count exercises every kernel's tail handling
  Rng rng(900 + bits);
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(3, bits, &rng));
  const int words = db.words_per_code();

  std::vector<int32_t> ref(static_cast<size_t>(n));
  std::vector<int32_t> scalar(static_cast<size_t>(n));
  std::vector<int32_t> dispatched(static_cast<size_t>(n));
  for (int q = 0; q < queries.size(); ++q) {
    for (int i = 0; i < n; ++i) {
      ref[static_cast<size_t>(i)] =
          HammingDistance(queries.code(q), db.code(i), words);
    }
    const int32_t ref_min = *std::min_element(ref.begin(), ref.end());
    EXPECT_EQ(BatchDistancesMinScalar(queries.code(q), db.code(0), n, words,
                                      kNoThreshold, scalar.data()),
              ref_min)
        << "scalar bits=" << bits << " q=" << q;
    EXPECT_EQ(GetBatchDistanceMinFn()(queries.code(q), db.code(0), n, words,
                                      kNoThreshold, dispatched.data()),
              ref_min)
        << KernelTierName(ActiveKernelTier()) << " bits=" << bits
        << " q=" << q;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(scalar[static_cast<size_t>(i)], ref[static_cast<size_t>(i)])
          << "scalar bits=" << bits << " q=" << q << " i=" << i;
      EXPECT_EQ(dispatched[static_cast<size_t>(i)],
                ref[static_cast<size_t>(i)])
          << KernelTierName(ActiveKernelTier()) << " bits=" << bits
          << " q=" << q << " i=" << i;
    }
  }
}

TEST_P(KernelWidths, EveryAvailableTierMatchesReference) {
  // The full tier-cross matrix: every tier this host can run must
  // reproduce the per-pair reference exactly, and the kernel's return
  // value must equal the minimum of the distances it wrote. Ragged
  // counts (257, then tails of 1 and 3) exercise every kernel's
  // partial-vector handling.
  const int bits = GetParam();
  Rng rng(4100 + bits);
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(257, bits, &rng));
  PackedCodes query = PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const int words = db.words_per_code();

  for (const int n : {257, 3, 1}) {
    std::vector<int32_t> ref(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      ref[static_cast<size_t>(i)] =
          HammingDistance(query.code(0), db.code(i), words);
    }
    const int32_t ref_min = *std::min_element(ref.begin(), ref.end());

    for (const KernelTier tier : AvailableTiers()) {
      std::vector<int32_t> out(static_cast<size_t>(n), -1);
      const int32_t got_min = GetBatchDistanceMinFn(tier)(
          query.code(0), db.code(0), n, words, kNoThreshold, out.data());
      EXPECT_EQ(got_min, ref_min)
          << KernelTierName(tier) << " bits=" << bits << " n=" << n;
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(out[static_cast<size_t>(i)], ref[static_cast<size_t>(i)])
            << KernelTierName(tier) << " bits=" << bits << " n=" << n
            << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, KernelWidths,
    ::testing::Values(1, 7, 63, 64, 65, 127, 128, 129, 190, 192, 255, 256,
                      300, 320, 384, 448, 511, 512, 576,
                      // >= 32 words: the AVX2 Harley–Seal path
                      2048, 2113, 2560));

TEST(KernelThreshold, PrunedOutputsAreSafeLowerBounds) {
  // Early-abandon contract: below-threshold outputs are exact; outputs at
  // or above threshold are lower bounds of a true distance that is itself
  // >= threshold. Exercised on a wide code where pruning is active.
  const int bits = 2048;
  const int n = 300;
  Rng rng(31);
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  PackedCodes query = PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const int words = db.words_per_code();

  std::vector<int32_t> exact(static_cast<size_t>(n));
  BatchDistancesMinScalar(query.code(0), db.code(0), n, words, kNoThreshold,
                          exact.data());
  // Median-ish threshold so both branches fire.
  const int32_t threshold = bits / 2;
  for (BatchDistanceMinFn fn : {GetBatchDistanceMinFn(KernelTier::kScalar),
                                GetBatchDistanceMinFn()}) {
    std::vector<int32_t> pruned(static_cast<size_t>(n));
    fn(query.code(0), db.code(0), n, words, threshold, pruned.data());
    for (int i = 0; i < n; ++i) {
      const int32_t p = pruned[static_cast<size_t>(i)];
      const int32_t e = exact[static_cast<size_t>(i)];
      if (p < threshold) {
        EXPECT_EQ(p, e) << "below-threshold output must be exact, i=" << i;
      } else {
        EXPECT_LE(p, e) << "pruned output must lower-bound the distance";
        EXPECT_GE(e, threshold) << "pruned code must truly miss threshold";
      }
    }
  }
}

TEST(KernelThreshold, FusedMinIsExactLowerBoundUnderPruning) {
  // Fused-path contract that the batch scan's block skip rests on: the
  // returned minimum is min(outputs), pruned outputs lower-bound their
  // true distances, so the return is a lower bound of the true block
  // minimum — and when the true minimum beats the threshold, that code
  // is never abandoned, making the return exactly the true minimum.
  const int bits = 2048;  // wide code: pruning fires inside every kernel
  const int n = 300;
  Rng rng(33);
  PackedCodes db = PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  PackedCodes query =
      PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const int words = db.words_per_code();

  std::vector<int32_t> exact(static_cast<size_t>(n));
  BatchDistancesMinScalar(query.code(0), db.code(0), n, words, kNoThreshold,
                          exact.data());
  int32_t true_min = exact[0];
  for (int i = 1; i < n; ++i) true_min = std::min(true_min, exact[i]);

  // Sweep thresholds on both sides of the true minimum so both "exact"
  // and "lower bound only" regimes fire.
  for (const int32_t threshold :
       {true_min - 8, true_min + 1, true_min + 64, bits / 2}) {
    for (const KernelTier tier : AvailableTiers()) {
      std::vector<int32_t> out(static_cast<size_t>(n));
      const int32_t got = GetBatchDistanceMinFn(tier)(
          query.code(0), db.code(0), n, words, threshold, out.data());
      int32_t out_min = out[0];
      for (int i = 1; i < n; ++i) out_min = std::min(out_min, out[i]);
      EXPECT_EQ(got, out_min) << KernelTierName(tier) << " t=" << threshold;
      EXPECT_LE(got, true_min) << KernelTierName(tier) << " t=" << threshold;
      if (true_min < threshold) {
        EXPECT_EQ(got, true_min)
            << "qualifying minimum must be exact, "
            << KernelTierName(tier) << " t=" << threshold;
      }
    }
  }

  // Empty block: identity of min, so skips behave (INT32_MAX >= any
  // threshold).
  for (const KernelTier tier : AvailableTiers()) {
    int32_t unused = 0;
    EXPECT_EQ(GetBatchDistanceMinFn(tier)(query.code(0), db.code(0), 0, words,
                                          bits / 2, &unused),
              std::numeric_limits<int32_t>::max());
  }
}

// ------------------------------------------------------ emitting kernel

/// What one emitting call wrote: (index, distance) hits in output order.
struct Emitted {
  std::vector<int32_t> index;
  std::vector<int32_t> distance;
};

/// Runs `fn` on codes [0, n) of `db` with output buffers padded by a
/// sentinel tail, and fails if the kernel writes past its returned count.
Emitted RunEmit(BatchEmitFn fn, const PackedCodes& query,
                const PackedCodes& db, int n, int32_t row_bound,
                const int32_t* code_bounds, const std::string& label) {
  constexpr int32_t kSentinel = -7;
  constexpr int kPad = 16;
  std::vector<int32_t> index(static_cast<size_t>(n + kPad), kSentinel);
  std::vector<int32_t> distance(static_cast<size_t>(n + kPad), kSentinel);
  const int count =
      fn(query.code(0), db.code(0), n, db.words_per_code(), row_bound,
         code_bounds, index.data(), distance.data());
  EXPECT_GE(count, 0) << label;
  EXPECT_LE(count, n) << label;
  for (size_t i = static_cast<size_t>(std::max(count, 0)); i < index.size();
       ++i) {
    EXPECT_EQ(index[i], kSentinel) << label << " wrote index slot " << i;
    EXPECT_EQ(distance[i], kSentinel) << label << " wrote distance slot " << i;
  }
  index.resize(static_cast<size_t>(std::max(count, 0)));
  distance.resize(static_cast<size_t>(std::max(count, 0)));
  return {index, distance};
}

/// The emitting contract from first principles: every code whose exact
/// distance is below max(row_bound, code_bounds[i]) (row_bound alone when
/// code_bounds is null), in index order.
Emitted BruteForceEmit(const PackedCodes& query, const PackedCodes& db, int n,
                       int32_t row_bound, const int32_t* code_bounds) {
  Emitted want;
  for (int i = 0; i < n; ++i) {
    const int32_t bound = code_bounds == nullptr
                              ? row_bound
                              : std::max(row_bound, code_bounds[i]);
    const int32_t d =
        HammingDistance(query.code(0), db.code(i), db.words_per_code());
    if (d < bound) {
      want.index.push_back(i);
      want.distance.push_back(d);
    }
  }
  return want;
}

/// Every emitting tier must reproduce the scalar reference exactly —
/// indices, distances and order — and the scalar reference must follow
/// the contract, across widths (the width-specialized 1- and 2-word
/// layouts, the generic path, the pruning widths), run lengths on and off
/// the vector width, and bound patterns from "emit all" to "emit none",
/// with and without per-code bounds.
class EmitWidths : public ::testing::TestWithParam<int> {};

TEST_P(EmitWidths, EveryTierMatchesScalarReference) {
  const int words = GetParam();
  const int bits = 64 * words;
  const int max_n = 300;
  Rng rng(5200 + words);
  const PackedCodes db =
      PackedCodes::FromSignMatrix(RandomSignCodes(max_n, bits, &rng));
  const PackedCodes query =
      PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));

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
      {"row=0 codes=null", 0, nullptr},
  };
  for (const int n : {0, 1, 7, 8, 15, 16, 17, 31, 33, 257, 300}) {
    for (const Case& c : cases) {
      const std::string label = "words=" + std::to_string(words) +
                                " n=" + std::to_string(n) + " " + c.name;
      const int32_t* bounds =
          c.code_bounds == nullptr ? nullptr : c.code_bounds->data();
      const Emitted want = BruteForceEmit(query, db, n, c.row_bound, bounds);
      const Emitted ref = RunEmit(&BatchEmitScalar, query, db, n, c.row_bound,
                                  bounds, "scalar " + label);
      ASSERT_EQ(ref.index, want.index) << "scalar " << label;
      ASSERT_EQ(ref.distance, want.distance) << "scalar " << label;
      for (const KernelTier tier : AvailableTiers()) {
        const Emitted got = RunEmit(GetBatchEmitFn(tier), query, db, n,
                                    c.row_bound, bounds,
                                    std::string(KernelTierName(tier)) + " " +
                                        label);
        ASSERT_EQ(got.index, ref.index) << KernelTierName(tier) << " " << label;
        ASSERT_EQ(got.distance, ref.distance)
            << KernelTierName(tier) << " " << label;
      }
      // Bound patterns whose outcome is known outright.
      if (c.name == "row=max codes=0" || c.name == "row=0 codes=max" ||
          c.name == "row=0 codes=tie+1") {
        EXPECT_EQ(static_cast<int>(ref.index.size()), n) << label;
      }
      if (c.name == "row=0 codes=0" || c.name == "row=0 codes=tie" ||
          c.name == "row=0 codes=null") {
        EXPECT_TRUE(ref.index.empty()) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, EmitWidths,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 33));

TEST(KernelDispatch, TierNamesAndExplicitLookup) {
  EXPECT_STREQ(KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx2), "avx2");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx512), "avx512");
  EXPECT_EQ(GetBatchDistanceMinFn(KernelTier::kScalar),
            &BatchDistancesMinScalar);
  EXPECT_EQ(GetBatchEmitFn(KernelTier::kScalar), &BatchEmitScalar);
  EXPECT_TRUE(KernelTierAvailable(KernelTier::kScalar));
  // Graded fallback: asking for a tier the host lacks returns the next
  // tier down, never a crash and never a scalar jump past an available
  // middle tier.
  if (!Avx2Available()) {
    EXPECT_EQ(GetBatchDistanceMinFn(KernelTier::kAvx2),
              &BatchDistancesMinScalar);
    EXPECT_EQ(ActiveKernelTier(), KernelTier::kScalar);
  }
  if (!Avx512Available()) {
    EXPECT_EQ(GetBatchDistanceMinFn(KernelTier::kAvx512),
              GetBatchDistanceMinFn(KernelTier::kAvx2));
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

/// TopKBatch must reproduce per-query TopK exactly — ids, distances, and
/// tie-break order — across widths, k values, and block boundaries.
class BatchTopKConfigs
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BatchTopKConfigs, MatchesPerQueryTopKByteForByte) {
  const auto [n, bits, k] = GetParam();
  Rng rng(7000 + n + bits + k);
  LinearScanIndex scan(
      PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng)));
  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(9, bits, &rng));

  const auto batched = scan.TopKBatch(queries, k);
  ASSERT_EQ(batched.size(), 9u);
  for (int q = 0; q < queries.size(); ++q) {
    const auto expect = scan.TopK(queries.code(q), k);
    const auto& got = batched[static_cast<size_t>(q)];
    ASSERT_EQ(got.size(), expect.size()) << "q=" << q;
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].id, expect[i].id) << "q=" << q << " rank=" << i;
      EXPECT_EQ(got[i].distance, expect[i].distance)
          << "q=" << q << " rank=" << i;
    }
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
  // keeps the early-abandon threshold armed for most blocks.
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
  // Tombstones and the block-min skip compose: dead rows are still
  // scored by the kernel (the block stays contiguous) and can therefore
  // dominate a block's minimum, but must never enter a heap or corrupt
  // the early-abandon threshold. Wide codes (1024 bits = 16 words) take
  // the kernels' wide accumulation path, and each query's exact
  // duplicate is planted in the corpus *dead* — the strongest possible
  // block minimum that must still be skipped over.
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
    options.code_block = 96;  // several blocks, so min-skips can fire
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
