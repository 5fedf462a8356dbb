#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "index/linear_scan.h"
#include "index/multi_index_hash.h"
#include "index/packed_codes.h"
#include "linalg/ops.h"

namespace uhscm::index {
namespace {

using linalg::Matrix;

/// Random {-1,+1} code matrix.
Matrix RandomCodes(int n, int bits, Rng* rng) {
  Matrix m(n, bits);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Bernoulli(0.5) ? 1.0f : -1.0f;
  }
  return m;
}

/// Reference Hamming distance on float codes.
int FloatHamming(const float* a, const float* b, int bits) {
  int d = 0;
  for (int i = 0; i < bits; ++i) {
    if ((a[i] > 0) != (b[i] > 0)) ++d;
  }
  return d;
}

class PackedCodesWidths : public ::testing::TestWithParam<int> {};

TEST_P(PackedCodesWidths, PackUnpackRoundTrip) {
  const int bits = GetParam();
  Rng rng(42 + bits);
  Matrix codes = RandomCodes(10, bits, &rng);
  PackedCodes packed = PackedCodes::FromSignMatrix(codes);
  EXPECT_EQ(packed.size(), 10);
  EXPECT_EQ(packed.bits(), bits);
  EXPECT_EQ(packed.words_per_code(), (bits + 63) / 64);
  for (int i = 0; i < 10; ++i) {
    const std::vector<float> row = packed.Unpack(i);
    for (int b = 0; b < bits; ++b) {
      EXPECT_EQ(row[static_cast<size_t>(b)], codes(i, b));
    }
  }
}

TEST_P(PackedCodesWidths, DistanceMatchesFloatReference) {
  const int bits = GetParam();
  Rng rng(77 + bits);
  Matrix codes = RandomCodes(20, bits, &rng);
  PackedCodes packed = PackedCodes::FromSignMatrix(codes);
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      EXPECT_EQ(packed.Distance(i, j),
                FloatHamming(codes.Row(i), codes.Row(j), bits));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedCodesWidths,
                         ::testing::Values(8, 32, 64, 96, 128));

TEST(PackedCodesTest, HammingIdentityAndSymmetry) {
  Rng rng(3);
  Matrix codes = RandomCodes(15, 64, &rng);
  PackedCodes packed = PackedCodes::FromSignMatrix(codes);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(packed.Distance(i, i), 0);
    for (int j = 0; j < 15; ++j) {
      EXPECT_EQ(packed.Distance(i, j), packed.Distance(j, i));
    }
  }
}

TEST(LinearScanTest, TopKOrderingAndTieBreaks) {
  // Database: codes at known distances from an all-ones query.
  Matrix db(4, 8, 1.0f);
  db(1, 0) = -1.0f;                  // distance 1
  db(2, 0) = db(2, 1) = -1.0f;       // distance 2
  db(3, 0) = -1.0f;                  // distance 1 (tie with id 1)
  PackedCodes packed = PackedCodes::FromSignMatrix(db);
  LinearScanIndex scan(packed);

  Matrix query(1, 8, 1.0f);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  const std::vector<Neighbor> top = scan.TopK(pq.code(0), 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].id, 0);
  EXPECT_EQ(top[0].distance, 0);
  EXPECT_EQ(top[1].id, 1);  // tie broken by id
  EXPECT_EQ(top[2].id, 3);
  EXPECT_EQ(top[3].id, 2);
}

TEST(LinearScanTest, TopKClampsToDatabaseSize) {
  Rng rng(5);
  Matrix db = RandomCodes(6, 32, &rng);
  LinearScanIndex scan(PackedCodes::FromSignMatrix(db));
  Matrix query = RandomCodes(1, 32, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  EXPECT_EQ(scan.TopK(pq.code(0), 100).size(), 6u);
  EXPECT_TRUE(scan.TopK(pq.code(0), 0).empty());
}

TEST(LinearScanTest, AllDistancesMatchesTopK) {
  Rng rng(7);
  Matrix db = RandomCodes(30, 64, &rng);
  LinearScanIndex scan(PackedCodes::FromSignMatrix(db));
  Matrix query = RandomCodes(1, 64, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  const std::vector<int> dist = scan.AllDistances(pq.code(0));
  const std::vector<Neighbor> top = scan.TopK(pq.code(0), 30);
  for (const Neighbor& nb : top) {
    EXPECT_EQ(dist[static_cast<size_t>(nb.id)], nb.distance);
  }
  // Sorted by distance.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].distance, top[i].distance);
  }
}

class MihRadiusSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MihRadiusSweep, MatchesLinearScanExactly) {
  const auto [bits, substrings, radius] = GetParam();
  Rng rng(100 + bits + substrings + radius);
  Matrix db = RandomCodes(200, bits, &rng);
  PackedCodes packed_a = PackedCodes::FromSignMatrix(db);
  PackedCodes packed_b = PackedCodes::FromSignMatrix(db);
  LinearScanIndex scan(std::move(packed_a));
  MultiIndexHashTable mih(std::move(packed_b), substrings);

  for (int q = 0; q < 10; ++q) {
    Matrix query = RandomCodes(1, bits, &rng);
    PackedCodes pq = PackedCodes::FromSignMatrix(query);
    std::vector<Neighbor> expect = scan.WithinRadius(pq.code(0), radius);
    std::vector<Neighbor> got = mih.WithinRadius(pq.code(0), radius);
    ASSERT_EQ(expect.size(), got.size())
        << "bits=" << bits << " s=" << substrings << " r=" << radius;
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i].id, got[i].id);
      EXPECT_EQ(expect[i].distance, got[i].distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MihRadiusSweep,
    ::testing::Values(std::make_tuple(32, 4, 0), std::make_tuple(32, 4, 3),
                      std::make_tuple(64, 4, 8), std::make_tuple(64, 8, 5),
                      std::make_tuple(96, 6, 10),
                      std::make_tuple(128, 8, 12),
                      std::make_tuple(64, 0, 6)));  // auto substrings

TEST(MihTest, LargeRadiusFallbackStillExact) {
  Rng rng(321);
  Matrix db = RandomCodes(80, 32, &rng);
  LinearScanIndex scan(PackedCodes::FromSignMatrix(db));
  MultiIndexHashTable mih(PackedCodes::FromSignMatrix(db), 2);
  Matrix query = RandomCodes(1, 32, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  // Radius near bits: candidate enumeration must fall back to scanning.
  const auto expect = scan.WithinRadius(pq.code(0), 30);
  const auto got = mih.WithinRadius(pq.code(0), 30);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].id, got[i].id);
  }
}

TEST(MihTest, BitsNotDivisibleByChunkCount) {
  // 70 bits over 3 substrings: balanced widths 23/23/24 (boundaries at
  // s·70/3) — the uneven split must still produce exact results.
  Rng rng(55);
  Matrix db = RandomCodes(150, 70, &rng);
  LinearScanIndex scan(PackedCodes::FromSignMatrix(db));
  MultiIndexHashTable mih(PackedCodes::FromSignMatrix(db), 3);
  EXPECT_EQ(mih.num_substrings(), 3);
  EXPECT_EQ(mih.substring_width(0), 23);
  EXPECT_EQ(mih.substring_width(1), 23);
  EXPECT_EQ(mih.substring_width(2), 24);
  for (int q = 0; q < 8; ++q) {
    Matrix query = RandomCodes(1, 70, &rng);
    PackedCodes pq = PackedCodes::FromSignMatrix(query);
    for (int r : {0, 2, 5, 9}) {
      const auto expect = scan.WithinRadius(pq.code(0), r);
      const auto got = mih.WithinRadius(pq.code(0), r);
      ASSERT_EQ(expect.size(), got.size()) << "r=" << r;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].id, got[i].id);
        EXPECT_EQ(expect[i].distance, got[i].distance);
      }
    }
  }
}

TEST(MihTest, WideSubstringTableStaysLinearInRows) {
  // One 24-bit substring over 150 rows: a directory indexed by the whole
  // substring would hold 2^24 + 1 offsets. Keyed by its top
  // ceil(log2 150) + 1 = 9 bits it holds 2^9 + 1 <= 4·150 + 1, and radius
  // queries stay exact.
  Rng rng(59);
  Matrix db = RandomCodes(150, 24, &rng);
  LinearScanIndex scan(PackedCodes::FromSignMatrix(db));
  MultiIndexHashTable mih(PackedCodes::FromSignMatrix(db), 1);
  ASSERT_EQ(mih.num_substrings(), 1);
  EXPECT_EQ(mih.substring_width(0), 24);
  EXPECT_EQ(mih.directory_size(0), (size_t{1} << 9) + 1);
  EXPECT_LE(mih.directory_size(0), 4u * 150u + 1u);
  for (int q = 0; q < 8; ++q) {
    Matrix query = RandomCodes(1, 24, &rng);
    PackedCodes pq = PackedCodes::FromSignMatrix(query);
    for (int r : {0, 3, 6}) {
      const auto expect = scan.WithinRadius(pq.code(0), r);
      const auto got = mih.WithinRadius(pq.code(0), r);
      ASSERT_EQ(expect.size(), got.size()) << "r=" << r;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].id, got[i].id);
        EXPECT_EQ(expect[i].distance, got[i].distance);
      }
    }
  }
}

TEST(MihTest, NeighborsAtThePigeonholeBoundaryAreFound) {
  // Each query is a database row with floor(r/S) bits flipped in every
  // substring and r mod S more spread over the first substrings: at
  // distance exactly r, no substring matches better than the sub-radius,
  // so only probing every bucket within floor(r/S) finds the row. The
  // flips sit in each substring's top bits, which form the directory key
  // when the substring is wider than the key.
  for (const auto& [bits, substrings, radius] :
       {std::tuple{64, 4, 8}, std::tuple{70, 3, 10}, std::tuple{128, 8, 19}}) {
    Rng rng(61 + bits);
    Matrix db = RandomCodes(200, bits, &rng);
    LinearScanIndex scan(PackedCodes::FromSignMatrix(db));
    MultiIndexHashTable mih(PackedCodes::FromSignMatrix(db), substrings);
    const PackedCodes packed = PackedCodes::FromSignMatrix(db);
    for (int row = 0; row < 200; row += 23) {
      std::vector<uint64_t> query(packed.code(row),
                                  packed.code(row) + packed.words_per_code());
      for (int s = 0; s < substrings; ++s) {
        const int end = (s + 1) * bits / substrings;
        const int flips = radius / substrings + (s < radius % substrings);
        for (int f = 0; f < flips; ++f) {
          const int bit = end - 1 - f;
          query[static_cast<size_t>(bit / 64)] ^= 1ULL << (bit % 64);
        }
      }
      const auto expect = scan.WithinRadius(query.data(), radius);
      const auto got = mih.WithinRadius(query.data(), radius);
      ASSERT_EQ(expect.size(), got.size()) << "bits=" << bits << " row=" << row;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].id, got[i].id);
        EXPECT_EQ(expect[i].distance, got[i].distance);
      }
      EXPECT_TRUE(std::any_of(got.begin(), got.end(), [&](const Neighbor& nb) {
        return nb.id == row && nb.distance == radius;
      })) << "bits=" << bits << " row=" << row;
    }
  }
}

TEST(MihTest, TombstonedRowsAreNeverReturned) {
  Rng rng(60);
  Matrix db = RandomCodes(300, 64, &rng);
  TombstoneSet dead;
  dead.Resize(300);
  for (int i = 0; i < 300; i += 7) dead.Set(i);
  LinearScanIndex scan(PackedCodes::FromSignMatrix(db));
  MultiIndexHashTable mih(PackedCodes::FromSignMatrix(db), 4, &dead);
  for (int q = 0; q < 300; q += 37) {
    PackedCodes pq = PackedCodes::FromSignMatrix(db.SelectRows({q}));
    for (int r : {0, 6, 20}) {
      std::vector<Neighbor> expect;
      for (const Neighbor& nb : scan.WithinRadius(pq.code(0), r)) {
        if (!dead.Test(nb.id)) expect.push_back(nb);
      }
      const auto got = mih.WithinRadius(pq.code(0), r);
      ASSERT_EQ(expect.size(), got.size()) << "q=" << q << " r=" << r;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].id, got[i].id);
        EXPECT_EQ(expect[i].distance, got[i].distance);
      }
    }
  }
}

TEST(MihTest, SubstringCountExceedingBitsIsClamped) {
  Rng rng(56);
  Matrix db = RandomCodes(40, 8, &rng);
  LinearScanIndex scan(PackedCodes::FromSignMatrix(db));
  MultiIndexHashTable mih(PackedCodes::FromSignMatrix(db), 32);
  EXPECT_LE(mih.num_substrings(), 8);
  Matrix query = RandomCodes(1, 8, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  const auto expect = scan.WithinRadius(pq.code(0), 3);
  const auto got = mih.WithinRadius(pq.code(0), 3);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].id, got[i].id);
  }
}

TEST(MihTest, EmptyIndexReturnsNoHits) {
  Matrix empty(0, 32);
  MultiIndexHashTable mih(PackedCodes::FromSignMatrix(empty), 4);
  Rng rng(57);
  Matrix query = RandomCodes(1, 32, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  EXPECT_TRUE(mih.WithinRadius(pq.code(0), 0).empty());
  EXPECT_TRUE(mih.WithinRadius(pq.code(0), 10).empty());
}

TEST(MihTest, RadiusBeyondBitsReturnsEntireCorpus) {
  // The radius analog of "k larger than the corpus": every code
  // qualifies, in ascending id order.
  Rng rng(58);
  Matrix db = RandomCodes(60, 32, &rng);
  MultiIndexHashTable mih(PackedCodes::FromSignMatrix(db), 4);
  Matrix query = RandomCodes(1, 32, &rng);
  PackedCodes pq = PackedCodes::FromSignMatrix(query);
  const auto got = mih.WithinRadius(pq.code(0), 32);
  ASSERT_EQ(got.size(), 60u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, static_cast<int>(i));
  }
}

TEST(MihTest, AutoSubstringConfigIsSane) {
  Rng rng(11);
  Matrix db = RandomCodes(500, 64, &rng);
  MultiIndexHashTable mih(PackedCodes::FromSignMatrix(db), 0);
  EXPECT_GE(mih.num_substrings(), 1);
  EXPECT_LE(mih.num_substrings(), 8);
}

}  // namespace
}  // namespace uhscm::index
