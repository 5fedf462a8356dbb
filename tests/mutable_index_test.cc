// Mutability contract of the index layer: LinearScanIndex (the shard
// type serve::ShardedIndex composes), tombstone semantics of every scan
// path, and the byte-identity invariant — results over the survivors
// equal a fresh build without the removed rows (after compacting ids by
// survivor rank). Also the frozen MultiIndexHashTable radius index
// against the linear scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "index/batch_scan.h"
#include "index/linear_scan.h"
#include "index/multi_index_hash.h"
#include "index/neighbor.h"
#include "index/packed_codes.h"
#include "index/shard_index.h"
#include "test_util.h"

namespace uhscm::index {
namespace {

using linalg::Matrix;
using uhscm::testing::RandomSignCodes;

/// Extracts the submatrix of `m` whose rows are NOT in `removed`.
Matrix SurvivorRows(const Matrix& m, const std::vector<int>& removed) {
  std::vector<bool> dead(static_cast<size_t>(m.rows()), false);
  for (int id : removed) dead[static_cast<size_t>(id)] = true;
  int live = 0;
  for (int i = 0; i < m.rows(); ++i) live += dead[static_cast<size_t>(i)] ? 0 : 1;
  Matrix out(live, m.cols());
  int row = 0;
  for (int i = 0; i < m.rows(); ++i) {
    if (dead[static_cast<size_t>(i)]) continue;
    for (int c = 0; c < m.cols(); ++c) out(row, c) = m(i, c);
    ++row;
  }
  return out;
}

/// Maps a stable id in a mutated index to its rank among survivors —
/// the id the same row has in a compacted rebuild.
int SurvivorRank(int id, const std::vector<int>& removed) {
  int rank = id;
  for (int dead : removed) {
    EXPECT_NE(dead, id);
    if (dead < id) --rank;
  }
  return rank;
}

void ExpectCompactedMatch(const std::vector<Neighbor>& rebuilt,
                          const std::vector<Neighbor>& mutated,
                          const std::vector<int>& removed) {
  ASSERT_EQ(rebuilt.size(), mutated.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].id, SurvivorRank(mutated[i].id, removed))
        << "rank " << i;
    EXPECT_EQ(rebuilt[i].distance, mutated[i].distance) << "rank " << i;
  }
}

TEST(TombstoneSetTest, SetTestAndCounts) {
  TombstoneSet set;
  set.Resize(70);
  EXPECT_EQ(set.size(), 70);
  EXPECT_EQ(set.dead_count(), 0);
  EXPECT_FALSE(set.any());
  EXPECT_TRUE(set.Set(0));
  EXPECT_TRUE(set.Set(69));
  EXPECT_FALSE(set.Set(69)) << "second removal of the same row";
  EXPECT_EQ(set.dead_count(), 2);
  EXPECT_TRUE(set.Test(0));
  EXPECT_TRUE(set.Test(69));
  EXPECT_FALSE(set.Test(1));
  // Growing keeps existing tombstones and adds live rows.
  set.Resize(130);
  EXPECT_EQ(set.size(), 130);
  EXPECT_EQ(set.dead_count(), 2);
  EXPECT_TRUE(set.Test(69));
  EXPECT_FALSE(set.Test(129));
}

TEST(TombstoneSetTest, FromWordsRoundTrip) {
  TombstoneSet set;
  set.Resize(100);
  set.Set(3);
  set.Set(64);
  set.Set(99);
  TombstoneSet restored = TombstoneSet::FromWords(100, set.words());
  EXPECT_EQ(restored.size(), 100);
  EXPECT_EQ(restored.dead_count(), 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(restored.Test(i), set.Test(i));
  // Stray bits beyond the row count are dropped.
  std::vector<uint64_t> noisy = set.words();
  noisy.back() |= ~((1ULL << (100 & 63)) - 1);
  TombstoneSet trimmed = TombstoneSet::FromWords(100, noisy);
  EXPECT_EQ(trimmed.dead_count(), 3);
}

TEST(PackedCodesTest, AppendConcatenatesRows) {
  Rng rng(11);
  Matrix a = RandomSignCodes(5, 96, &rng);
  Matrix b = RandomSignCodes(3, 96, &rng);
  PackedCodes packed = PackedCodes::FromSignMatrix(a);
  packed.Append(PackedCodes::FromSignMatrix(b));
  EXPECT_EQ(packed.size(), 8);
  EXPECT_EQ(packed.bits(), 96);
  for (int i = 0; i < 5; ++i) {
    const std::vector<float> row = packed.Unpack(i);
    for (int c = 0; c < 96; ++c) EXPECT_EQ(row[static_cast<size_t>(c)], a(i, c));
  }
  for (int i = 0; i < 3; ++i) {
    const std::vector<float> row = packed.Unpack(5 + i);
    for (int c = 0; c < 96; ++c) EXPECT_EQ(row[static_cast<size_t>(c)], b(i, c));
  }
  // An empty receiver adopts the appended codes wholesale.
  PackedCodes empty;
  empty.Append(PackedCodes::FromSignMatrix(b));
  EXPECT_EQ(empty.size(), 3);
  EXPECT_EQ(empty.bits(), 96);
}

TEST(LinearScanMutableTest, AppendedRowsAreSearchable) {
  Rng rng(21);
  const int bits = 64, k = 8;
  Matrix base = RandomSignCodes(120, bits, &rng);
  Matrix extra = RandomSignCodes(40, bits, &rng);
  Matrix all(160, bits);
  for (int i = 0; i < 120; ++i)
    for (int c = 0; c < bits; ++c) all(i, c) = base(i, c);
  for (int i = 0; i < 40; ++i)
    for (int c = 0; c < bits; ++c) all(120 + i, c) = extra(i, c);

  LinearScanIndex index(PackedCodes::FromSignMatrix(base));
  index.Append(PackedCodes::FromSignMatrix(extra));
  EXPECT_EQ(index.size(), 160);
  EXPECT_EQ(index.total_size(), 160);

  LinearScanIndex truth(PackedCodes::FromSignMatrix(all));
  for (int q = 0; q < 10; ++q) {
    PackedCodes pq =
        PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
    const auto expect = truth.TopK(pq.code(0), k);
    const auto got = index.TopK(pq.code(0), k);
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(expect[i].id, got[i].id);
      EXPECT_EQ(expect[i].distance, got[i].distance);
    }
  }
}

TEST(LinearScanMutableTest, RemovedRowsNeverSurface) {
  Rng rng(22);
  const int n = 150, bits = 64, k = 12;
  Matrix db = RandomSignCodes(n, bits, &rng);
  LinearScanIndex index(PackedCodes::FromSignMatrix(db));

  std::vector<int> removed = {0, 7, 64, 65, 149};
  for (int id : removed) EXPECT_TRUE(index.Remove(id));
  EXPECT_FALSE(index.Remove(7)) << "double removal";
  EXPECT_FALSE(index.Remove(-1));
  EXPECT_FALSE(index.Remove(n));
  EXPECT_EQ(index.size(), n - 5);
  EXPECT_EQ(index.total_size(), n);

  LinearScanIndex truth(PackedCodes::FromSignMatrix(SurvivorRows(db, removed)));
  for (int q = 0; q < 10; ++q) {
    PackedCodes pq =
        PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
    ExpectCompactedMatch(truth.TopK(pq.code(0), k),
                         index.TopK(pq.code(0), k), removed);
  }
}

TEST(LinearScanMutableTest, TopKBatchMatchesTopKAfterMutations) {
  Rng rng(23);
  const int bits = 128, k = 9;
  LinearScanIndex index(
      PackedCodes::FromSignMatrix(RandomSignCodes(200, bits, &rng)));
  index.Append(PackedCodes::FromSignMatrix(RandomSignCodes(60, bits, &rng)));
  for (int id : {3, 130, 201, 259}) EXPECT_TRUE(index.Remove(id));

  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(17, bits, &rng));
  std::vector<const uint64_t*> qptrs;
  for (int q = 0; q < queries.size(); ++q) qptrs.push_back(queries.code(q));
  const auto batched =
      index.TopKBatch(qptrs.data(), static_cast<int>(qptrs.size()), k);
  ASSERT_EQ(batched.size(), qptrs.size());
  for (int q = 0; q < queries.size(); ++q) {
    const auto expect = index.TopK(queries.code(q), k);
    const auto& got = batched[static_cast<size_t>(q)];
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(expect[i].id, got[i].id);
      EXPECT_EQ(expect[i].distance, got[i].distance);
    }
  }
}

TEST(LinearScanMutableTest, KLargerThanLiveCountReturnsAllSurvivors) {
  Rng rng(24);
  const int n = 40, bits = 32;
  LinearScanIndex index(
      PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng)));
  for (int id = 0; id < 10; ++id) EXPECT_TRUE(index.Remove(id));
  PackedCodes pq = PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const auto got = index.TopK(pq.code(0), 1000);
  EXPECT_EQ(got.size(), 30u);
  for (const Neighbor& nb : got) EXPECT_GE(nb.id, 10);
}

TEST(LinearScanMutableTest, CompactDropsDeadRowsOnly) {
  Rng rng(25);
  const int bits = 64, k = 10;
  LinearScanIndex index(
      PackedCodes::FromSignMatrix(RandomSignCodes(130, bits, &rng)));
  index.Append(PackedCodes::FromSignMatrix(RandomSignCodes(40, bits, &rng)));
  std::vector<int> removed = {0, 63, 64, 129, 130, 169};
  for (int id : removed) ASSERT_TRUE(index.Remove(id));

  const LinearScanIndex compacted = index.Compact();
  EXPECT_EQ(compacted.size(), 164);
  EXPECT_EQ(compacted.total_size(), 164) << "no dead rows after compaction";
  EXPECT_FALSE(compacted.tombstones().any());

  // The compacted index's local ids are survivor ranks, so its results
  // must equal the tombstoned index's results after the rank remap —
  // and the original index must be untouched (Compact is const).
  EXPECT_EQ(index.size(), 164);
  EXPECT_EQ(index.total_size(), 170);
  for (int q = 0; q < 10; ++q) {
    PackedCodes pq =
        PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
    ExpectCompactedMatch(compacted.TopK(pq.code(0), k),
                         index.TopK(pq.code(0), k), removed);
  }
}

TEST(LinearScanMutableTest, CompactOfCleanIndexIsIdentity) {
  Rng rng(26);
  const int bits = 64, k = 7;
  LinearScanIndex index(
      PackedCodes::FromSignMatrix(RandomSignCodes(80, bits, &rng)));
  const LinearScanIndex compacted = index.Compact();
  EXPECT_EQ(compacted.total_size(), 80);
  for (int q = 0; q < 5; ++q) {
    PackedCodes pq =
        PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
    const auto expect = index.TopK(pq.code(0), k);
    const auto got = compacted.TopK(pq.code(0), k);
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(expect[i].id, got[i].id);
      EXPECT_EQ(expect[i].distance, got[i].distance);
    }
  }
}

TEST(LinearScanMutableTest, RandomizedAppendRemoveCompactStaysExact) {
  // Randomized interleaving of Append / Remove / Compact / Search: after
  // every compaction (and at every checkpoint) results must be
  // byte-identical to a fresh LinearScan rebuild of the survivors. The
  // reference tracks each current local id's packed words and live flag;
  // Compact() renumbers locals by survivor rank, so the reference
  // compacts the same way.
  Rng rng(27);
  const int bits = 64, k = 8;
  const int words_per_code = (bits + 63) / 64;
  PackedCodes base = PackedCodes::FromSignMatrix(RandomSignCodes(60, bits, &rng));
  std::vector<std::vector<uint64_t>> rows;  // indexed by current local id
  std::vector<bool> live;
  for (int i = 0; i < base.size(); ++i) {
    rows.emplace_back(base.code(i), base.code(i) + words_per_code);
    live.push_back(true);
  }
  LinearScanIndex index(std::move(base));

  auto live_count = [&] {
    int count = 0;
    for (bool alive : live) count += alive ? 1 : 0;
    return count;
  };
  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(8, bits, &rng));

  for (int step = 0; step < 80; ++step) {
    const uint64_t op = rng.UniformInt(10);
    if (op < 4) {
      const int count = 1 + static_cast<int>(rng.UniformInt(5));
      PackedCodes batch =
          PackedCodes::FromSignMatrix(RandomSignCodes(count, bits, &rng));
      index.Append(batch);
      for (int i = 0; i < count; ++i) {
        rows.emplace_back(batch.code(i), batch.code(i) + words_per_code);
        live.push_back(true);
      }
    } else if (op < 8 && live_count() > 10) {
      int id;
      do {
        id = static_cast<int>(rng.UniformInt(rows.size()));
      } while (!live[static_cast<size_t>(id)]);
      ASSERT_TRUE(index.Remove(id));
      live[static_cast<size_t>(id)] = false;
    } else {
      index = index.Compact();
      std::vector<std::vector<uint64_t>> survivor_rows;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (live[i]) survivor_rows.push_back(std::move(rows[i]));
      }
      rows = std::move(survivor_rows);
      live.assign(rows.size(), true);
      ASSERT_EQ(index.total_size(), static_cast<int>(rows.size()));
    }

    // Checkpoint: byte-identity with a fresh rebuild over survivors.
    std::vector<uint64_t> survivor_words;
    std::vector<int> rank_of_id(rows.size(), -1);
    int rank = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!live[i]) continue;
      survivor_words.insert(survivor_words.end(), rows[i].begin(),
                            rows[i].end());
      rank_of_id[i] = rank++;
    }
    LinearScanIndex truth(
        PackedCodes::FromRawWords(rank, bits, std::move(survivor_words)));
    ASSERT_EQ(index.size(), rank) << "step " << step;
    for (int q = 0; q < queries.size(); ++q) {
      const auto expect = truth.TopK(queries.code(q), k);
      const auto got = index.TopK(queries.code(q), k);
      ASSERT_EQ(expect.size(), got.size()) << "step " << step;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(expect[i].id, rank_of_id[static_cast<size_t>(got[i].id)])
            << "step " << step << " query " << q << " rank " << i;
        ASSERT_EQ(expect[i].distance, got[i].distance);
      }
    }
  }
}

TEST(LinearScanMutableTest, WithinRadiusSkipsTombstonedRows) {
  Rng rng(31);
  const int n = 100, bits = 64;
  const PackedCodes db =
      PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  LinearScanIndex scan(
      PackedCodes::FromRawWords(db.size(), db.bits(), db.words()));
  std::vector<int> removed = {2, 50, 99};
  for (int id : removed) EXPECT_TRUE(scan.Remove(id));
  for (int q = 0; q < 8; ++q) {
    PackedCodes pq =
        PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
    for (int r : {0, 8, 24, 64}) {
      // Brute force: every live row within r, ascending id.
      std::vector<Neighbor> expect;
      for (int i = 0; i < n; ++i) {
        if (std::find(removed.begin(), removed.end(), i) != removed.end()) {
          continue;
        }
        const int d =
            HammingDistance(pq.code(0), db.code(i), db.words_per_code());
        if (d <= r) expect.push_back({i, d});
      }
      const auto got = scan.WithinRadius(pq.code(0), r);
      ASSERT_EQ(expect.size(), got.size()) << "r=" << r;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(expect[i].id, got[i].id) << "r=" << r;
        EXPECT_EQ(expect[i].distance, got[i].distance) << "r=" << r;
      }
    }
  }
}

TEST(BatchScanTombstoneTest, WideCodesKernelPruneRespectsTombstones) {
  // 1024-bit codes (16 words) take the kernels' blocked wide path, whose
  // fused block minimum skips blocks with no hit; tombstoned rows must
  // not surface even when that path scored them.
  Rng rng(32);
  const int n = 300, bits = 1024, k = 10;
  Matrix db = RandomSignCodes(n, bits, &rng);
  LinearScanIndex index(PackedCodes::FromSignMatrix(db));
  std::vector<int> removed;
  for (int id = 0; id < n; id += 7) {
    removed.push_back(id);
    ASSERT_TRUE(index.Remove(id));
  }
  LinearScanIndex truth(
      PackedCodes::FromSignMatrix(SurvivorRows(db, removed)));

  PackedCodes queries =
      PackedCodes::FromSignMatrix(RandomSignCodes(9, bits, &rng));
  const auto batched = index.TopKBatch(queries, k);
  for (int q = 0; q < queries.size(); ++q) {
    ExpectCompactedMatch(truth.TopK(queries.code(q), k),
                         batched[static_cast<size_t>(q)], removed);
  }
}

/// The frozen MIH radius index must return exactly what the linear scan
/// returns — ids, distances and order — across code widths, substring
/// counts (0 = auto, which picks counts that do not divide the width at
/// this corpus size) and radii from negative (nothing matches) through
/// the enumeration regime to the whole space (the scan-everything
/// fallback).
class FrozenMihRadius
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FrozenMihRadius, MatchesLinearScanWithinRadius) {
  const auto [bits, substrings] = GetParam();
  Rng rng(500 + bits + substrings);
  const int n = 1000;
  const PackedCodes db =
      PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  const LinearScanIndex scan(
      PackedCodes::FromRawWords(db.size(), db.bits(), db.words()));
  const MultiIndexHashTable mih(
      PackedCodes::FromRawWords(db.size(), db.bits(), db.words()),
      substrings);
  if (substrings > 0) EXPECT_EQ(mih.num_substrings(), substrings);

  for (int q = 0; q < 10; ++q) {
    // A database row with a few bits flipped, so small radii find hits.
    std::vector<uint64_t> query(db.code(q * 97),
                                db.code(q * 97) + db.words_per_code());
    for (int f = 0; f < q; ++f) {
      const int bit = static_cast<int>(rng.UniformInt(bits));
      query[static_cast<size_t>(bit / 64)] ^= 1ULL << (bit % 64);
    }
    for (const int r : {-5, -1, 0, 1, 2, 5, bits / 4, bits}) {
      const auto expect = scan.WithinRadius(query.data(), r);
      const auto got = mih.WithinRadius(query.data(), r);
      ASSERT_EQ(expect.size(), got.size())
          << "bits=" << bits << " s=" << mih.num_substrings() << " r=" << r;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].id, got[i].id) << "r=" << r << " i=" << i;
        EXPECT_EQ(expect[i].distance, got[i].distance)
            << "r=" << r << " i=" << i;
      }
      if (r < 0) EXPECT_TRUE(got.empty()) << "r=" << r;
    }
  }
}

// Every width x substring count, except 128 bits over 2 substrings: a
// 64-bit substring exceeds the table's 63-bit key limit.
INSTANTIATE_TEST_SUITE_P(
    WidthsAndSubstrings, FrozenMihRadius,
    ::testing::Values(std::make_tuple(32, 0), std::make_tuple(32, 2),
                      std::make_tuple(32, 4), std::make_tuple(64, 0),
                      std::make_tuple(64, 2), std::make_tuple(64, 4),
                      std::make_tuple(96, 0), std::make_tuple(96, 2),
                      std::make_tuple(96, 4), std::make_tuple(128, 0),
                      std::make_tuple(128, 4)));

TEST(NeighborHelpersTest, RemapRewritesIdsOnly) {
  std::vector<Neighbor> list = {{0, 1}, {3, 2}, {5, 2}};
  RemapNeighborIds(&list, [](int id) { return id + 100; });
  EXPECT_EQ(list[0].id, 100);
  EXPECT_EQ(list[1].id, 103);
  EXPECT_EQ(list[2].id, 105);
  EXPECT_EQ(list[0].distance, 1) << "distances untouched";
  EXPECT_TRUE(NeighborLess({1, 1}, {2, 1}));
  EXPECT_TRUE(NeighborLess({9, 1}, {2, 5}));
  EXPECT_FALSE(NeighborLess({2, 1}, {2, 1}));
}

}  // namespace
}  // namespace uhscm::index
