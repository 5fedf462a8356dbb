#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"

namespace uhscm::linalg {
namespace {

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0f);
  }
}

TEST(MatrixTest, FromRowMajorLaysOutRows) {
  Matrix m = Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m(0, 0), 1.0f);
  EXPECT_EQ(m(0, 2), 3.0f);
  EXPECT_EQ(m(1, 0), 4.0f);
  EXPECT_EQ(m(1, 2), 6.0f);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(3);
  Matrix m = Matrix::RandomNormal(5, 7, &rng);
  Matrix tt = m.Transposed().Transposed();
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 7; ++c) EXPECT_EQ(m(r, c), tt(r, c));
  }
}

TEST(MatrixTest, SelectRowsGathers) {
  Matrix m = Matrix::FromRowMajor(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix s = m.SelectRows({2, 0});
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s(0, 0), 5.0f);
  EXPECT_EQ(s(1, 1), 2.0f);
}

TEST(MatrixTest, RowAndColVector) {
  Matrix m = Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.RowVector(1), (std::vector<float>{4, 5, 6}));
  EXPECT_EQ(m.ColVector(2), (std::vector<float>{3, 6}));
}

TEST(MatrixTest, SetRowWrites) {
  Matrix m(2, 2);
  m.SetRow(1, {7, 8});
  EXPECT_EQ(m(1, 0), 7.0f);
  EXPECT_EQ(m(1, 1), 8.0f);
}

TEST(MatrixTest, ArithmeticInPlace) {
  Matrix a = Matrix::FromRowMajor(2, 2, {1, 2, 3, 4});
  Matrix b = Matrix::FromRowMajor(2, 2, {10, 20, 30, 40});
  a.Add(b);
  EXPECT_EQ(a(1, 1), 44.0f);
  a.AddScaled(b, -1.0f);
  EXPECT_EQ(a(0, 0), 1.0f);
  a.Scale(2.0f);
  EXPECT_EQ(a(0, 1), 4.0f);
  a.Fill(9.0f);
  EXPECT_EQ(a(1, 0), 9.0f);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m = Matrix::FromRowMajor(1, 2, {3, 4});
  EXPECT_FLOAT_EQ(m.FrobeniusNorm(), 5.0f);
}

TEST(MatrixTest, IdentityIsDiagonal) {
  Matrix id = Matrix::Identity(4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(id(r, c), r == c ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, DebugStringMentionsShape) {
  Matrix m(2, 2);
  EXPECT_NE(m.DebugString().find("2x2"), std::string::npos);
}

// ------------------------------------------------------------------- ops

/// Naive reference multiply for cross-checking kernels.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float s = 0.0f;
      for (int k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

class MatMulShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(101);
  Matrix a = Matrix::RandomNormal(m, k, &rng);
  Matrix b = Matrix::RandomNormal(k, n, &rng);
  const Matrix fast = MatMul(a, b);
  const Matrix slow = NaiveMatMul(a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(fast(i, j), slow(i, j), 1e-3f);
    }
  }
}

TEST_P(MatMulShapes, TransAMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(102);
  Matrix a = Matrix::RandomNormal(k, m, &rng);
  Matrix b = Matrix::RandomNormal(k, n, &rng);
  const Matrix fast = MatMulTransA(a, b);
  const Matrix slow = NaiveMatMul(a.Transposed(), b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(fast(i, j), slow(i, j), 1e-3f);
    }
  }
}

TEST_P(MatMulShapes, TransBMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(103);
  Matrix a = Matrix::RandomNormal(m, k, &rng);
  Matrix b = Matrix::RandomNormal(n, k, &rng);
  const Matrix fast = MatMulTransB(a, b);
  const Matrix slow = NaiveMatMul(a, b.Transposed());
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(fast(i, j), slow(i, j), 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(8, 8, 8), std::make_tuple(17, 4, 23),
                      std::make_tuple(2, 31, 7),
                      // Shapes that cross the kMC/kKC cache-block and
                      // 4-wide register-tile boundaries of the blocked
                      // kernels, including non-multiples of every tile.
                      std::make_tuple(33, 130, 37), std::make_tuple(64, 128, 64),
                      std::make_tuple(65, 129, 66), std::make_tuple(100, 257, 3),
                      std::make_tuple(31, 259, 121)));

TEST(OpsTest, BlockedMatMulMatchesNaiveTightTolerance) {
  // The blocked kernels reassociate float sums; on O(100)-term unit-scale
  // dot products the drift must stay within 1e-4 of the naive order.
  Rng rng(211);
  Matrix a = Matrix::RandomNormal(45, 150, &rng);
  Matrix b = Matrix::RandomNormal(150, 52, &rng);
  const Matrix fast = MatMul(a, b);
  const Matrix slow = NaiveMatMul(a, b);
  for (int i = 0; i < fast.rows(); ++i) {
    for (int j = 0; j < fast.cols(); ++j) {
      EXPECT_NEAR(fast(i, j), slow(i, j), 1e-4f);
    }
  }
  // A^T B with a 150-deep inner dimension (crosses the kKC panel).
  Matrix c = Matrix::RandomNormal(150, 41, &rng);
  const Matrix fast_ta = MatMulTransA(b, c);  // (150x52)^T * (150x41)
  const Matrix slow_ta = NaiveMatMul(b.Transposed(), c);
  for (int i = 0; i < slow_ta.rows(); ++i) {
    for (int j = 0; j < slow_ta.cols(); ++j) {
      EXPECT_NEAR(fast_ta(i, j), slow_ta(i, j), 1e-4f);
    }
  }
  const Matrix fast_tb = MatMulTransB(a, b.Transposed());
  const Matrix slow_tb = NaiveMatMul(a, b);
  for (int i = 0; i < slow_tb.rows(); ++i) {
    for (int j = 0; j < slow_tb.cols(); ++j) {
      EXPECT_NEAR(fast_tb(i, j), slow_tb(i, j), 1e-4f);
    }
  }
}

class PackedGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PackedGemmShapes, PackedMatchesBlockedAndNaive) {
  // Shapes above the packed-panel dispatch threshold, chosen to cross the
  // kMR=12 / kNR=32 micro-tile edges, the kGemmKC=256 inner slab, and the
  // kGemmMC i-block — each with remainders. All three variants must agree
  // with the naive reference (float reassociation tolerance) whichever
  // micro-kernel the kernel tier picked.
  const auto [m, k, n] = GetParam();
  Rng rng(301);
  Matrix a = Matrix::RandomNormal(m, k, &rng);
  Matrix b = Matrix::RandomNormal(k, n, &rng);
  const Matrix naive = NaiveMatMul(a, b);
  const Matrix packed = MatMul(a, b);
  const Matrix blocked = MatMulBlocked(a, b);
  // Rounding drift scales with the inner dimension (the sequential naive
  // reference drifts the most; the tiled kernels' tree-like accumulation
  // drifts less), so the bar does too.
  const float tol = 5e-6f * static_cast<float>(k) + 1e-4f;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(packed(i, j), naive(i, j), tol) << i << "," << j;
      EXPECT_NEAR(blocked(i, j), naive(i, j), tol) << i << "," << j;
    }
  }

  // Transposed entry points at the same (packed-dispatch) sizes: the
  // packing step absorbs the transpose, so storage order must not matter.
  Matrix at = a.Transposed();  // k x m
  const Matrix packed_ta = MatMulTransA(at, b);
  Matrix bt = b.Transposed();  // n x k
  const Matrix packed_tb = MatMulTransB(a, bt);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(packed_ta(i, j), naive(i, j), tol) << "TA " << i << "," << j;
      EXPECT_NEAR(packed_tb(i, j), naive(i, j), tol) << "TB " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedGemmShapes,
    ::testing::Values(std::make_tuple(70, 129, 67),   // all-tile remainders
                      std::make_tuple(96, 256, 96),   // exact kGemmKC slab
                      std::make_tuple(97, 300, 31),   // kGemmMC + slab tails
                      std::make_tuple(6, 3000, 16))); // single tile, deep k

/// C(i,j) folded with std::fma over p in order, starting from C's value:
/// the arithmetic every element of a packed product does on the FMA tiers.
/// Logical shapes: a is m x k, b is k x n, *c is m x n.
void FmaChainInto(const Matrix& a, const Matrix& b, Matrix* c) {
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = (*c)(i, j);
      for (int p = 0; p < a.cols(); ++p) acc = std::fma(a(i, p), b(p, j), acc);
      (*c)(i, j) = acc;
    }
  }
}

/// On the avx2 and avx512 tiers `got` must equal `want` byte for byte; the
/// portable kernel multiplies then adds, so it keeps the reassociation
/// tolerance of PackedGemmShapes.
void ExpectFmaChain(const Matrix& got, const Matrix& want, int k,
                    const char* what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  if (std::strncmp(PackedGemmKernelName(), "portable", 8) != 0) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << what << " on " << PackedGemmKernelName();
    return;
  }
  const float tol = 5e-6f * static_cast<float>(k) + 1e-4f;
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      EXPECT_NEAR(got(i, j), want(i, j), tol) << what << " " << i << "," << j;
    }
  }
}

class FmaChainShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FmaChainShapes, PackedEqualsNaiveFmaChain) {
  // Every shape takes the packed path and has ragged tiles in both
  // directions for both the 12x32 and the 6x16 tile (m mod 12, m mod 6,
  // n mod 32, n mod 16 all non-zero), so edge tiles, slab boundaries and
  // accumulation onto a non-zero C are all compared with the chain.
  const auto [m, k, n] = GetParam();
  Rng rng(505);
  const Matrix a = Matrix::RandomNormal(m, k, &rng);
  const Matrix b = Matrix::RandomNormal(k, n, &rng);
  const Matrix at = a.Transposed();  // k x m, for the TransA forms
  const Matrix bt = b.Transposed();  // n x k, for MatMulTransB
  Matrix want(m, n);
  FmaChainInto(a, b, &want);
  ExpectFmaChain(MatMul(a, b), want, k, "MatMul");
  ExpectFmaChain(MatMulTransA(at, b), want, k, "MatMulTransA");
  ExpectFmaChain(MatMulTransB(a, bt), want, k, "MatMulTransB");

  const Matrix c0 = Matrix::RandomNormal(m, n, &rng);
  Matrix got = c0;
  AddMatMulTransA(at, b, &got);
  want = c0;
  FmaChainInto(a, b, &want);
  ExpectFmaChain(got, want, k, "AddMatMulTransA");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FmaChainShapes,
    ::testing::Values(std::make_tuple(67, 513, 41),    // three slabs
                      std::make_tuple(101, 129, 71),   // crosses kGemmMC
                      std::make_tuple(389, 300, 301)));  // >= 2^25: pool

/// Rows [r0, r0 + rows) of m.
Matrix RowSlice(const Matrix& m, int r0, int rows) {
  std::vector<int> idx(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) idx[static_cast<size_t>(i)] = r0 + i;
  return m.SelectRows(idx);
}

TEST(OpsTest, PoolSplitDoesNotChangeBytes) {
  // 1152 x 256 x 128 is above the 2^25 multiply-add threshold, so each
  // product below spreads its 96-row i-blocks over the thread pool. Every
  // 96-row slice of the output on its own is below the threshold and runs
  // on the calling thread. The slices sit on the kGemmMC grid, so the tile
  // decomposition, and with it every element's arithmetic order, is the
  // same: the assembled slices must equal the pooled product byte for byte.
  constexpr int kM = 1152;
  constexpr int kK = 256;
  constexpr int kN = 128;
  constexpr int kSlice = 96;
  Rng rng(404);
  const Matrix a = Matrix::RandomNormal(kM, kK, &rng);
  const Matrix at = a.Transposed();  // kK x kM, for MatMulTransA
  const Matrix b = Matrix::RandomNormal(kK, kN, &rng);
  const Matrix bt = b.Transposed();  // kN x kK, for MatMulTransB
  const Matrix full_nn = MatMul(a, b);
  const Matrix full_tn = MatMulTransA(at, b);
  const Matrix full_nt = MatMulTransB(a, bt);
  const size_t slice_bytes = static_cast<size_t>(kSlice) * kN * sizeof(float);
  for (int r0 = 0; r0 < kM; r0 += kSlice) {
    const Matrix a_slice = RowSlice(a, r0, kSlice);
    const Matrix at_slice = a_slice.Transposed();
    EXPECT_EQ(std::memcmp(MatMul(a_slice, b).data(), full_nn.Row(r0),
                          slice_bytes), 0)
        << "MatMul rows " << r0;
    EXPECT_EQ(std::memcmp(MatMulTransA(at_slice, b).data(), full_tn.Row(r0),
                          slice_bytes), 0)
        << "MatMulTransA rows " << r0;
    EXPECT_EQ(std::memcmp(MatMulTransB(a_slice, bt).data(), full_nt.Row(r0),
                          slice_bytes), 0)
        << "MatMulTransB rows " << r0;
  }
}

class AddMatMulTransAShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(AddMatMulTransAShapes, AccumulatesOntoC) {
  // Into a zero C the accumulating form is MatMulTransA byte for byte; onto
  // a non-zero C it adds the product (its sums start from C's values, so
  // it rounds differently from adding a separate product).
  const auto [m, k, n] = GetParam();
  Rng rng(405);
  const Matrix a = Matrix::RandomNormal(k, m, &rng);
  const Matrix b = Matrix::RandomNormal(k, n, &rng);
  const Matrix product = MatMulTransA(a, b);
  Matrix c(m, n);
  AddMatMulTransA(a, b, &c);
  EXPECT_EQ(std::memcmp(c.data(), product.data(), c.size() * sizeof(float)), 0);

  const Matrix c0 = Matrix::RandomNormal(m, n, &rng);
  c = c0;
  AddMatMulTransA(a, b, &c);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float expected = c0(i, j) + product(i, j);
      EXPECT_NEAR(c(i, j), expected, 1e-5f * std::max(1.0f, std::fabs(expected)))
          << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AddMatMulTransAShapes,
    ::testing::Values(std::make_tuple(6, 5, 4),        // blocked loop
                      std::make_tuple(33, 130, 37),    // blocked, kKC tail
                      std::make_tuple(70, 129, 67),    // packed, tile edges
                      std::make_tuple(256, 128, 512)));  // a layer's dW

TEST(OpsTest, MatMulZeroHeavyInputsStayExact) {
  // The dense kernels dropped the av == 0 skip; sparse inputs must still
  // produce the same results as the naive reference.
  Rng rng(212);
  Matrix a = Matrix::RandomNormal(20, 40, &rng);
  for (size_t i = 0; i < a.size(); ++i) {
    if (rng.Bernoulli(0.8)) a.data()[i] = 0.0f;
  }
  Matrix b = Matrix::RandomNormal(40, 30, &rng);
  const Matrix fast = MatMul(a, b);
  const Matrix slow = NaiveMatMul(a, b);
  for (int i = 0; i < fast.rows(); ++i) {
    for (int j = 0; j < fast.cols(); ++j) {
      EXPECT_NEAR(fast(i, j), slow(i, j), 1e-4f);
    }
  }
}

TEST(OpsTest, MatVecMatchesDoubleReference) {
  // A 701x130 system against a double-precision reference: many rows, and
  // rows long enough to cross Dot's 4-wide unroll with a remainder.
  Rng rng(213);
  Matrix a = Matrix::RandomNormal(701, 130, &rng);
  Vector x(130);
  for (auto& v : x) v = static_cast<float>(rng.Normal());
  const Vector y = MatVec(a, x);
  ASSERT_EQ(y.size(), 701u);
  for (int i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (int c = 0; c < a.cols(); ++c) {
      s += static_cast<double>(a(i, c)) * x[static_cast<size_t>(c)];
    }
    EXPECT_NEAR(y[static_cast<size_t>(i)], static_cast<float>(s), 1e-3f);
  }
}

TEST(OpsTest, MatVec) {
  Matrix a = Matrix::FromRowMajor(2, 3, {1, 0, 2, 0, 1, 1});
  Vector y = MatVec(a, {1, 2, 3});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
  EXPECT_FLOAT_EQ(y[1], 5.0f);
}

TEST(OpsTest, DotAndNorm) {
  Vector a{1, 2, 3};
  Vector b{4, 5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b), 32.0f);
  EXPECT_FLOAT_EQ(Norm2(a), std::sqrt(14.0f));
}

TEST(OpsTest, CosineSimilarityProperties) {
  Vector a{1, 0, 0};
  Vector b{0, 1, 0};
  Vector c{2, 0, 0};
  EXPECT_FLOAT_EQ(CosineSimilarity(a.data(), b.data(), 3), 0.0f);
  EXPECT_FLOAT_EQ(CosineSimilarity(a.data(), c.data(), 3), 1.0f);
  Vector zero{0, 0, 0};
  EXPECT_FLOAT_EQ(CosineSimilarity(a.data(), zero.data(), 3), 0.0f);
}

TEST(OpsTest, NormalizeRowsMakesUnitRows) {
  Rng rng(5);
  Matrix m = Matrix::RandomNormal(6, 9, &rng);
  NormalizeRowsL2(&m);
  for (int r = 0; r < 6; ++r) {
    EXPECT_NEAR(Norm2(m.Row(r), 9), 1.0f, 1e-5f);
  }
}

TEST(OpsTest, SoftmaxRowsSumToOneAndOrderPreserving) {
  Matrix m = Matrix::FromRowMajor(2, 3, {0.1f, 0.9f, 0.5f, -1, 0, 1});
  Matrix p = SoftmaxRows(m, 5.0f);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) {
      EXPECT_GT(p(r, c), 0.0f);
      sum += p(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(p(0, 1), p(0, 2));
  EXPECT_GT(p(0, 2), p(0, 0));
}

TEST(OpsTest, SoftmaxHighTemperatureConcentrates) {
  Matrix m = Matrix::FromRowMajor(1, 3, {0.2f, 0.8f, 0.5f});
  Matrix sharp = SoftmaxRows(m, 100.0f);
  EXPECT_GT(sharp(0, 1), 0.99f);
  Matrix flat = SoftmaxRows(m, 0.001f);
  EXPECT_NEAR(flat(0, 0), 1.0f / 3.0f, 1e-3f);
}

TEST(OpsTest, PairwiseCosineMatchesScalar) {
  Rng rng(7);
  Matrix a = Matrix::RandomNormal(4, 6, &rng);
  Matrix b = Matrix::RandomNormal(3, 6, &rng);
  Matrix s = PairwiseCosine(a, b);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(s(i, j), CosineSimilarity(a.Row(i), b.Row(j), 6), 1e-4f);
    }
  }
}

TEST(OpsTest, SelfCosineSymmetricUnitDiagonal) {
  Rng rng(8);
  Matrix a = Matrix::RandomNormal(5, 4, &rng);
  Matrix s = SelfCosine(a);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(s(i, i), 1.0f);
    for (int j = 0; j < 5; ++j) {
      EXPECT_NEAR(s(i, j), s(j, i), 1e-5f);
      EXPECT_LE(std::fabs(s(i, j)), 1.0f + 1e-5f);
    }
  }
}

TEST(OpsTest, ColumnMeansAndCenter) {
  Matrix m = Matrix::FromRowMajor(2, 2, {1, 10, 3, 30});
  Vector mean = ColumnMeans(m);
  EXPECT_FLOAT_EQ(mean[0], 2.0f);
  EXPECT_FLOAT_EQ(mean[1], 20.0f);
  CenterRows(&m, mean);
  EXPECT_FLOAT_EQ(m(0, 0), -1.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 10.0f);
}

TEST(OpsTest, CovarianceOfKnownData) {
  // Two variables, the second is 2x the first: cov = [[v, 2v], [2v, 4v]].
  Matrix m = Matrix::FromRowMajor(3, 2, {1, 2, 2, 4, 3, 6});
  Matrix cov = Covariance(m);
  EXPECT_NEAR(cov(0, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(cov(0, 1), 2.0f, 1e-5f);
  EXPECT_NEAR(cov(1, 1), 4.0f, 1e-5f);
}

TEST(OpsTest, SignMapsToPlusMinusOne) {
  Matrix m = Matrix::FromRowMajor(1, 4, {-0.5f, 0.0f, 0.1f, -3.0f});
  Matrix s = Sign(m);
  EXPECT_EQ(s(0, 0), -1.0f);
  EXPECT_EQ(s(0, 1), 1.0f);  // documented convention: sign(0) = +1
  EXPECT_EQ(s(0, 2), 1.0f);
  EXPECT_EQ(s(0, 3), -1.0f);
}

}  // namespace
}  // namespace uhscm::linalg
