#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/losses.h"
#include "linalg/ops.h"

namespace uhscm::core {
namespace {

using linalg::Matrix;

/// Central finite-difference check of dL/dZ for any loss closure.
double MaxGradError(const Matrix& z,
                    const std::function<LossAndGrad(const Matrix&)>& loss_fn,
                    int samples, Rng* rng, double eps = 1e-3) {
  const LossAndGrad base = loss_fn(z);
  double max_err = 0.0;
  for (int s = 0; s < samples; ++s) {
    const size_t j = static_cast<size_t>(rng->UniformInt(z.size()));
    Matrix zp = z;
    zp.data()[j] += static_cast<float>(eps);
    Matrix zm = z;
    zm.data()[j] -= static_cast<float>(eps);
    const double numeric =
        (loss_fn(zp).loss - loss_fn(zm).loss) / (2.0 * eps);
    const double analytic = base.dz.data()[j];
    // The 1e-3 floor keeps float-precision noise on near-zero gradient
    // entries from dominating the relative error.
    const double denom =
        std::max({std::fabs(numeric), std::fabs(analytic), 1e-3});
    max_err = std::max(max_err, std::fabs(numeric - analytic) / denom);
  }
  return max_err;
}

/// A random similarity matrix with values in [0, 1], symmetric, unit
/// diagonal — mimicking a Q sub-matrix.
Matrix RandomQ(int t, Rng* rng) {
  Matrix q(t, t);
  for (int i = 0; i < t; ++i) {
    q(i, i) = 1.0f;
    for (int j = i + 1; j < t; ++j) {
      const float v = static_cast<float>(rng->Uniform());
      q(i, j) = v;
      q(j, i) = v;
    }
  }
  return q;
}

/// UhscmBatchLoss as first written: the contrastive term adds every
/// negative's gradient once per positive, O(t |Psi_i| |Phi_i|) per anchor,
/// with the positive and negative sets gathered into vectors. Kept as the
/// reference the O(t^2) library version must agree with.
LossAndGrad ReferenceUhscmBatchLoss(const Matrix& z, const Matrix& q_batch,
                                    const UhscmLossOptions& options) {
  const int t = z.rows();
  Matrix zhat = z;
  for (int i = 0; i < t; ++i) {
    float* row = zhat.Row(i);
    const float inv = 1.0f / std::max(linalg::Norm2(row, z.cols()), 1e-12f);
    for (int c = 0; c < z.cols(); ++c) row[c] *= inv;
  }
  const Matrix h = linalg::MatMulTransB(zhat, zhat);

  LossAndGrad out;
  Matrix g(t, t);  // dL/dH

  const double inv_t2 = 1.0 / (static_cast<double>(t) * t);
  double ls = 0.0;
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) {
      const double diff = static_cast<double>(h(i, j)) - q_batch(i, j);
      ls += diff * diff;
      g(i, j) += static_cast<float>(2.0 * inv_t2 * diff);
    }
  }
  out.loss += ls * inv_t2;

  if (!options.disable_contrastive && options.alpha != 0.0f) {
    const double gamma = options.gamma;
    double lc = 0.0;
    for (int i = 0; i < t; ++i) {
      std::vector<int> psi;
      std::vector<int> phi;
      for (int j = 0; j < t; ++j) {
        if (j == i) continue;
        if (q_batch(i, j) >= options.lambda) {
          psi.push_back(j);
        } else {
          phi.push_back(j);
        }
      }
      if (psi.empty() || phi.empty()) continue;

      double row_max = -2.0;
      for (int j : psi) row_max = std::max(row_max, static_cast<double>(h(i, j)));
      for (int l : phi) row_max = std::max(row_max, static_cast<double>(h(i, l)));

      double s_neg = 0.0;
      std::vector<double> e_neg(phi.size());
      for (size_t u = 0; u < phi.size(); ++u) {
        e_neg[u] = std::exp((static_cast<double>(h(i, phi[u])) - row_max) / gamma);
        s_neg += e_neg[u];
      }

      const double w = options.alpha / (static_cast<double>(psi.size()) * t);
      for (int j : psi) {
        const double e_pos =
            std::exp((static_cast<double>(h(i, j)) - row_max) / gamma);
        const double denom = e_pos + s_neg;
        const double p = e_pos / denom;
        lc += -w * std::log(std::max(p, 1e-300));
        g(i, j) += static_cast<float>(-w * (1.0 - p) / gamma);
        for (size_t u = 0; u < phi.size(); ++u) {
          g(i, phi[u]) += static_cast<float>(w * e_neg[u] / denom / gamma);
        }
      }
    }
    out.loss += lc;
  }

  out.dz = CosineSimilarityBackward(z, g);
  if (options.beta != 0.0f) {
    const double inv_t = 1.0 / static_cast<double>(t);
    double lq = 0.0;
    for (int i = 0; i < t; ++i) {
      const float* zi = z.Row(i);
      float* dzi = out.dz.Row(i);
      for (int c = 0; c < z.cols(); ++c) {
        const float b = zi[c] < 0.0f ? -1.0f : 1.0f;
        const float diff = zi[c] - b;
        lq += static_cast<double>(diff) * diff;
        dzi[c] += static_cast<float>(2.0 * options.beta * inv_t * diff);
      }
    }
    out.loss += options.beta * lq * inv_t;
  }
  return out;
}

TEST(CosineSimilarityBackwardTest, DiagonalGradientsVanish) {
  Rng rng(1);
  Matrix z = Matrix::RandomNormal(4, 6, &rng);
  // Only diagonal entries of G set: gradient through cos(z_i, z_i) == 1
  // must be exactly projected out.
  Matrix g(4, 4);
  for (int i = 0; i < 4; ++i) g(i, i) = 1.0f;
  Matrix dz = CosineSimilarityBackward(z, g);
  for (size_t i = 0; i < dz.size(); ++i) {
    EXPECT_NEAR(dz.data()[i], 0.0f, 1e-5f);
  }
}

class UhscmLossGradient : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UhscmLossGradient, MatchesFiniteDifferences) {
  const auto [t, k] = GetParam();
  Rng rng(100 + t + k);
  Matrix z = Matrix::RandomNormal(t, k, &rng);
  // Keep z away from the sign() kinks so finite differences are valid.
  for (size_t i = 0; i < z.size(); ++i) {
    if (std::fabs(z.data()[i]) < 0.05f) {
      z.data()[i] = z.data()[i] < 0 ? -0.05f : 0.05f;
    }
  }
  const Matrix q = RandomQ(t, &rng);
  UhscmLossOptions options;
  options.alpha = 0.3f;
  options.beta = 0.01f;
  options.gamma = 0.3f;
  options.lambda = 0.5f;
  auto loss_fn = [&](const Matrix& zz) {
    return UhscmBatchLoss(zz, q, options);
  };
  EXPECT_LT(MaxGradError(z, loss_fn, 20, &rng), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UhscmLossGradient,
    ::testing::Values(std::make_tuple(4, 8), std::make_tuple(8, 16),
                      std::make_tuple(12, 32), std::make_tuple(6, 4)));

/// One case of the library loss against the reference: t codes of width
/// 32, Q from RandomQ (values in [0, 1]) or from ten noisy classes, and
/// the options under test.
struct ReferenceCase {
  const char* name;
  int t;
  bool class_q;
  float lambda;
  float alpha;
  bool disable_contrastive;
  bool duplicate_rows;
};

void PrintTo(const ReferenceCase& c, std::ostream* os) { *os << c.name; }

class UhscmLossReference : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(UhscmLossReference, MatchesReference) {
  // The library sums each negative's gradient once over the positives
  // instead of once per positive, which rounds differently: loss and dz
  // must agree to 1e-6 relative. The absolute floor, 1e-6 of the largest
  // |dz|, covers entries where the terms of dz cancel to near zero.
  const ReferenceCase c = GetParam();
  Rng rng(500 + c.t);
  Matrix z = Matrix::RandomNormal(c.t, 32, &rng);
  if (c.duplicate_rows) {
    // Rows 1 and 2 repeat row 0: equal cosines, hence equal exponentials.
    for (int r = 1; r < std::min(3, c.t); ++r) {
      std::copy(z.Row(0), z.Row(0) + z.cols(), z.Row(r));
    }
  }
  Matrix q = RandomQ(c.t, &rng);
  if (c.class_q) {
    for (int i = 0; i < c.t; ++i) {
      for (int j = 0; j < c.t; ++j) {
        q(i, j) = i == j ? 1.0f
                  : i % 10 == j % 10
                      ? 0.9f + 0.1f * static_cast<float>(rng.Uniform())
                      : 0.3f * static_cast<float>(rng.Uniform());
      }
    }
  }
  UhscmLossOptions options;
  options.lambda = c.lambda;
  options.alpha = c.alpha;
  options.disable_contrastive = c.disable_contrastive;

  const LossAndGrad got = UhscmBatchLoss(z, q, options);
  const LossAndGrad want = ReferenceUhscmBatchLoss(z, q, options);
  EXPECT_NEAR(got.loss, want.loss, 1e-6 * std::fabs(want.loss));
  ASSERT_EQ(got.dz.size(), want.dz.size());
  float max_abs = 0.0f;
  for (size_t i = 0; i < want.dz.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(want.dz.data()[i]));
  }
  for (size_t i = 0; i < want.dz.size(); ++i) {
    const double w = want.dz.data()[i];
    EXPECT_NEAR(got.dz.data()[i], w, 1e-6 * (std::fabs(w) + max_abs))
        << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, UhscmLossReference,
    ::testing::Values(
        // lambda 0.5 splits RandomQ's values; 1.5 leaves no positives and
        // 0 makes every pair one, so Lc has no anchor at all.
        ReferenceCase{"t2_mix", 2, false, 0.5f, 0.2f, false, false},
        ReferenceCase{"t3_mix", 3, false, 0.5f, 0.2f, false, false},
        ReferenceCase{"t17_mix", 17, false, 0.5f, 0.2f, false, false},
        ReferenceCase{"t128_mix", 128, false, 0.5f, 0.2f, false, false},
        ReferenceCase{"t128_classes", 128, true, 0.8f, 0.2f, false, false},
        ReferenceCase{"t17_no_positives", 17, false, 1.5f, 0.2f, false, false},
        ReferenceCase{"t17_all_positives", 17, false, 0.0f, 0.2f, false, false},
        ReferenceCase{"t17_duplicates", 17, false, 0.5f, 0.2f, false, true},
        ReferenceCase{"t128_duplicates", 128, true, 0.8f, 0.2f, false, true},
        ReferenceCase{"t17_alpha0", 17, false, 0.5f, 0.0f, false, false},
        ReferenceCase{"t17_disabled", 17, false, 0.5f, 0.2f, true, false}),
    [](const ::testing::TestParamInfo<ReferenceCase>& info) {
      return std::string(info.param.name);
    });

TEST(UhscmLossTest, PerfectCodesHaveNearZeroSimilarityLoss) {
  // Two groups of identical codes; Q matches exactly.
  Matrix z(4, 8);
  for (int c = 0; c < 8; ++c) {
    z(0, c) = z(1, c) = (c % 2 == 0) ? 1.0f : -1.0f;
    z(2, c) = z(3, c) = (c % 3 == 0) ? 1.0f : -1.0f;
  }
  Matrix q(4, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      q(i, j) = linalg::CosineSimilarity(z.Row(i), z.Row(j), 8);
    }
  }
  UhscmLossOptions options;
  options.alpha = 0.0f;  // isolate Ls + quantization
  options.beta = 0.0f;
  const LossAndGrad lg = UhscmBatchLoss(z, q, options);
  EXPECT_NEAR(lg.loss, 0.0, 1e-8);
  for (size_t i = 0; i < lg.dz.size(); ++i) {
    EXPECT_NEAR(lg.dz.data()[i], 0.0f, 1e-5f);
  }
}

TEST(UhscmLossTest, GradientDescentIncreasesPositivePairSimilarity) {
  // Sanity-check the -log interpretation of Eq. (8): descending the loss
  // must pull positive pairs together (see the header note about the
  // missing -log in the paper's printed formula).
  Rng rng(7);
  Matrix z = Matrix::RandomNormal(6, 16, &rng);
  Matrix q(6, 6);
  // Pairs (0,1), (2,3), (4,5) similar; everything else dissimilar.
  for (int i = 0; i < 6; ++i) q(i, i) = 1.0f;
  q(0, 1) = q(1, 0) = 0.95f;
  q(2, 3) = q(3, 2) = 0.95f;
  q(4, 5) = q(5, 4) = 0.95f;

  UhscmLossOptions options;
  options.alpha = 1.0f;
  options.beta = 0.0f;
  options.lambda = 0.9f;
  options.gamma = 0.3f;

  auto positive_similarity = [&](const Matrix& codes) {
    return (linalg::CosineSimilarity(codes.Row(0), codes.Row(1), 16) +
            linalg::CosineSimilarity(codes.Row(2), codes.Row(3), 16) +
            linalg::CosineSimilarity(codes.Row(4), codes.Row(5), 16)) /
           3.0f;
  };

  const float before = positive_similarity(z);
  for (int step = 0; step < 200; ++step) {
    const LossAndGrad lg = UhscmBatchLoss(z, q, options);
    z.AddScaled(lg.dz, -0.5f);
  }
  const float after = positive_similarity(z);
  EXPECT_GT(after, before + 0.1f);
}

TEST(UhscmLossTest, DisableContrastiveDropsLcTerm) {
  Rng rng(9);
  Matrix z = Matrix::RandomNormal(5, 8, &rng);
  Matrix q = RandomQ(5, &rng);
  UhscmLossOptions with;
  with.alpha = 0.5f;
  with.lambda = 0.3f;  // guarantees nonempty Psi
  UhscmLossOptions without = with;
  without.disable_contrastive = true;
  const double l_with = UhscmBatchLoss(z, q, with).loss;
  const double l_without = UhscmBatchLoss(z, q, without).loss;
  EXPECT_GT(l_with, l_without);
  // alpha = 0 equals disabled.
  UhscmLossOptions zero_alpha = with;
  zero_alpha.alpha = 0.0f;
  EXPECT_DOUBLE_EQ(UhscmBatchLoss(z, q, zero_alpha).loss, l_without);
}

TEST(UhscmLossTest, QuantizationPullsTowardHypercube) {
  Matrix z = Matrix::FromRowMajor(2, 2, {0.5f, -0.5f, 0.2f, -0.9f});
  Matrix q = Matrix::Identity(2);
  q(0, 1) = q(1, 0) = 0.0f;
  UhscmLossOptions options;
  options.alpha = 0.0f;
  options.beta = 1.0f;
  const LossAndGrad lg = UhscmBatchLoss(z, q, options);
  // d(quant)/dz at z=0.5 (target +1) is negative -> moving z up.
  EXPECT_LT(lg.dz(0, 0), 0.4f);  // combined with Ls but quant dominates sign
}

// ------------------------------------------- original contrastive (CIB)

TEST(OriginalContrastiveLossTest, GradientMatchesFiniteDifferences) {
  Rng rng(11);
  const int t = 5;
  Matrix z = Matrix::RandomNormal(2 * t, 12, &rng);
  auto loss_fn = [&](const Matrix& zz) {
    return OriginalContrastiveLoss(zz, t, 0.4f);
  };
  EXPECT_LT(MaxGradError(z, loss_fn, 24, &rng), 2e-2);
}

TEST(OriginalContrastiveLossTest, AlignedViewsHaveLowerLoss) {
  Rng rng(13);
  const int t = 6;
  Matrix v1 = Matrix::RandomNormal(t, 8, &rng);
  // Aligned: second view = first view.
  Matrix aligned(2 * t, 8);
  for (int i = 0; i < t; ++i) {
    std::copy(v1.Row(i), v1.Row(i) + 8, aligned.Row(i));
    std::copy(v1.Row(i), v1.Row(i) + 8, aligned.Row(t + i));
  }
  // Misaligned: second view is an unrelated random draw.
  Matrix v2 = Matrix::RandomNormal(t, 8, &rng);
  Matrix misaligned(2 * t, 8);
  for (int i = 0; i < t; ++i) {
    std::copy(v1.Row(i), v1.Row(i) + 8, misaligned.Row(i));
    std::copy(v2.Row(i), v2.Row(i) + 8, misaligned.Row(t + i));
  }
  EXPECT_LT(OriginalContrastiveLoss(aligned, t, 0.3f).loss,
            OriginalContrastiveLoss(misaligned, t, 0.3f).loss);
}

// --------------------------------------------------- masked L2 + triplet

TEST(MaskedL2SimilarityLossTest, GradientMatchesFiniteDifferences) {
  Rng rng(17);
  const int t = 6;
  Matrix z = Matrix::RandomNormal(t, 10, &rng);
  for (size_t i = 0; i < z.size(); ++i) {
    if (std::fabs(z.data()[i]) < 0.05f) z.data()[i] = 0.05f;
  }
  Matrix s = RandomQ(t, &rng);
  // Random 0/1 mask with guaranteed mass.
  Matrix mask(t, t);
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) {
      mask(i, j) = rng.Bernoulli(0.6) ? 1.0f : 0.0f;
    }
    mask(i, i) = 1.0f;
  }
  auto loss_fn = [&](const Matrix& zz) {
    return MaskedL2SimilarityLoss(zz, s, mask, 0.01f);
  };
  EXPECT_LT(MaxGradError(z, loss_fn, 20, &rng), 2e-2);
}

TEST(MaskedL2SimilarityLossTest, MaskedPairsDoNotContribute) {
  Rng rng(19);
  Matrix z = Matrix::RandomNormal(3, 6, &rng);
  Matrix s_a(3, 3, 0.0f);
  Matrix s_b = s_a;
  s_b(0, 1) = 5.0f;  // absurd target, but masked out
  s_b(1, 0) = 5.0f;
  Matrix mask(3, 3, 1.0f);
  mask(0, 1) = 0.0f;
  mask(1, 0) = 0.0f;
  EXPECT_DOUBLE_EQ(MaskedL2SimilarityLoss(z, s_a, mask, 0.0f).loss,
                   MaskedL2SimilarityLoss(z, s_b, mask, 0.0f).loss);
}

TEST(TripletCosineLossTest, GradientMatchesFiniteDifferences) {
  Rng rng(23);
  Matrix z = Matrix::RandomNormal(6, 10, &rng);
  for (size_t i = 0; i < z.size(); ++i) {
    if (std::fabs(z.data()[i]) < 0.05f) z.data()[i] = 0.05f;
  }
  std::vector<Triplet> triplets{{0, 1, 2}, {3, 4, 5}, {1, 0, 4}};
  // Margin 2.5 > 2 keeps every triplet strictly inside the active branch
  // of the hinge (cosines live in [-1, 1]), so the loss is smooth at the
  // probe points and finite differences are trustworthy.
  auto loss_fn = [&](const Matrix& zz) {
    return TripletCosineLoss(zz, triplets, 2.5f, 0.01f);
  };
  EXPECT_LT(MaxGradError(z, loss_fn, 20, &rng), 2e-2);
}

TEST(TripletCosineLossTest, SatisfiedTripletsGiveZeroLoss) {
  // anchor == positive, negative orthogonal: margin easily satisfied.
  Matrix z(3, 4);
  z(0, 0) = 1.0f;
  z(1, 0) = 1.0f;
  z(2, 1) = 1.0f;
  std::vector<Triplet> triplets{{0, 1, 2}};
  const LossAndGrad lg = TripletCosineLoss(z, triplets, 0.5f, 0.0f);
  EXPECT_DOUBLE_EQ(lg.loss, 0.0);
}

TEST(TripletCosineLossTest, EmptyTripletsOnlyQuantization) {
  Matrix z = Matrix::FromRowMajor(1, 2, {0.5f, -0.5f});
  const LossAndGrad lg = TripletCosineLoss(z, {}, 0.5f, 1.0f);
  // quant = (1/1) * ((0.5-1)^2 + (-0.5+1)^2) = 0.5
  EXPECT_NEAR(lg.loss, 0.5, 1e-6);
}

}  // namespace
}  // namespace uhscm::core
