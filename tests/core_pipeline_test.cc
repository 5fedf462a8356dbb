// Tests for the semantic-similarity-generator half of UHSCM: concept
// mining (Eq. 1-2), concept denoising (Eq. 4-5), clustering variant, and
// similarity matrix construction (Eq. 3/6).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/concept_denoiser.h"
#include "core/concept_miner.h"
#include "core/similarity.h"
#include "linalg/ops.h"
#include "test_util.h"

namespace uhscm::core {
namespace {

using testing::MakeTinyEnv;
using testing::TinyEnv;

class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override { env_ = MakeTinyEnv("cifar", 200, 100, 40); }
  TinyEnv env_;
};

TEST_F(PipelineFixture, DistributionsAreRowStochastic) {
  ConceptMiner miner(env_.vlp.get());
  const linalg::Matrix d =
      miner.MineDistributions(env_.dataset.pixels, env_.vocab);
  EXPECT_EQ(d.rows(), env_.dataset.num_images());
  EXPECT_EQ(d.cols(), env_.vocab.size());
  for (int i = 0; i < d.rows(); ++i) {
    float sum = 0.0f;
    for (int j = 0; j < d.cols(); ++j) {
      EXPECT_GE(d(i, j), 0.0f);
      sum += d(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST_F(PipelineFixture, HigherTauConcentratesDistributions) {
  ConceptMinerOptions soft;
  soft.tau_multiplier = 1.0f;
  ConceptMinerOptions sharp;
  sharp.tau_multiplier = 4.0f;
  ConceptMiner soft_miner(env_.vlp.get(), soft);
  ConceptMiner sharp_miner(env_.vlp.get(), sharp);
  const linalg::Matrix ds =
      soft_miner.MineDistributions(env_.dataset.pixels, env_.vocab);
  const linalg::Matrix dh =
      sharp_miner.MineDistributions(env_.dataset.pixels, env_.vocab);
  // Mean max-probability strictly increases with tau.
  auto mean_max = [](const linalg::Matrix& d) {
    double total = 0.0;
    for (int i = 0; i < d.rows(); ++i) {
      float mx = 0.0f;
      for (int j = 0; j < d.cols(); ++j) mx = std::max(mx, d(i, j));
      total += mx;
    }
    return total / d.rows();
  };
  EXPECT_GT(mean_max(dh), mean_max(ds) + 0.05);
}

TEST_F(PipelineFixture, FrequenciesSumToImageCount) {
  ConceptMiner miner(env_.vlp.get());
  const linalg::Matrix d =
      miner.MineDistributions(env_.dataset.pixels, env_.vocab);
  const std::vector<int> freq = ConceptFrequencies(d);
  int total = 0;
  for (int f : freq) total += f;
  EXPECT_EQ(total, d.rows());
}

TEST_F(PipelineFixture, DenoiserAppliesEqFiveBand) {
  ConceptMiner miner(env_.vlp.get());
  const linalg::Matrix d =
      miner.MineDistributions(env_.dataset.pixels, env_.vocab);
  const DenoiseResult result = DenoiseConcepts(d, env_.vocab);
  const double n = d.rows();
  const double m = env_.vocab.size();
  std::set<int> kept(result.kept_positions.begin(),
                     result.kept_positions.end());
  for (int j = 0; j < env_.vocab.size(); ++j) {
    const double f = result.frequencies[static_cast<size_t>(j)];
    const bool in_band = f >= 0.5 * n / m && f <= 0.5 * n;
    EXPECT_EQ(kept.count(j) > 0, in_band) << "concept " << j;
  }
  EXPECT_EQ(result.vocab.size(),
            static_cast<int>(result.kept_positions.size()));
  // Denoising must actually remove concepts on this vocabulary (81
  // concepts vs 10 classes: most are noise).
  EXPECT_LT(result.vocab.size(), env_.vocab.size());
  EXPECT_GE(result.vocab.size(), 1);
}

TEST_F(PipelineFixture, DenoiserKeepsDatasetRelevantConcepts) {
  // The retained concepts should be dominated by concepts related to the
  // dataset's true classes (cat/dog/bird/horse/plane/car/boat/truck map
  // into the NUS vocabulary via canonicalization).
  ConceptMiner miner(env_.vlp.get());
  const linalg::Matrix d =
      miner.MineDistributions(env_.dataset.pixels, env_.vocab);
  const DenoiseResult result = DenoiseConcepts(d, env_.vocab);
  std::set<int> class_ids(env_.dataset.class_ids.begin(),
                          env_.dataset.class_ids.end());
  int relevant = 0;
  for (int id : result.vocab.ids) {
    if (class_ids.count(id)) ++relevant;
  }
  // At least half the class-relevant vocabulary entries survive.
  int class_in_vocab = 0;
  for (int id : env_.vocab.ids) {
    if (class_ids.count(id)) ++class_in_vocab;
  }
  ASSERT_GT(class_in_vocab, 0);
  EXPECT_GE(relevant * 2, class_in_vocab);
}

TEST(DenoiserDegenerateTest, AllOutOfBandFallsBackToFullVocab) {
  // One concept absorbs every argmax -> frequency n > 0.5n, all others 0.
  linalg::Matrix d(10, 3);
  for (int i = 0; i < 10; ++i) {
    d(i, 0) = 0.9f;
    d(i, 1) = 0.05f;
    d(i, 2) = 0.05f;
  }
  data::ConceptVocab vocab;
  vocab.names = {"a", "b", "c"};
  vocab.ids = {0, 1, 2};
  const DenoiseResult result = DenoiseConcepts(d, vocab);
  EXPECT_EQ(result.vocab.size(), 3);  // fallback keeps everything
}

TEST_F(PipelineFixture, KMeansClusteringMergesConceptColumns) {
  ConceptMiner miner(env_.vlp.get());
  const linalg::Matrix scores =
      miner.ScoreConcepts(env_.dataset.pixels, env_.vocab);
  Rng rng(5);
  Result<linalg::Matrix> merged = ClusterConceptsKMeans(scores, 20, &rng);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->rows(), scores.rows());
  EXPECT_EQ(merged->cols(), 20);
  // Values remain in [0, 1] (means of [0,1] scores).
  for (size_t i = 0; i < merged->size(); ++i) {
    EXPECT_GE(merged->data()[i], 0.0f);
    EXPECT_LE(merged->data()[i], 1.0f);
  }
  EXPECT_FALSE(ClusterConceptsKMeans(scores, 0, &rng).ok());
  EXPECT_FALSE(
      ClusterConceptsKMeans(scores, scores.cols() + 1, &rng).ok());
}

/// 0, 1, ..., n - 1.
std::vector<int> Iota(int n) {
  std::vector<int> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

TEST_F(PipelineFixture, SimilarityMatrixIsWellFormed) {
  ConceptMiner miner(env_.vlp.get());
  const linalg::Matrix d =
      miner.MineDistributions(env_.dataset.pixels, env_.vocab);
  const SimilarityFactor factor = SimilarityFromDistributions(d);
  // The factor is d with unit rows: n x r, not n x n.
  ASSERT_EQ(factor.f.rows(), d.rows());
  ASSERT_EQ(factor.f.cols(), d.cols());
  for (int i = 0; i < d.rows(); ++i) {
    EXPECT_NEAR(linalg::Norm2(factor.f.Row(i), d.cols()), 1.0f, 1e-5f);
  }
  const linalg::Matrix q = factor.Block(Iota(d.rows()));
  ASSERT_EQ(q.rows(), d.rows());
  ASSERT_EQ(q.cols(), d.rows());
  for (int i = 0; i < q.rows(); ++i) {
    EXPECT_FLOAT_EQ(q(i, i), 1.0f);
    for (int j = 0; j < q.cols(); ++j) {
      EXPECT_NEAR(q(i, j), q(j, i), 1e-5f);
      EXPECT_GE(q(i, j), -1e-5f);  // distributions are non-negative
      EXPECT_LE(q(i, j), 1.0f + 1e-5f);
    }
  }
}

TEST_F(PipelineFixture, SimilarityReflectsGroundTruth) {
  // Same-class pairs should receive higher mined similarity than
  // cross-class pairs on average — the paper's core premise.
  ConceptMiner miner(env_.vlp.get());
  const linalg::Matrix d =
      miner.MineDistributions(env_.dataset.pixels, env_.vocab);
  const DenoiseResult den = DenoiseConcepts(d, env_.vocab);
  const linalg::Matrix d2 =
      miner.MineDistributions(env_.dataset.pixels, den.vocab);
  const int probe = std::min(120, env_.dataset.num_images());
  const linalg::Matrix q = SimilarityFromDistributions(d2).Block(Iota(probe));

  double same = 0.0, cross = 0.0;
  int same_n = 0, cross_n = 0;
  for (int i = 0; i < probe; ++i) {
    for (int j = i + 1; j < probe; ++j) {
      if (env_.dataset.Relevant(i, j)) {
        same += q(i, j);
        ++same_n;
      } else {
        cross += q(i, j);
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(cross_n, 0);
  EXPECT_GT(same / same_n, cross / cross_n + 0.25);
}

TEST(AverageSimilarityTest, ElementwiseMean) {
  // Three distribution matrices of different widths (prompts retain
  // different concept counts); every block of the averaged factor is the
  // element-wise mean of the three dense SelfCosine matrices.
  Rng rng(4);
  std::vector<SimilarityFactor> factors;
  linalg::Matrix mean(6, 6);
  for (int cols : {3, 5, 2}) {
    const linalg::Matrix d = linalg::Matrix::RandomUniform(6, cols, &rng);
    factors.push_back(SimilarityFromDistributions(d));
    mean.Add(linalg::SelfCosine(d));
  }
  mean.Scale(1.0f / 3.0f);
  const SimilarityFactor avg = AverageSimilarity(factors);
  EXPECT_EQ(avg.f.rows(), 6);
  EXPECT_EQ(avg.f.cols(), 10);
  const std::vector<int> rows = {4, 0, 5, 2};
  const linalg::Matrix got = avg.Block(rows);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got(i, i), 1.0f);
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(got(i, j),
                  mean(rows[static_cast<size_t>(i)],
                       rows[static_cast<size_t>(j)]),
                  1e-6f);
    }
  }
}

TEST(SimilarityFactorTest, ZeroRowMatchesSelfCosine) {
  // A distribution row of zeros stays zero in the factor: cosine 0 with
  // every other row, 1 with itself — what the dense SelfCosine gives.
  Rng rng(6);
  linalg::Matrix d = linalg::Matrix::RandomUniform(40, 7, &rng);
  std::fill(d.Row(3), d.Row(3) + d.cols(), 0.0f);
  const SimilarityFactor factor = SimilarityFromDistributions(d);
  for (int c = 0; c < d.cols(); ++c) EXPECT_EQ(factor.f(3, c), 0.0f);
  const linalg::Matrix reference = linalg::SelfCosine(d);
  std::vector<int> rows = Iota(d.rows());
  rng.Shuffle(&rows);
  rows.resize(12);
  if (std::find(rows.begin(), rows.end(), 3) == rows.end()) rows[5] = 3;
  const linalg::Matrix q = factor.Block(rows);
  for (int i = 0; i < q.rows(); ++i) {
    EXPECT_EQ(q(i, i), 1.0f);
    for (int j = 0; j < q.cols(); ++j) {
      EXPECT_NEAR(q(i, j),
                  reference(rows[static_cast<size_t>(i)],
                            rows[static_cast<size_t>(j)]),
                  1e-6f);
    }
  }
}

TEST(SimilarityStatsTest, ComputesSummary) {
  linalg::Matrix q = linalg::Matrix::FromRowMajor(
      2, 2, {1.0f, 0.8f, 0.8f, 1.0f});
  const SimilarityStats stats = ComputeSimilarityStats(q, 0.5f);
  EXPECT_FLOAT_EQ(stats.min, 0.8f);
  EXPECT_FLOAT_EQ(stats.max, 1.0f);
  EXPECT_NEAR(stats.mean, 0.9f, 1e-5f);
  EXPECT_FLOAT_EQ(stats.frac_above_threshold, 1.0f);
}

}  // namespace
}  // namespace uhscm::core
