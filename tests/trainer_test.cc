#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/concept_denoiser.h"
#include "core/trainer.h"
#include "eval/retrieval_eval.h"
#include "linalg/ops.h"
#include "test_util.h"

namespace uhscm::core {
namespace {

using testing::MakeTinyEnv;
using testing::TinyEnv;

UhscmConfig TinyConfig(int bits = 16) {
  UhscmConfig config = DefaultConfigFor("cifar", bits);
  config.max_epochs = 8;
  config.batch_size = 64;
  config.network.hidden1 = 64;
  config.network.hidden2 = 48;
  return config;
}

TEST(TrainerTest, DefaultConfigsMatchPaperSection46) {
  const UhscmConfig cifar = DefaultConfigFor("cifar", 64);
  EXPECT_FLOAT_EQ(cifar.alpha, 0.2f);
  EXPECT_FLOAT_EQ(cifar.lambda, 0.8f);
  EXPECT_FLOAT_EQ(cifar.gamma, 0.2f);
  EXPECT_FLOAT_EQ(cifar.beta, 0.001f);
  const UhscmConfig nus = DefaultConfigFor("nuswide", 64);
  EXPECT_FLOAT_EQ(nus.alpha, 0.1f);
  EXPECT_FLOAT_EQ(nus.lambda, 0.5f);
  const UhscmConfig flickr = DefaultConfigFor("flickr", 64);
  EXPECT_FLOAT_EQ(flickr.alpha, 0.3f);
  EXPECT_FLOAT_EQ(flickr.gamma, 0.5f);
  // Optimizer defaults from §4.1 (lr retuned for the from-scratch
  // backbone substitute; see UhscmConfig::learning_rate).
  EXPECT_FLOAT_EQ(cifar.learning_rate, 0.02f);
  EXPECT_FLOAT_EQ(cifar.momentum, 0.9f);
  EXPECT_FLOAT_EQ(cifar.weight_decay, 1e-5f);
  EXPECT_EQ(cifar.batch_size, 128);
  EXPECT_FLOAT_EQ(cifar.tau_multiplier, 3.0f);
}

TEST(TrainerTest, TrainProducesWorkingModel) {
  TinyEnv env = MakeTinyEnv("cifar", 200, 100, 40);
  UhscmTrainer trainer(env.vlp.get(), TinyConfig());
  const linalg::Matrix train_pixels =
      env.dataset.pixels.SelectRows(env.dataset.split.train);
  Result<UhscmModel> model = trainer.Train(train_pixels, env.vocab);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // Loss decreased over training.
  ASSERT_GE(model->epoch_losses.size(), 2u);
  EXPECT_LT(model->epoch_losses.back(), model->epoch_losses.front());

  // Codes are exactly +-1 with the configured width.
  const linalg::Matrix codes = model->Encode(env.dataset.pixels);
  EXPECT_EQ(codes.rows(), env.dataset.num_images());
  EXPECT_EQ(codes.cols(), 16);
  for (size_t i = 0; i < codes.size(); ++i) {
    EXPECT_TRUE(codes.data()[i] == 1.0f || codes.data()[i] == -1.0f);
  }

  // Q is held as its n_train x r factor; retained concepts populated.
  EXPECT_EQ(model->similarity.f.rows(), train_pixels.rows());
  EXPECT_EQ(model->similarity.f.cols(),
            static_cast<int>(model->retained_concepts.size()));
  EXPECT_FALSE(model->retained_concepts.empty());
}

TEST(TrainerTest, RejectsDegenerateInput) {
  TinyEnv env = MakeTinyEnv("cifar", 60, 30, 10);
  UhscmTrainer trainer(env.vlp.get(), TinyConfig());
  linalg::Matrix one_row(1, env.world->pixel_dim());
  EXPECT_FALSE(trainer.Train(one_row, env.vocab).ok());
}

TEST(TrainerTest, DeterministicForFixedSeed) {
  TinyEnv env = MakeTinyEnv("cifar", 120, 60, 20);
  const linalg::Matrix train_pixels =
      env.dataset.pixels.SelectRows(env.dataset.split.train);
  UhscmConfig config = TinyConfig();
  config.max_epochs = 3;
  UhscmTrainer t1(env.vlp.get(), config);
  UhscmTrainer t2(env.vlp.get(), config);
  Result<UhscmModel> m1 = t1.Train(train_pixels, env.vocab);
  Result<UhscmModel> m2 = t2.Train(train_pixels, env.vocab);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  const linalg::Matrix c1 = m1->Encode(env.dataset.pixels);
  const linalg::Matrix c2 = m2->Encode(env.dataset.pixels);
  for (size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(c1.data()[i], c2.data()[i]);
  }
}

class SimilaritySourceSweep
    : public ::testing::TestWithParam<SimilaritySource> {};

TEST_P(SimilaritySourceSweep, EveryAblationVariantTrains) {
  TinyEnv env = MakeTinyEnv("cifar", 140, 70, 20);
  UhscmConfig config = TinyConfig();
  config.max_epochs = 3;
  config.similarity_source = GetParam();
  config.kmeans_clusters = 15;
  UhscmTrainer trainer(env.vlp.get(), config);
  const linalg::Matrix train_pixels =
      env.dataset.pixels.SelectRows(env.dataset.split.train);
  Result<UhscmModel> model = trainer.Train(train_pixels, env.vocab);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const linalg::Matrix codes = model->Encode(train_pixels);
  EXPECT_EQ(codes.cols(), config.bits);
}

INSTANTIATE_TEST_SUITE_P(
    Sources, SimilaritySourceSweep,
    ::testing::Values(SimilaritySource::kDenoisedConcepts,
                      SimilaritySource::kRawConcepts,
                      SimilaritySource::kImageFeatures,
                      SimilaritySource::kKMeansClusters,
                      SimilaritySource::kAveragePrompts));

class ContrastiveModeSweep
    : public ::testing::TestWithParam<ContrastiveMode> {};

TEST_P(ContrastiveModeSweep, EveryLossVariantTrains) {
  TinyEnv env = MakeTinyEnv("cifar", 140, 70, 20);
  UhscmConfig config = TinyConfig();
  config.max_epochs = 3;
  config.contrastive_mode = GetParam();
  UhscmTrainer trainer(env.vlp.get(), config);
  const linalg::Matrix train_pixels =
      env.dataset.pixels.SelectRows(env.dataset.split.train);
  Result<UhscmModel> model = trainer.Train(train_pixels, env.vocab);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_FALSE(model->epoch_losses.empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, ContrastiveModeSweep,
                         ::testing::Values(ContrastiveMode::kModified,
                                           ContrastiveMode::kNone,
                                           ContrastiveMode::kOriginal));

TEST(TrainerTest, BuildSimilarityDenoisedBeatsRawOnCifarLike) {
  // The §4.4.4 direction: denoising improves similarity quality. Measure
  // by agreement with ground truth (mean similar-pair Q minus mean
  // dissimilar-pair Q).
  TinyEnv env = MakeTinyEnv("cifar", 260, 130, 40);
  const linalg::Matrix train_pixels =
      env.dataset.pixels.SelectRows(env.dataset.split.train);

  auto quality = [&](SimilaritySource source) {
    UhscmConfig config = TinyConfig();
    config.similarity_source = source;
    UhscmTrainer trainer(env.vlp.get(), config);
    Rng rng(3);
    auto artifacts =
        trainer.BuildSimilarity(train_pixels, env.vocab, &rng);
    EXPECT_TRUE(artifacts.ok());
    std::vector<int> all(env.dataset.split.train.size());
    std::iota(all.begin(), all.end(), 0);
    const linalg::Matrix q = artifacts->q.Block(all);
    double sim = 0.0, dis = 0.0;
    int sim_n = 0, dis_n = 0;
    const auto& train_ids = env.dataset.split.train;
    for (size_t i = 0; i < train_ids.size(); ++i) {
      for (size_t j = i + 1; j < train_ids.size(); ++j) {
        if (env.dataset.Relevant(train_ids[i], train_ids[j])) {
          sim += q(static_cast<int>(i), static_cast<int>(j));
          ++sim_n;
        } else {
          dis += q(static_cast<int>(i), static_cast<int>(j));
          ++dis_n;
        }
      }
    }
    return sim / sim_n - dis / dis_n;
  };

  const double denoised = quality(SimilaritySource::kDenoisedConcepts);
  const double raw = quality(SimilaritySource::kRawConcepts);
  const double features = quality(SimilaritySource::kImageFeatures);
  // Both concept-based matrices are near ceiling at tiny scale (the
  // tau = 3m' softmax softens when denoising shrinks m), so only require
  // denoising to stay within a small band of raw; Table 2's MAP-level
  // ordering is asserted at bench scale.
  EXPECT_GE(denoised, raw - 0.06);
  EXPECT_GT(denoised, features + 0.05);  // concepts beat feature cosine
}

/// The dense n_train x n_train Q each SimilaritySource built before Q was
/// held as a factor: SelfCosine of the mined (or feature) rows, shifted
/// to 0.5 (1 + cos) for image features, and the element-wise mean of the
/// three prompts' matrices for UHSCM_avg. Mirrors BuildSimilarity's
/// mining steps and its use of `rng`.
linalg::Matrix ReferenceDenseQ(const vlp::SimulatedVlpModel* vlp,
                               const UhscmConfig& config,
                               const linalg::Matrix& train_pixels,
                               const data::ConceptVocab& vocab, Rng* rng) {
  ConceptMinerOptions options;
  options.tau_multiplier = config.tau_multiplier;
  options.prompt = config.prompt;
  auto denoised_cosine = [&](ConceptMinerOptions opt) {
    const linalg::Matrix d =
        ConceptMiner(vlp, opt).MineDistributions(train_pixels, vocab);
    const DenoiseResult denoised = DenoiseConcepts(d, vocab);
    opt.tau_concepts_override = vocab.size();
    return linalg::SelfCosine(ConceptMiner(vlp, opt).MineDistributions(
        train_pixels, denoised.vocab));
  };
  const ConceptMiner miner(vlp, options);
  switch (config.similarity_source) {
    case SimilaritySource::kDenoisedConcepts:
      return denoised_cosine(options);
    case SimilaritySource::kRawConcepts:
      return linalg::SelfCosine(miner.MineDistributions(train_pixels, vocab));
    case SimilaritySource::kImageFeatures: {
      linalg::Matrix q = linalg::SelfCosine(vlp->EncodeImages(train_pixels));
      for (size_t i = 0; i < q.size(); ++i) {
        q.data()[i] = 0.5f * (1.0f + q.data()[i]);
      }
      return q;
    }
    case SimilaritySource::kKMeansClusters: {
      Result<linalg::Matrix> merged = ClusterConceptsKMeans(
          miner.ScoreConcepts(train_pixels, vocab), config.kmeans_clusters,
          rng);
      EXPECT_TRUE(merged.ok());
      return linalg::SelfCosine(
          miner.DistributionsFromScores(merged.ValueOrDie()));
    }
    case SimilaritySource::kAveragePrompts: {
      linalg::Matrix mean(train_pixels.rows(), train_pixels.rows());
      for (vlp::PromptTemplate tmpl :
           {vlp::PromptTemplate::kAPhotoOfThe, vlp::PromptTemplate::kThe,
            vlp::PromptTemplate::kItContainsThe}) {
        ConceptMinerOptions opt = options;
        opt.prompt = tmpl;
        mean.Add(denoised_cosine(opt));
      }
      mean.Scale(1.0f / 3.0f);
      return mean;
    }
  }
  return {};
}

/// The denoised-concept factor as two mining passes build it: score and
/// denoise the whole vocabulary, then score the kept concepts again with
/// tau pinned to the original vocabulary size. `kept` receives how many
/// concepts the denoiser kept.
SimilarityFactor TwoPassDenoisedFactor(const vlp::SimulatedVlpModel* vlp,
                                       ConceptMinerOptions options,
                                       const linalg::Matrix& train_pixels,
                                       const data::ConceptVocab& vocab,
                                       std::vector<std::string>* kept) {
  const linalg::Matrix d =
      ConceptMiner(vlp, options).MineDistributions(train_pixels, vocab);
  const DenoiseResult denoised = DenoiseConcepts(d, vocab);
  *kept = denoised.vocab.names;
  options.tau_concepts_override = vocab.size();
  return SimilarityFromDistributions(ConceptMiner(vlp, options)
                                         .MineDistributions(train_pixels,
                                                            denoised.vocab));
}

TEST(TrainerTest, OneScoringPassMatchesTwoPassFactorBytes) {
  // BuildSimilarity scores the vocabulary once and re-softmaxes the kept
  // columns; the factor must be memcmp-equal to the two-pass pipeline's.
  // The one-concept vocabulary is the degenerate case: its concept is
  // every image's argmax, the band drops it, and the denoiser falls back
  // to keeping the whole vocabulary.
  TinyEnv env = MakeTinyEnv("cifar", 400, 310, 20);
  const linalg::Matrix train_pixels =
      env.dataset.pixels.SelectRows(env.dataset.split.train);
  data::ConceptVocab one_concept = data::SubsetVocab(env.vocab, {3});
  for (const data::ConceptVocab* vocab : {&env.vocab, &one_concept}) {
    for (SimilaritySource source : {SimilaritySource::kDenoisedConcepts,
                                    SimilaritySource::kAveragePrompts}) {
      UhscmConfig config = TinyConfig();
      config.similarity_source = source;
      Rng rng(9);
      Result<UhscmTrainer::SimilarityArtifacts> artifacts =
          UhscmTrainer(env.vlp.get(), config)
              .BuildSimilarity(train_pixels, *vocab, &rng);
      ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();

      ConceptMinerOptions options;
      options.tau_multiplier = config.tau_multiplier;
      options.prompt = config.prompt;
      std::vector<std::string> kept;
      SimilarityFactor reference;
      if (source == SimilaritySource::kDenoisedConcepts) {
        reference = TwoPassDenoisedFactor(env.vlp.get(), options,
                                          train_pixels, *vocab, &kept);
        EXPECT_EQ(artifacts->retained_concepts, kept);
      } else {
        std::vector<SimilarityFactor> factors;
        for (vlp::PromptTemplate tmpl :
             {vlp::PromptTemplate::kAPhotoOfThe, vlp::PromptTemplate::kThe,
              vlp::PromptTemplate::kItContainsThe}) {
          options.prompt = tmpl;
          factors.push_back(TwoPassDenoisedFactor(env.vlp.get(), options,
                                                  train_pixels, *vocab,
                                                  &kept));
        }
        reference = AverageSimilarity(factors);
      }
      if (vocab == &one_concept) {
        EXPECT_EQ(kept.size(), 1u);
      } else {
        EXPECT_GT(kept.size(), 1u);
        EXPECT_LT(kept.size(), env.vocab.names.size());
      }
      const linalg::Matrix& f = artifacts->q.f;
      ASSERT_EQ(f.rows(), reference.f.rows());
      ASSERT_EQ(f.cols(), reference.f.cols());
      EXPECT_EQ(std::memcmp(f.data(), reference.f.data(),
                            f.size() * sizeof(float)),
                0)
          << "source " << static_cast<int>(source) << ", vocabulary of "
          << vocab->names.size();
    }
  }
}

class FactoredSimilaritySweep
    : public ::testing::TestWithParam<SimilaritySource> {};

TEST_P(FactoredSimilaritySweep, BlocksMatchDenseReference) {
  // 310 train rows, so a 301-row batch fits; block sizes run from single
  // edge tiles of the packed GEMM to several i-blocks for every factor
  // width.
  TinyEnv env = MakeTinyEnv("cifar", 400, 310, 20);
  const linalg::Matrix train_pixels =
      env.dataset.pixels.SelectRows(env.dataset.split.train);
  UhscmConfig config = TinyConfig();
  config.similarity_source = GetParam();
  config.kmeans_clusters = 15;
  Rng build_rng(9);
  Result<UhscmTrainer::SimilarityArtifacts> artifacts =
      UhscmTrainer(env.vlp.get(), config)
          .BuildSimilarity(train_pixels, env.vocab, &build_rng);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  const SimilarityFactor& factor = artifacts->q;
  ASSERT_EQ(factor.f.rows(), train_pixels.rows());

  Rng reference_rng(9);
  const linalg::Matrix reference = ReferenceDenseQ(
      env.vlp.get(), config, train_pixels, env.vocab, &reference_rng);

  Rng shuffle_rng(10);
  std::vector<int> order(static_cast<size_t>(train_pixels.rows()));
  std::iota(order.begin(), order.end(), 0);
  for (int t : {2, 5, 64, 128, 301}) {
    shuffle_rng.Shuffle(&order);
    const std::vector<int> rows(order.begin(), order.begin() + t);
    const linalg::Matrix q = factor.Block(rows);
    ASSERT_EQ(q.rows(), t);
    ASSERT_EQ(q.cols(), t);
    float worst = 0.0f;
    for (int i = 0; i < t; ++i) {
      EXPECT_EQ(q(i, i), 1.0f) << "t=" << t << " i=" << i;
      for (int j = 0; j < t; ++j) {
        const float diff =
            std::fabs(q(i, j) - reference(rows[static_cast<size_t>(i)],
                                          rows[static_cast<size_t>(j)]));
        if (!(diff <= worst)) worst = diff;  // a NaN sticks
      }
    }
    EXPECT_LE(worst, 1e-6f) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sources, FactoredSimilaritySweep,
    ::testing::Values(SimilaritySource::kDenoisedConcepts,
                      SimilaritySource::kRawConcepts,
                      SimilaritySource::kImageFeatures,
                      SimilaritySource::kKMeansClusters,
                      SimilaritySource::kAveragePrompts));

}  // namespace
}  // namespace uhscm::core
