#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/concept_vocab.h"
#include "data/synthetic.h"
#include "data/world.h"
#include "linalg/ops.h"
#include "vlp/prompt.h"
#include "vlp/simulated_vlp.h"

namespace uhscm::vlp {
namespace {

/// Every tower element must match the per-pair reference this closely.
constexpr float kTowerTolerance = 1e-5f;

uint64_t ReferenceHashPixels(const float* row, int n, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (int i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, &row[i], sizeof(bits));
    h ^= bits;
    h *= 1099511628211ULL;
  }
  return h;
}

void ReferenceNormalize(float* v, int n) {
  const float norm = linalg::Norm2(v, n);
  if (norm > 1e-12f) {
    for (int i = 0; i < n; ++i) v[i] *= 1.0f / norm;
  }
}

/// Unit-norm Gaussian row drawn from `seed`: how the model derives its
/// base concept and style embeddings.
std::vector<float> ReferenceEmbedding(uint64_t seed, int e) {
  Rng rng(seed);
  std::vector<float> row(static_cast<size_t>(e));
  for (float& v : row) v = static_cast<float>(rng.Normal());
  ReferenceNormalize(row.data(), e);
  return row;
}

/// The image tower as one CosineSimilarity per (image, prototype) and
/// (image, style) pair, composed one weighted embedding at a time — the
/// reference the two-GEMM tower must reproduce up to float reassociation.
/// `num_concepts` is the model's snapshot size. Sets `*fallbacks` to the
/// number of images that took the nearest-prototype fallback.
linalg::Matrix ReferenceEncodeImages(const data::SemanticWorld& world,
                                     int num_concepts,
                                     const VlpOptions& options,
                                     const linalg::Matrix& pixels,
                                     int* fallbacks) {
  const int e = options.embed_dim;
  const int d = world.pixel_dim();
  std::vector<std::vector<float>> concept_emb;
  for (int id = 0; id < num_concepts; ++id) {
    concept_emb.push_back(ReferenceEmbedding(
        options.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(id + 1),
        e));
  }
  std::vector<std::vector<float>> style_emb;
  for (int st = 0; st < world.num_styles(); ++st) {
    style_emb.push_back(ReferenceEmbedding(options.seed * 0x2545F4914F6CDD1DULL +
                                               0xABCD0000ULL +
                                               static_cast<uint64_t>(st),
                                           e));
  }
  const auto detect = [&](float a) {
    const double logit = (a - options.recognition_threshold) /
                         options.recognition_temperature;
    return 1.0 / (1.0 + std::exp(-logit));
  };
  *fallbacks = 0;
  linalg::Matrix out(pixels.rows(), e);
  for (int i = 0; i < pixels.rows(); ++i) {
    const float* x = pixels.Row(i);
    std::vector<float> weight(static_cast<size_t>(num_concepts));
    int best = 0;
    float best_affinity = -2.0f;
    double total_weight = 0.0;
    for (int u = 0; u < num_concepts; ++u) {
      const float a =
          linalg::CosineSimilarity(x, world.Prototype(u).data(), d);
      if (a > best_affinity) {
        best_affinity = a;
        best = u;
      }
      const double w = detect(a);
      weight[static_cast<size_t>(u)] = static_cast<float>(w);
      total_weight += w;
    }
    if (total_weight < 1e-3) {
      weight[static_cast<size_t>(best)] = 1.0f;
      ++*fallbacks;
    }
    float* row = out.Row(i);
    for (int u = 0; u < num_concepts; ++u) {
      const float w = weight[static_cast<size_t>(u)];
      if (w < 1e-4f) continue;
      for (int j = 0; j < e; ++j) {
        row[j] += w * concept_emb[static_cast<size_t>(u)][static_cast<size_t>(j)];
      }
    }
    if (options.style_response > 0.0f) {
      for (int st = 0; st < world.num_styles(); ++st) {
        const float a = linalg::CosineSimilarity(x, world.Style(st).data(), d);
        const float w = static_cast<float>(detect(a));
        if (w < 1e-4f) continue;
        for (int j = 0; j < e; ++j) {
          row[j] += options.style_response * w *
                    style_emb[static_cast<size_t>(st)][static_cast<size_t>(j)];
        }
      }
    }
    Rng noise_rng(ReferenceHashPixels(x, d, options.seed));
    for (int j = 0; j < e; ++j) {
      row[j] += options.image_noise / std::sqrt(static_cast<float>(e)) *
                static_cast<float>(noise_rng.Normal());
    }
    ReferenceNormalize(row, e);
  }
  return out;
}

/// Largest element-wise |a - b| (NaN if any element is NaN); the shapes
/// must agree.
float MaxAbsDiff(const linalg::Matrix& a, const linalg::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  float diff = 0.0f;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return d;
    diff = std::max(diff, d);
  }
  return diff;
}

TEST(PromptTest, RendersTemplates) {
  EXPECT_EQ(RenderPrompt(PromptTemplate::kAPhotoOfThe, "cat"),
            "a photo of the cat.");
  EXPECT_EQ(RenderPrompt(PromptTemplate::kThe, "cat"), "the cat.");
  EXPECT_EQ(RenderPrompt(PromptTemplate::kItContainsThe, "cat"),
            "it contains the cat.");
  EXPECT_STREQ(PromptTemplateName(PromptTemplate::kAPhotoOfThe), "photo");
}

class VlpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<data::SemanticWorld>(77);
    data::SyntheticOptions options;
    options.sizes = {120, 60, 30};
    Rng rng(78);
    dataset_ = data::MakeCifar10Like(world_.get(), options, &rng);
    vocab_ = data::MakeNusVocab(world_.get());
    vlp_options_.embed_dim = 64;
    vlp_ = std::make_unique<SimulatedVlpModel>(world_.get(), vlp_options_);
  }

  /// n images cycled from the dataset, each perturbed by fresh pixel noise
  /// and rescaled (norms 0.5x..2.5x) so rows are distinct and the tower's
  /// 1/|x| scaling is exercised.
  linalg::Matrix MakeBatch(int n) const {
    Rng rng(static_cast<uint64_t>(n) + 1000);
    linalg::Matrix batch(n, dataset_.pixels.cols());
    for (int i = 0; i < n; ++i) {
      const float* src = dataset_.pixels.Row(i % dataset_.num_images());
      const float scale = 0.5f + static_cast<float>(i % 5) * 0.5f;
      for (int j = 0; j < batch.cols(); ++j) {
        batch(i, j) =
            scale * (src[j] + 0.02f * static_cast<float>(rng.Normal()));
      }
    }
    return batch;
  }

  /// Max |tower - reference| over `pixels`, for a model built with
  /// `options`; `fallbacks` as in ReferenceEncodeImages.
  float TowerError(const VlpOptions& options, const linalg::Matrix& pixels,
                   int* fallbacks) const {
    const SimulatedVlpModel vlp(world_.get(), options);
    return MaxAbsDiff(vlp.EncodeImages(pixels),
                      ReferenceEncodeImages(*world_, vlp.num_known_concepts(),
                                            options, pixels, fallbacks));
  }

  std::unique_ptr<data::SemanticWorld> world_;
  data::Dataset dataset_;
  data::ConceptVocab vocab_;
  VlpOptions vlp_options_;
  std::unique_ptr<SimulatedVlpModel> vlp_;
};

// Batch sizes straddle kPackedMinFlops in both products (the affinity
// product goes packed from ~8 rows, the composition product from ~36) and
// include sizes that are not multiples of the 6-row micro-tile.
TEST_F(VlpFixture, TowerMatchesPerPairReferenceAcrossBatchSizes) {
  for (const int n : {1, 5, 7, 64, 301}) {
    int fallbacks = 0;
    EXPECT_LE(TowerError(vlp_options_, MakeBatch(n), &fallbacks),
              kTowerTolerance)
        << "n=" << n;
  }
}

TEST_F(VlpFixture, TowerMatchesReferenceOnZeroPixelRow) {
  for (const int n : {5, 64}) {
    linalg::Matrix pixels = MakeBatch(n);
    std::fill(pixels.Row(3), pixels.Row(3) + pixels.cols(), 0.0f);
    int fallbacks = 0;
    EXPECT_LE(TowerError(vlp_options_, pixels, &fallbacks), kTowerTolerance)
        << "n=" << n;
  }
}

TEST_F(VlpFixture, TowerMatchesReferenceOnNearestPrototypeFallback) {
  // Few affinities clear 0.95, so most images' detection mass stays under
  // the fallback floor (at the default threshold pixels alone never get
  // there).
  VlpOptions options = vlp_options_;
  options.recognition_threshold = 0.95f;
  const linalg::Matrix pixels = MakeBatch(64);
  int fallbacks = 0;
  EXPECT_LE(TowerError(options, pixels, &fallbacks), kTowerTolerance);
  EXPECT_GT(fallbacks, pixels.rows() / 2);
}

TEST_F(VlpFixture, TowerMatchesReferenceWithoutStyleResponse) {
  VlpOptions options = vlp_options_;
  options.style_response = 0.0f;
  int fallbacks = 0;
  EXPECT_LE(TowerError(options, MakeBatch(64), &fallbacks), kTowerTolerance);
}

TEST_F(VlpFixture, RowEncodedAloneMatchesRowInLargeBatch) {
  const linalg::Matrix pixels = MakeBatch(301);
  const linalg::Matrix batch = vlp_->EncodeImages(pixels);
  for (const int i : {0, 1, 150, 299, 300}) {
    const linalg::Matrix alone = vlp_->EncodeImages(pixels.SelectRows({i}));
    for (int j = 0; j < alone.cols(); ++j) {
      EXPECT_NEAR(alone(0, j), batch(i, j), kTowerTolerance)
          << "row " << i << " col " << j;
    }
  }
}

TEST_F(VlpFixture, ImageEmbeddingsAreUnitNorm) {
  const linalg::Matrix emb = vlp_->EncodeImages(dataset_.pixels);
  EXPECT_EQ(emb.rows(), dataset_.num_images());
  EXPECT_EQ(emb.cols(), 64);
  for (int i = 0; i < emb.rows(); ++i) {
    EXPECT_NEAR(linalg::Norm2(emb.Row(i), emb.cols()), 1.0f, 1e-4f);
  }
}

TEST_F(VlpFixture, ConceptEmbeddingsAreUnitNormAndTemplateDependent) {
  const linalg::Matrix a =
      vlp_->EncodeConcepts(vocab_.ids, PromptTemplate::kAPhotoOfThe);
  const linalg::Matrix b =
      vlp_->EncodeConcepts(vocab_.ids, PromptTemplate::kItContainsThe);
  EXPECT_EQ(a.rows(), vocab_.size());
  for (int j = 0; j < a.rows(); ++j) {
    EXPECT_NEAR(linalg::Norm2(a.Row(j), a.cols()), 1.0f, 1e-4f);
  }
  // Different templates perturb the embeddings differently.
  float max_diff = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.data()[i] - b.data()[i]));
  }
  EXPECT_GT(max_diff, 1e-3f);
}

TEST_F(VlpFixture, ScoresAreInUnitInterval) {
  const linalg::Matrix scores = vlp_->ScoreImagesAgainstConcepts(
      dataset_.pixels, vocab_.ids, PromptTemplate::kAPhotoOfThe);
  EXPECT_EQ(scores.rows(), dataset_.num_images());
  EXPECT_EQ(scores.cols(), vocab_.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_GE(scores.data()[i], 0.0f);
    EXPECT_LE(scores.data()[i], 1.0f);
  }
}

TEST_F(VlpFixture, TrueConceptScoresHigherThanAverage) {
  // For each image, the score of its true class concept should beat the
  // mean score over the vocabulary in the vast majority of cases.
  const linalg::Matrix scores = vlp_->ScoreImagesAgainstConcepts(
      dataset_.pixels, vocab_.ids, PromptTemplate::kAPhotoOfThe);
  // Map universe id -> vocab column.
  auto column_of = [&](int universe_id) {
    for (int j = 0; j < vocab_.size(); ++j) {
      if (vocab_.ids[static_cast<size_t>(j)] == universe_id) return j;
    }
    return -1;
  };
  int wins = 0;
  int considered = 0;
  for (int i = 0; i < dataset_.num_images(); ++i) {
    const int col = column_of(dataset_.labels[static_cast<size_t>(i)][0]);
    if (col < 0) continue;  // class not in vocabulary (e.g. deer/frog)
    ++considered;
    double mean = 0.0;
    for (int j = 0; j < vocab_.size(); ++j) mean += scores(i, j);
    mean /= vocab_.size();
    if (scores(i, col) > mean) ++wins;
  }
  ASSERT_GT(considered, 0);
  EXPECT_GT(static_cast<double>(wins) / considered, 0.95);
}

TEST_F(VlpFixture, DefaultTemplateAlignsBetterThanNoisyTemplates) {
  // Aggregate margin (true-concept score minus vocabulary mean) should be
  // largest for the best-aligned template, per the §4.4.3 ablation.
  auto margin_for = [&](PromptTemplate tmpl) {
    const linalg::Matrix scores = vlp_->ScoreImagesAgainstConcepts(
        dataset_.pixels, vocab_.ids, tmpl);
    auto column_of = [&](int universe_id) {
      for (int j = 0; j < vocab_.size(); ++j) {
        if (vocab_.ids[static_cast<size_t>(j)] == universe_id) return j;
      }
      return -1;
    };
    double margin = 0.0;
    int considered = 0;
    for (int i = 0; i < dataset_.num_images(); ++i) {
      const int col = column_of(dataset_.labels[static_cast<size_t>(i)][0]);
      if (col < 0) continue;
      double mean = 0.0;
      for (int j = 0; j < vocab_.size(); ++j) mean += scores(i, j);
      mean /= vocab_.size();
      margin += scores(i, col) - mean;
      ++considered;
    }
    return margin / considered;
  };
  const double photo = margin_for(PromptTemplate::kAPhotoOfThe);
  const double the = margin_for(PromptTemplate::kThe);
  const double contains = margin_for(PromptTemplate::kItContainsThe);
  EXPECT_GT(photo, the);
  EXPECT_GT(the, contains * 0.8);  // ordering holds, allow slack
}

TEST_F(VlpFixture, ScoringIsDeterministic) {
  const linalg::Matrix a = vlp_->ScoreImagesAgainstConcepts(
      dataset_.pixels, vocab_.ids, PromptTemplate::kAPhotoOfThe);
  const linalg::Matrix b = vlp_->ScoreImagesAgainstConcepts(
      dataset_.pixels, vocab_.ids, PromptTemplate::kAPhotoOfThe);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST_F(VlpFixture, SnapshotRejectsLaterConcepts) {
  // Concepts registered after model construction are unknown to it.
  const linalg::Matrix pixels = MakeBatch(64);
  const linalg::Matrix before = vlp_->EncodeImages(pixels);
  const int known = vlp_->num_known_concepts();
  const int new_id = world_->RegisterConcept("brand-new-concept");
  EXPECT_GE(new_id, vlp_->num_known_concepts());
  EXPECT_EQ(vlp_->num_known_concepts(), known);
  // The tower's detectors are a snapshot, so its output does not move.
  const linalg::Matrix after = vlp_->EncodeImages(pixels);
  EXPECT_EQ(MaxAbsDiff(before, after), 0.0f);
}

}  // namespace
}  // namespace uhscm::vlp
