#include "vlp/simulated_vlp.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/ops.h"

namespace uhscm::vlp {

namespace {

/// Content hash of a pixel row -> deterministic per-image noise stream.
uint64_t HashPixels(const float* row, int n, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (int i = 0; i < n; ++i) {
    uint32_t bits;
    static_assert(sizeof(bits) == sizeof(float));
    __builtin_memcpy(&bits, &row[i], sizeof(bits));
    h ^= bits;
    h *= 1099511628211ULL;
  }
  return h;
}

void NormalizeInPlace(float* v, int n) {
  const float norm = linalg::Norm2(v, n);
  if (norm > 1e-12f) {
    const float inv = 1.0f / norm;
    for (int i = 0; i < n; ++i) v[i] *= inv;
  }
}

}  // namespace

SimulatedVlpModel::SimulatedVlpModel(const data::SemanticWorld* world,
                                     const VlpOptions& options)
    : options_(options),
      num_concepts_(world->num_concepts()) {
  UHSCM_CHECK(world != nullptr, "SimulatedVlpModel: null world");
  UHSCM_CHECK(num_concepts_ > 0,
              "SimulatedVlpModel: world has no registered concepts");
  const int d = world->pixel_dim();
  const int e = options_.embed_dim;
  const int rows = num_concepts_ + world->num_styles();
  detectors_ = linalg::Matrix(rows, d);
  composition_ = linalg::Matrix(rows, e);
  const auto add_detector = [&](int u, const linalg::Vector& direction,
                                uint64_t embed_seed) {
    std::copy(direction.begin(), direction.end(), detectors_.Row(u));
    NormalizeInPlace(detectors_.Row(u), d);
    Rng rng(embed_seed);
    float* row = composition_.Row(u);
    for (int j = 0; j < e; ++j) row[j] = static_cast<float>(rng.Normal());
    NormalizeInPlace(row, e);
  };
  // Base embeddings are deterministic per (vlp seed, concept id) and per
  // (vlp seed, style index).
  for (int id = 0; id < num_concepts_; ++id) {
    add_detector(id, world->Prototype(id),
                 options_.seed * 0x9E3779B97F4A7C15ULL +
                     static_cast<uint64_t>(id + 1));
  }
  for (int st = 0; st < world->num_styles(); ++st) {
    add_detector(num_concepts_ + st, world->Style(st),
                 options_.seed * 0x2545F4914F6CDD1DULL + 0xABCD0000ULL +
                     static_cast<uint64_t>(st));
  }
}

linalg::Vector SimulatedVlpModel::BaseTextEmbedding(int concept_id) const {
  UHSCM_CHECK(concept_id >= 0 && concept_id < num_concepts_,
              "BaseTextEmbedding: concept unknown to this VLP snapshot");
  return composition_.RowVector(concept_id);
}

linalg::Matrix SimulatedVlpModel::EncodeImages(
    const linalg::Matrix& pixels) const {
  UHSCM_CHECK(pixels.cols() == detectors_.cols(),
              "EncodeImages: pixel dim mismatch");
  const int n = pixels.rows();
  const int d = pixels.cols();
  const int e = options_.embed_dim;
  const int rows = detectors_.rows();
  // Recognize: affinity of every image with every detector direction.
  // Each becomes a soft-threshold detection weight, so every concept that
  // clears the threshold contributes and a multi-label image embeds near
  // the mean of all its labels' embeddings instead of collapsing onto the
  // strongest one.
  linalg::Matrix weights = linalg::MatMulTransB(pixels, detectors_);
  const auto detect = [&](float affinity) {
    const double logit = (affinity - options_.recognition_threshold) /
                         options_.recognition_temperature;
    return 1.0 / (1.0 + std::exp(-logit));
  };
  const float style_gain = std::max(options_.style_response, 0.0f);
  ParallelFor(n, [&](int i) {
    // Detectors are unit-norm, so dot / |x| is the cosine (0 for a zero
    // image, as CosineSimilarity has it).
    const float norm = linalg::Norm2(pixels.Row(i), d);
    const float inv_norm = norm < 1e-12f ? 0.0f : 1.0f / norm;
    float* w = weights.Row(i);
    int best = 0;
    float best_affinity = -2.0f;
    double total_weight = 0.0;
    for (int u = 0; u < num_concepts_; ++u) {
      const float a = w[u] * inv_norm;
      if (a > best_affinity) {
        best_affinity = a;
        best = u;
      }
      const double p = detect(a);
      w[u] = static_cast<float>(p);
      total_weight += p;
    }
    if (total_weight < 1e-3) {
      // Nothing detected (extremely noisy image): fall back to the
      // nearest prototype so the embedding stays informative.
      w[best] = 1.0f;
    }
    for (int u = 0; u < num_concepts_; ++u) {
      if (w[u] < 1e-4f) w[u] = 0.0f;
    }
    // Appearance response: the tower also encodes the detected styles.
    for (int u = num_concepts_; u < rows; ++u) {
      const float p = static_cast<float>(detect(w[u] * inv_norm));
      w[u] = p < 1e-4f ? 0.0f : style_gain * p;
    }
  });
  // Compose: weighted sum of concept and style embeddings.
  linalg::Matrix out = linalg::MatMul(weights, composition_);
  const float noise_sigma =
      options_.image_noise / std::sqrt(static_cast<float>(e));
  ParallelFor(n, [&](int i) {
    // Deterministic per-image encoder noise.
    Rng noise_rng(HashPixels(pixels.Row(i), d, options_.seed));
    float* row = out.Row(i);
    for (int j = 0; j < e; ++j) {
      row[j] += noise_sigma * static_cast<float>(noise_rng.Normal());
    }
    NormalizeInPlace(row, e);
  });
  return out;
}

linalg::Matrix SimulatedVlpModel::EncodeConcepts(
    const std::vector<int>& concept_ids, PromptTemplate tmpl) const {
  const int m = static_cast<int>(concept_ids.size());
  const int e = options_.embed_dim;
  linalg::Matrix out(m, e);
  const float sigma =
      options_.template_noise[static_cast<int>(tmpl)] /
      std::sqrt(static_cast<float>(e));
  for (int j = 0; j < m; ++j) {
    const int id = concept_ids[static_cast<size_t>(j)];
    linalg::Vector base = BaseTextEmbedding(id);
    // Template misalignment: deterministic per (template, concept).
    Rng rng(options_.seed + 0xBEEF0000ULL +
            static_cast<uint64_t>(static_cast<int>(tmpl)) * 0x10001ULL +
            static_cast<uint64_t>(id) * 7919ULL);
    float* row = out.Row(j);
    for (int c = 0; c < e; ++c) {
      row[c] = base[static_cast<size_t>(c)] +
               sigma * static_cast<float>(rng.Normal());
    }
    NormalizeInPlace(row, e);
  }
  return out;
}

linalg::Matrix SimulatedVlpModel::ScoreImagesAgainstConcepts(
    const linalg::Matrix& pixels, const std::vector<int>& concept_ids,
    PromptTemplate tmpl) const {
  const linalg::Matrix img = EncodeImages(pixels);
  const linalg::Matrix txt = EncodeConcepts(concept_ids, tmpl);
  linalg::Matrix scores = linalg::MatMulTransB(img, txt);  // cosines
  for (size_t i = 0; i < scores.size(); ++i) {
    scores.data()[i] =
        options_.score_offset + options_.score_scale * scores.data()[i];
  }
  return scores;
}

}  // namespace uhscm::vlp
