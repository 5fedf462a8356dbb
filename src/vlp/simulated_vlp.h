#ifndef UHSCM_VLP_SIMULATED_VLP_H_
#define UHSCM_VLP_SIMULATED_VLP_H_

#include <vector>

#include "data/world.h"
#include "linalg/matrix.h"
#include "vlp/prompt.h"

namespace uhscm::vlp {

/// Tunables of the simulated CLIP model.
struct VlpOptions {
  /// Joint image/text embedding dimensionality.
  int embed_dim = 128;
  /// The image tower detects a concept when its pixel-prototype affinity
  /// clears a soft threshold: weight = sigmoid((affinity - threshold) /
  /// temperature). A sigmoid (rather than a softmax over concepts) lets
  /// *every* sufficiently present concept contribute to the embedding,
  /// which is what makes multi-label images score high against all of
  /// their labels — the property UHSCM's NUS-WIDE/MIRFlickr experiments
  /// rely on.
  float recognition_threshold = 0.35f;
  float recognition_temperature = 0.05f;
  /// Isotropic noise added to every image embedding (deterministic per
  /// image content), modelling the finite zero-shot accuracy of CLIP.
  float image_noise = 0.55f;
  /// How strongly the image tower encodes non-semantic appearance (the
  /// world's style directions) alongside the recognized concepts. Real
  /// CLIP image features carry background/color/pose signal, which is why
  /// raw image-feature cosine (the UHSCM_IF ablation) is *weaker* guiding
  /// information than prompted concept scores: the text tower has no
  /// style subspace, so scoring against prompts projects the style away
  /// while image-image cosine keeps it.
  float style_response = 0.75f;
  /// Per-template text-tower misalignment noise. Index by PromptTemplate.
  /// The default template is the best-aligned, matching §4.4.3.
  float template_noise[3] = {0.20f, 0.55f, 0.80f};
  /// Calibration of the emitted score: score = offset + scale * cosine.
  /// Real CLIP similarity scores occupy a narrow band (cosines of
  /// matched/unmatched pairs differ by ~0.05-0.15, not by 1.0); the
  /// narrow band is what makes the paper's tau = 3m softmax spread mass
  /// over the several concepts a multi-label image contains instead of
  /// going one-hot. offset 0.5 / scale 0.1 reproduces that band.
  float score_offset = 0.5f;
  float score_scale = 0.1f;
  /// Stream id so independent VLP instances can be drawn from one world.
  uint64_t seed = 0xC11Fu;
};

/// \brief A stand-in for the pretrained CLIP model (see DESIGN.md §1).
///
/// Dual-encoder over the SemanticWorld: the text tower embeds a concept
/// (through a prompt template that perturbs alignment), the image tower
/// recognizes concepts from raw pixels by prototype affinity and composes
/// their embeddings. The model never sees dataset labels — it scores
/// images purely from pixel content plus its "pretraining" (the world's
/// prototypes), so spurious detections on confusable concepts arise
/// naturally, which is the failure mode UHSCM's denoising step exists to
/// handle.
///
/// The image tower is two GEMMs per batch: pixels times the unit detector
/// directions (concept prototypes, then style directions) gives every
/// affinity at once, a per-row pass turns affinities into detection
/// weights, and weights times the matching embeddings composes the
/// embedding. An image's embedding therefore depends only on its pixels
/// up to float reassociation (~1e-6 across batch shapes and kernel
/// tiers), and its noise stream still depends only on its content.
///
/// `F_VLP(x_i, t_j; Theta)` of Eq. (1) is `ScoreImagesAgainstConcepts`.
class SimulatedVlpModel {
 public:
  /// Snapshots the world's currently registered concepts and its styles
  /// into the detector and composition matrices. Register all dataset
  /// classes and vocabularies before constructing the model.
  SimulatedVlpModel(const data::SemanticWorld* world,
                    const VlpOptions& options = {});

  int embed_dim() const { return options_.embed_dim; }
  int num_known_concepts() const { return num_concepts_; }
  const VlpOptions& options() const { return options_; }

  /// Image tower: n x embed_dim unit-norm embeddings from raw pixels.
  /// These are also the "image features extracted by the CLIP model" of
  /// the UHSCM_IF ablation (§4.4.2).
  linalg::Matrix EncodeImages(const linalg::Matrix& pixels) const;

  /// Text tower: m x embed_dim unit-norm embeddings of prompted concepts.
  linalg::Matrix EncodeConcepts(const std::vector<int>& concept_ids,
                                PromptTemplate tmpl) const;

  /// Eq. (1): n x m image-text similarity scores in [0, 1] (cosine mapped
  /// affinely by score_offset + score_scale * c; see VlpOptions).
  linalg::Matrix ScoreImagesAgainstConcepts(
      const linalg::Matrix& pixels, const std::vector<int>& concept_ids,
      PromptTemplate tmpl) const;

 private:
  linalg::Vector BaseTextEmbedding(int concept_id) const;

  VlpOptions options_;
  int num_concepts_;
  /// (num_concepts + num_styles) x pixel_dim unit detector directions:
  /// the concept prototypes, then the world's style directions.
  linalg::Matrix detectors_;
  /// Matching (num_concepts + num_styles) x embed_dim composition rows:
  /// the base (template-free) concept embeddings, then the appearance
  /// embeddings of the styles.
  linalg::Matrix composition_;
};

}  // namespace uhscm::vlp

#endif  // UHSCM_VLP_SIMULATED_VLP_H_
