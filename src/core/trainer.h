#ifndef UHSCM_CORE_TRAINER_H_
#define UHSCM_CORE_TRAINER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/concept_miner.h"
#include "core/hashing_network.h"
#include "core/losses.h"
#include "core/similarity.h"
#include "data/concept_vocab.h"
#include "nn/sgd.h"
#include "vlp/simulated_vlp.h"

namespace uhscm::core {

/// How the semantic similarity matrix Q is constructed — the knob behind
/// the Table 2 ablations.
enum class SimilaritySource {
  /// Full UHSCM: mine, frequency-denoise (Eq. 4-5), re-mine, cosine.
  kDenoisedConcepts = 0,
  /// UHSCM_w/o_de: cosine of raw (un-denoised) concept distributions.
  kRawConcepts,
  /// UHSCM_IF: cosine of the VLP's image features; no concept mining.
  kImageFeatures,
  /// UHSCM_cN: k-means over concepts, clusters as merged pseudo-concepts.
  kKMeansClusters,
  /// UHSCM_avg: mean of the similarity matrices from all three prompts.
  kAveragePrompts,
};

/// Which regularizer accompanies Ls — Table 2 rows 13-14.
enum class ContrastiveMode {
  kModified = 0,  ///< the paper's Lc (Eq. 8)
  kNone,          ///< UHSCM_w/o_MCL
  kOriginal,      ///< UHSCM_CL: two-view J_c (Eq. 10)
};

/// Everything Algorithm 1 needs. Defaults are the paper's §4.1/§4.6
/// settings for CIFAR10.
struct UhscmConfig {
  int bits = 64;
  // Loss hyper-parameters (Eq. 11 / §4.6).
  float alpha = 0.2f;
  float beta = 0.001f;
  float gamma = 0.2f;
  float lambda = 0.8f;
  // Mining (§3.3.1 / §4.6).
  float tau_multiplier = 3.0f;
  vlp::PromptTemplate prompt = vlp::PromptTemplate::kAPhotoOfThe;
  // Optimization (§4.1). The paper fixes lr = 0.006 for *fine-tuning* an
  // ImageNet-pretrained VGG19; this repo's backbone substitute is trained
  // from scratch (DESIGN.md §1), where 0.006 stalls — 0.05 is the
  // retuned equivalent. All deep methods share the same value for the
  // paper's fairness protocol.
  float learning_rate = 0.02f;
  float momentum = 0.9f;
  float weight_decay = 1e-5f;
  int batch_size = 128;
  int max_epochs = 30;
  /// Early-stop when the epoch-mean loss improves by less than this
  /// relative amount.
  double convergence_tol = 1e-4;
  // Variant switches (ablations).
  SimilaritySource similarity_source = SimilaritySource::kDenoisedConcepts;
  ContrastiveMode contrastive_mode = ContrastiveMode::kModified;
  /// Only for kKMeansClusters: the N of UHSCM_cN.
  int kmeans_clusters = 40;
  // Network shape.
  HashingNetworkOptions network;
  uint64_t seed = 42;
};

/// Paper hyper-parameters per dataset (§4.6): alpha/lambda/gamma/beta.
UhscmConfig DefaultConfigFor(const std::string& dataset_name, int bits);

/// Artifacts of a completed run.
struct UhscmModel {
  std::unique_ptr<HashingNetwork> network;
  /// The semantic similarity Q actually used, held as its n_train x r
  /// factor; Train forms each batch's t x t block with Block().
  SimilarityFactor similarity;
  /// Retained concept names after denoising (empty for the non-concept
  /// similarity sources).
  std::vector<std::string> retained_concepts;
  /// Mean total loss per epoch (diagnostics; monotone-ish decreasing).
  std::vector<double> epoch_losses;

  /// Binary codes in {-1,+1}^{n x k} for arbitrary images.
  linalg::Matrix Encode(const linalg::Matrix& pixels) const;
};

/// \brief End-to-end UHSCM (Algorithm 1): builds the semantic similarity
/// matrix with the simulated VLP, then trains the hashing network by
/// mini-batch SGD on Eq. (11). Q is kept as its factor (SimilarityFactor)
/// and only the blocks the batches read are ever formed.
class UhscmTrainer {
 public:
  UhscmTrainer(const vlp::SimulatedVlpModel* vlp, const UhscmConfig& config);

  /// Steps 2-5 of Algorithm 1: similarity construction only. Exposed for
  /// tests, diagnostics, and the concept-mining example.
  struct SimilarityArtifacts {
    SimilarityFactor q;  ///< factor of the n_train x n_train Q
    std::vector<std::string> retained_concepts;
  };
  Result<SimilarityArtifacts> BuildSimilarity(
      const linalg::Matrix& train_pixels, const data::ConceptVocab& vocab,
      Rng* rng) const;

  /// Full Algorithm 1. `train_pixels` are the rows of X the model is
  /// fitted on; `vocab` is the randomly collected concept set C.
  Result<UhscmModel> Train(const linalg::Matrix& train_pixels,
                           const data::ConceptVocab& vocab) const;

  const UhscmConfig& config() const { return config_; }

 private:
  const vlp::SimulatedVlpModel* vlp_;
  UhscmConfig config_;
};

}  // namespace uhscm::core

#endif  // UHSCM_CORE_TRAINER_H_
