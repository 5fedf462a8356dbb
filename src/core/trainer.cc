#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/logging.h"
#include "core/augment.h"
#include "core/concept_denoiser.h"
#include "core/similarity.h"
#include "linalg/ops.h"

namespace uhscm::core {

UhscmConfig DefaultConfigFor(const std::string& dataset_name, int bits) {
  UhscmConfig config;
  config.bits = bits;
  config.network.bits = bits;
  if (dataset_name == "cifar") {
    config.alpha = 0.2f;
    config.lambda = 0.8f;
    config.gamma = 0.2f;
    config.beta = 0.001f;
  } else if (dataset_name == "nuswide") {
    config.alpha = 0.1f;
    config.lambda = 0.5f;
    config.gamma = 0.2f;
    config.beta = 0.001f;
  } else if (dataset_name == "flickr") {
    config.alpha = 0.3f;
    config.lambda = 0.6f;
    config.gamma = 0.5f;
    config.beta = 0.001f;
  }
  return config;
}

linalg::Matrix UhscmModel::Encode(const linalg::Matrix& pixels) const {
  UHSCM_CHECK(network != nullptr, "UhscmModel::Encode: model not trained");
  return network->EncodeBinary(pixels);
}

UhscmTrainer::UhscmTrainer(const vlp::SimulatedVlpModel* vlp,
                           const UhscmConfig& config)
    : vlp_(vlp), config_(config) {
  UHSCM_CHECK(vlp != nullptr, "UhscmTrainer: null VLP model");
}

namespace {

/// The denoised-concept similarity factor for one prompt, and the names
/// of the concepts it kept when `retained_concepts` is non-null.
SimilarityFactor DenoisedSimilarity(
    const vlp::SimulatedVlpModel* vlp, const linalg::Matrix& train_pixels,
    const data::ConceptVocab& vocab, const ConceptMinerOptions& options,
    std::vector<std::string>* retained_concepts) {
  // Algorithm 1, steps 2-5, on one VLP scoring pass: the second mining
  // pass re-softmaxes the kept columns of the full-vocabulary scores with
  // tau pinned to the original vocabulary size (see ConceptMinerOptions).
  // Each score depends only on its own (image, concept) pair, so these
  // columns are byte for byte what re-scoring the denoised vocabulary
  // gives.
  const ConceptMiner miner(vlp, options);
  const linalg::Matrix scores = miner.ScoreConcepts(train_pixels, vocab);
  const DenoiseResult denoised =
      DenoiseConcepts(miner.DistributionsFromScores(scores), vocab);
  const int kept = static_cast<int>(denoised.kept_positions.size());
  linalg::Matrix kept_scores(scores.rows(), kept);
  for (int i = 0; i < scores.rows(); ++i) {
    const float* src = scores.Row(i);
    float* dst = kept_scores.Row(i);
    for (int c = 0; c < kept; ++c) {
      dst[c] = src[denoised.kept_positions[static_cast<size_t>(c)]];
    }
  }
  ConceptMinerOptions pinned = options;
  pinned.tau_concepts_override = vocab.size();
  if (retained_concepts != nullptr) *retained_concepts = denoised.vocab.names;
  return SimilarityFromDistributions(
      ConceptMiner(vlp, pinned).DistributionsFromScores(kept_scores));
}

}  // namespace

Result<UhscmTrainer::SimilarityArtifacts> UhscmTrainer::BuildSimilarity(
    const linalg::Matrix& train_pixels, const data::ConceptVocab& vocab,
    Rng* rng) const {
  ConceptMinerOptions miner_options;
  miner_options.tau_multiplier = config_.tau_multiplier;
  miner_options.prompt = config_.prompt;
  ConceptMiner miner(vlp_, miner_options);

  SimilarityArtifacts artifacts;
  switch (config_.similarity_source) {
    case SimilaritySource::kDenoisedConcepts:
      artifacts.q = DenoisedSimilarity(vlp_, train_pixels, vocab,
                                       miner_options,
                                       &artifacts.retained_concepts);
      break;
    case SimilaritySource::kRawConcepts: {
      const linalg::Matrix d = miner.MineDistributions(train_pixels, vocab);
      artifacts.q = SimilarityFromDistributions(d);
      break;
    }
    case SimilaritySource::kImageFeatures: {
      const linalg::Matrix features = vlp_->EncodeImages(train_pixels);
      const SimilarityFactor unit = SimilarityFromDistributions(features);
      // Feature cosines live in [-1, 1]; Q = 0.5 (1 + cos) shifts them to
      // [0, 1] so lambda keeps the same meaning across similarity sources.
      // As a factor: [F / sqrt(2) | 1 / sqrt(2)].
      const float half = std::sqrt(0.5f);
      artifacts.q.f = linalg::Matrix(unit.f.rows(), unit.f.cols() + 1, half);
      for (int i = 0; i < unit.f.rows(); ++i) {
        const float* src = unit.f.Row(i);
        float* dst = artifacts.q.f.Row(i);
        for (int c = 0; c < unit.f.cols(); ++c) dst[c] = half * src[c];
      }
      break;
    }
    case SimilaritySource::kKMeansClusters: {
      const linalg::Matrix scores = miner.ScoreConcepts(train_pixels, vocab);
      Result<linalg::Matrix> merged =
          ClusterConceptsKMeans(scores, config_.kmeans_clusters, rng);
      if (!merged.ok()) return merged.status();
      const linalg::Matrix d =
          miner.DistributionsFromScores(merged.ValueOrDie());
      artifacts.q = SimilarityFromDistributions(d);
      break;
    }
    case SimilaritySource::kAveragePrompts: {
      std::vector<SimilarityFactor> factors;
      for (vlp::PromptTemplate tmpl :
           {vlp::PromptTemplate::kAPhotoOfThe, vlp::PromptTemplate::kThe,
            vlp::PromptTemplate::kItContainsThe}) {
        ConceptMinerOptions opt = miner_options;
        opt.prompt = tmpl;
        factors.push_back(
            DenoisedSimilarity(vlp_, train_pixels, vocab, opt, nullptr));
      }
      artifacts.q = AverageSimilarity(factors);
      break;
    }
  }
  return artifacts;
}

Result<UhscmModel> UhscmTrainer::Train(const linalg::Matrix& train_pixels,
                                       const data::ConceptVocab& vocab) const {
  if (train_pixels.rows() < 2) {
    return Status::InvalidArgument("Train: need at least 2 training images");
  }
  Rng rng(config_.seed);

  Result<SimilarityArtifacts> sim =
      BuildSimilarity(train_pixels, vocab, &rng);
  if (!sim.ok()) return sim.status();

  UhscmModel model;
  model.similarity = std::move(sim.ValueOrDie().q);
  model.retained_concepts = std::move(sim.ValueOrDie().retained_concepts);

  model.network = std::make_unique<HashingNetwork>(
      train_pixels.cols(), [&] {
        HashingNetworkOptions net = config_.network;
        net.bits = config_.bits;
        return net;
      }(), &rng);

  nn::SgdOptions sgd_options;
  sgd_options.learning_rate = config_.learning_rate;
  sgd_options.momentum = config_.momentum;
  sgd_options.weight_decay = config_.weight_decay;
  nn::SgdOptimizer optimizer(model.network->model(), sgd_options);

  UhscmLossOptions loss_options;
  loss_options.alpha = config_.alpha;
  loss_options.beta = config_.beta;
  loss_options.gamma = config_.gamma;
  loss_options.lambda = config_.lambda;
  loss_options.disable_contrastive =
      config_.contrastive_mode == ContrastiveMode::kNone;

  const int n = train_pixels.rows();
  const int batch = std::min(config_.batch_size, n);
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;

  AugmentOptions augment_options;  // used only in kOriginal mode
  // Patience-based convergence: SGD epoch losses are noisy, so require
  // several consecutive epochs without meaningful improvement over the
  // best loss seen before stopping.
  double best_loss = std::numeric_limits<double>::max();
  int stall_epochs = 0;
  constexpr int kPatience = 4;

  for (int epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int steps = 0;

    for (int start = 0; start + 2 <= n; start += batch) {
      const int end = std::min(start + batch, n);
      std::vector<int> batch_idx(order.begin() + start, order.begin() + end);
      const int t = static_cast<int>(batch_idx.size());
      if (t < 2) continue;

      linalg::Matrix x = train_pixels.SelectRows(batch_idx);
      const linalg::Matrix q_batch = model.similarity.Block(batch_idx);

      optimizer.ZeroGrad();
      double step_loss = 0.0;
      if (config_.contrastive_mode == ContrastiveMode::kOriginal) {
        // UHSCM_CL: Ls + quantization on view 1, J_c across two views.
        linalg::Matrix x2 = AugmentPixels(x, augment_options, &rng);
        linalg::Matrix stacked(2 * t, x.cols());
        for (int i = 0; i < t; ++i) {
          std::copy(x.Row(i), x.Row(i) + x.cols(), stacked.Row(i));
          std::copy(x2.Row(i), x2.Row(i) + x.cols(), stacked.Row(t + i));
        }
        linalg::Matrix z_all = model.network->Forward(std::move(stacked));

        linalg::Matrix z1(t, z_all.cols());
        for (int i = 0; i < t; ++i) {
          std::copy(z_all.Row(i), z_all.Row(i) + z_all.cols(), z1.Row(i));
        }
        UhscmLossOptions base = loss_options;
        base.disable_contrastive = true;  // Lc replaced by J_c
        LossAndGrad l2 = UhscmBatchLoss(z1, q_batch, base);
        LossAndGrad jc =
            OriginalContrastiveLoss(z_all, t, loss_options.gamma);

        linalg::Matrix dz_all = jc.dz;
        dz_all.Scale(loss_options.alpha);
        for (int i = 0; i < t; ++i) {
          float* dst = dz_all.Row(i);
          const float* src = l2.dz.Row(i);
          for (int c = 0; c < dz_all.cols(); ++c) dst[c] += src[c];
        }
        step_loss = l2.loss + loss_options.alpha * jc.loss;
        model.network->Backward(std::move(dz_all));
      } else {
        linalg::Matrix z = model.network->Forward(std::move(x));
        LossAndGrad lg = UhscmBatchLoss(z, q_batch, loss_options);
        step_loss = lg.loss;
        model.network->Backward(std::move(lg.dz));
      }
      optimizer.Step();
      epoch_loss += step_loss;
      ++steps;
    }

    epoch_loss /= std::max(steps, 1);
    model.epoch_losses.push_back(epoch_loss);
    UHSCM_LOG(Debug) << "epoch " << epoch << " loss " << epoch_loss;

    if (best_loss - epoch_loss >
        config_.convergence_tol * std::fabs(best_loss)) {
      best_loss = epoch_loss;
      stall_epochs = 0;
    } else if (++stall_epochs >= kPatience) {
      break;
    }
  }
  return model;
}

}  // namespace uhscm::core
