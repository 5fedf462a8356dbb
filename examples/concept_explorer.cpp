// Concept explorer: a walkthrough of the semantic similarity generator
// (§3.3 of the paper) — the part of UHSCM that happens *before* any
// hashing.
//
//   $ ./build/examples/concept_explorer
//
// Shows, step by step:
//   - the VLP scores and mined concept distributions for sample images,
//   - the per-concept argmax frequencies f(c_i) (Eq. 4),
//   - which concepts the Eq. 5 band filter keeps vs. discards and why,
//   - how similarity matrix quality improves after denoising, measured
//     against the (hidden) ground-truth labels.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/concept_denoiser.h"
#include "core/concept_miner.h"
#include "core/similarity.h"
#include "data/concept_vocab.h"
#include "linalg/ops.h"
#include "data/synthetic.h"
#include "data/world.h"
#include "vlp/simulated_vlp.h"

namespace {

/// Mean similar-pair Q minus mean dissimilar-pair Q against ground truth.
double SimilarityQuality(const uhscm::data::Dataset& dataset,
                         const std::vector<int>& ids,
                         const uhscm::linalg::Matrix& q) {
  double sim = 0.0, dis = 0.0;
  int sim_n = 0, dis_n = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      if (dataset.Relevant(ids[i], ids[j])) {
        sim += q(static_cast<int>(i), static_cast<int>(j));
        ++sim_n;
      } else {
        dis += q(static_cast<int>(i), static_cast<int>(j));
        ++dis_n;
      }
    }
  }
  return sim / std::max(sim_n, 1) - dis / std::max(dis_n, 1);
}

}  // namespace

int main() {
  using namespace uhscm;

  data::SemanticWorld world(21);
  data::SyntheticOptions options = data::DefaultOptionsFor("cifar");
  options.sizes = {800, 400, 40};
  Rng rng(22);
  data::Dataset dataset = data::MakeCifar10Like(&world, options, &rng);
  data::ConceptVocab vocab = data::MakeNusVocab(&world);
  vlp::SimulatedVlpModel vlp(&world);

  const linalg::Matrix train_pixels =
      dataset.pixels.SelectRows(dataset.split.train);

  // --- Step 1: mine concept distributions (Eq. 1-2). ---
  core::ConceptMiner miner(&vlp);
  const linalg::Matrix d = miner.MineDistributions(train_pixels, vocab);
  std::printf("mined %dx%d concept distribution matrix (tau = 3m = %g)\n",
              d.rows(), d.cols(), 3.0 * vocab.size());

  const std::vector<int> primary = data::PrimaryClassIndex(dataset);
  std::printf("\nsample images and their top-3 mined concepts:\n");
  for (int i = 0; i < 5; ++i) {
    const int image = dataset.split.train[static_cast<size_t>(i)];
    std::vector<int> order(static_cast<size_t>(vocab.size()));
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + 3, order.end(),
                      [&](int a, int b) { return d(i, a) > d(i, b); });
    std::printf("  image %4d (true: %-6s) ->", image,
                dataset.class_names[static_cast<size_t>(
                    primary[static_cast<size_t>(image)])].c_str());
    for (int r = 0; r < 3; ++r) {
      std::printf(" %s:%.2f", vocab.names[static_cast<size_t>(order[static_cast<size_t>(r)])].c_str(),
                  d(i, order[static_cast<size_t>(r)]));
    }
    std::printf("\n");
  }

  // --- Step 2: concept frequencies and the Eq. 5 band filter. ---
  const core::DenoiseResult denoised = core::DenoiseConcepts(d, vocab);
  const double n = d.rows();
  const double m = vocab.size();
  std::printf("\nEq.5 keep-band: %.1f <= f(c) <= %.1f  (n=%d, m=%d)\n",
              0.5 * n / m, 0.5 * n, d.rows(), vocab.size());
  std::printf("kept %d / %d concepts:\n", denoised.vocab.size(),
              vocab.size());
  for (int j = 0; j < vocab.size(); ++j) {
    const bool kept =
        std::binary_search(denoised.kept_positions.begin(),
                           denoised.kept_positions.end(), j);
    if (kept) {
      std::printf("  keep    %-12s f=%d\n", vocab.names[static_cast<size_t>(j)].c_str(),
                  denoised.frequencies[static_cast<size_t>(j)]);
    }
  }
  int shown = 0;
  std::printf("discarded (first 10):\n");
  for (int j = 0; j < vocab.size() && shown < 10; ++j) {
    const bool kept =
        std::binary_search(denoised.kept_positions.begin(),
                           denoised.kept_positions.end(), j);
    if (!kept) {
      std::printf("  discard %-12s f=%d\n", vocab.names[static_cast<size_t>(j)].c_str(),
                  denoised.frequencies[static_cast<size_t>(j)]);
      ++shown;
    }
  }

  // --- Step 3: similarity quality, before vs. after denoising. ---
  // The second mining pass keeps tau pinned to the original vocabulary
  // size, exactly as the trainer does (ConceptMinerOptions).
  // Q is held as its factor; the quality probe reads every pair, so it
  // forms the whole train x train block.
  std::vector<int> all(dataset.split.train.size());
  std::iota(all.begin(), all.end(), 0);
  const linalg::Matrix q_raw = core::SimilarityFromDistributions(d).Block(all);
  core::ConceptMinerOptions pinned;
  pinned.tau_concepts_override = vocab.size();
  core::ConceptMiner pinned_miner(&vlp, pinned);
  const linalg::Matrix d_clean =
      pinned_miner.MineDistributions(train_pixels, denoised.vocab);
  const linalg::Matrix q_clean =
      core::SimilarityFromDistributions(d_clean).Block(all);
  const linalg::Matrix feat = vlp.EncodeImages(train_pixels);
  linalg::Matrix q_feat = linalg::SelfCosine(feat);
  for (size_t i = 0; i < q_feat.size(); ++i) {
    q_feat.data()[i] = 0.5f * (1.0f + q_feat.data()[i]);
  }

  std::printf("\nsimilarity quality (mean similar-pair Q minus mean "
              "dissimilar-pair Q; higher is better):\n");
  std::printf("  feature cosine (UHSCM_IF)     : %.3f\n",
              SimilarityQuality(dataset, dataset.split.train, q_feat));
  std::printf("  raw concepts   (UHSCM_w/o_de) : %.3f\n",
              SimilarityQuality(dataset, dataset.split.train, q_raw));
  std::printf("  denoised concepts (UHSCM)     : %.3f\n",
              SimilarityQuality(dataset, dataset.split.train, q_clean));
  return 0;
}
