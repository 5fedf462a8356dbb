#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/status.h"
#include "data/concepts.h"

namespace uhscm::data {

namespace {

/// Zipf-weighted class sampler: weight of the class at popularity rank r
/// (0-based) is 1/(r+1)^s. Rank order follows class_ids order, which is
/// itself a fixed published list, so popularity is deterministic.
class ZipfClassSampler {
 public:
  ZipfClassSampler(int num_classes, float exponent) {
    cumulative_.reserve(static_cast<size_t>(num_classes));
    double total = 0.0;
    for (int r = 0; r < num_classes; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cumulative_.push_back(total);
    }
  }

  int Sample(Rng* rng) const {
    const double target = rng->Uniform() * cumulative_.back();
    const auto it =
        std::lower_bound(cumulative_.begin(), cumulative_.end(), target);
    return static_cast<int>(it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

/// Samples a label set for a multi-label image: one primary class plus a
/// geometric number of distinct extras, all Zipf-popular.
std::vector<int> SampleLabelSet(const std::vector<int>& class_ids,
                                const ZipfClassSampler& sampler,
                                const SyntheticOptions& options, Rng* rng) {
  std::set<int> chosen;
  chosen.insert(class_ids[static_cast<size_t>(sampler.Sample(rng))]);
  while (static_cast<int>(chosen.size()) < options.max_labels &&
         rng->Bernoulli(options.extra_label_prob)) {
    chosen.insert(class_ids[static_cast<size_t>(sampler.Sample(rng))]);
  }
  return std::vector<int>(chosen.begin(), chosen.end());
}

/// Fills pixels/labels for `count` images drawn from the given label
/// sampler.
template <typename LabelSampler>
void GenerateImages(SemanticWorld* world, const SyntheticOptions& options,
                    int count, LabelSampler&& sampler, Rng* rng,
                    Dataset* dataset, int* next_row) {
  for (int i = 0; i < count; ++i) {
    std::vector<int> label_ids = sampler(i);
    std::sort(label_ids.begin(), label_ids.end());
    const linalg::Vector img =
        world->RenderImage(label_ids, options.noise_scale, rng);
    dataset->pixels.SetRow(*next_row, img);
    dataset->labels[static_cast<size_t>(*next_row)] = std::move(label_ids);
    ++(*next_row);
  }
}

/// Shared assembly: allocate, generate database then query images, then
/// carve the split (train sampled from the database).
Dataset BuildDataset(const std::string& name,
                     const std::vector<std::string>& class_names,
                     bool multi_label, SemanticWorld* world,
                     const SyntheticOptions& options, Rng* rng) {
  UHSCM_CHECK(options.sizes.train <= options.sizes.database,
              "train set must be a subset of the database");
  Dataset dataset;
  dataset.name = name;
  dataset.multi_label = multi_label;
  dataset.class_names = class_names;
  dataset.class_ids.reserve(class_names.size());
  for (const std::string& cls : class_names) {
    dataset.class_ids.push_back(world->RegisterConcept(cls));
  }

  const int num_classes = static_cast<int>(dataset.class_ids.size());
  const int n_db = options.sizes.database;
  const int n_query = options.sizes.query;
  const int total = n_db + n_query;
  dataset.pixels = linalg::Matrix(total, world->pixel_dim());
  dataset.labels.resize(static_cast<size_t>(total));

  int next_row = 0;
  const ZipfClassSampler zipf(num_classes, options.zipf_exponent);
  auto sampler = [&](int i) -> std::vector<int> {
    if (multi_label) {
      return SampleLabelSet(dataset.class_ids, zipf, options, rng);
    }
    // Single-label: balanced round-robin keeps per-class counts equal, as
    // in the paper's per-class CIFAR10 protocol.
    return {dataset.class_ids[static_cast<size_t>(i % num_classes)]};
  };
  GenerateImages(world, options, n_db, sampler, rng, &dataset, &next_row);
  GenerateImages(world, options, n_query, sampler, rng, &dataset, &next_row);

  dataset.split.database.resize(static_cast<size_t>(n_db));
  for (int i = 0; i < n_db; ++i) dataset.split.database[static_cast<size_t>(i)] = i;
  dataset.split.query.resize(static_cast<size_t>(n_query));
  for (int i = 0; i < n_query; ++i) {
    dataset.split.query[static_cast<size_t>(i)] = n_db + i;
  }

  if (multi_label) {
    dataset.split.train =
        rng->SampleWithoutReplacement(n_db, options.sizes.train);
  } else {
    // Balanced train subset: train/num_classes images per class. Because
    // database images were generated round-robin, stratified sampling is a
    // per-class draw over i % num_classes strata.
    const int per_class = options.sizes.train / num_classes;
    std::vector<std::vector<int>> by_class(static_cast<size_t>(num_classes));
    for (int i = 0; i < n_db; ++i) {
      by_class[static_cast<size_t>(i % num_classes)].push_back(i);
    }
    for (int c = 0; c < num_classes; ++c) {
      auto& pool = by_class[static_cast<size_t>(c)];
      const int take = std::min<int>(per_class, static_cast<int>(pool.size()));
      std::vector<int> picks = rng->SampleWithoutReplacement(
          static_cast<int>(pool.size()), take);
      for (int p : picks) dataset.split.train.push_back(pool[static_cast<size_t>(p)]);
    }
  }
  std::sort(dataset.split.train.begin(), dataset.split.train.end());
  return dataset;
}

}  // namespace

Dataset MakeCifar10Like(SemanticWorld* world, const SyntheticOptions& options,
                        Rng* rng) {
  return BuildDataset("cifar10-like", Cifar10Classes(), /*multi_label=*/false,
                      world, options, rng);
}

Dataset MakeNusWideLike(SemanticWorld* world, const SyntheticOptions& options,
                        Rng* rng) {
  return BuildDataset("nuswide-like", NusWide21Classes(), /*multi_label=*/true,
                      world, options, rng);
}

Dataset MakeMirFlickrLike(SemanticWorld* world,
                          const SyntheticOptions& options, Rng* rng) {
  return BuildDataset("mirflickr-like", MirFlickr24Classes(),
                      /*multi_label=*/true, world, options, rng);
}

Dataset MakeDatasetByName(const std::string& name, SemanticWorld* world,
                          const SyntheticOptions& options, Rng* rng) {
  if (name == "cifar") return MakeCifar10Like(world, options, rng);
  if (name == "nuswide") return MakeNusWideLike(world, options, rng);
  if (name == "flickr") return MakeMirFlickrLike(world, options, rng);
  UHSCM_CHECK(false, "MakeDatasetByName: unknown dataset name");
  return {};
}

int TrainSplitRows(const std::string& name, const SyntheticOptions& options) {
  if (name != "cifar") return options.sizes.train;
  const int num_classes = static_cast<int>(Cifar10Classes().size());
  return options.sizes.train / num_classes * num_classes;
}

SyntheticOptions DefaultOptionsFor(const std::string& name, double scale) {
  SyntheticOptions options;
  if (name == "cifar") {
    options.sizes.database = static_cast<int>(4000 * scale);
    options.sizes.train = static_cast<int>(1000 * scale);
    options.sizes.query = static_cast<int>(400 * scale);
    options.noise_scale = 1.2f;
  } else if (name == "nuswide") {
    options.sizes.database = static_cast<int>(4000 * scale);
    options.sizes.train = static_cast<int>(1050 * scale);
    options.sizes.query = static_cast<int>(400 * scale);
    options.noise_scale = 1.0f;
    options.extra_label_prob = 0.5f;
  } else if (name == "flickr") {
    options.sizes.database = static_cast<int>(3500 * scale);
    options.sizes.train = static_cast<int>(1000 * scale);
    options.sizes.query = static_cast<int>(350 * scale);
    options.noise_scale = 1.0f;
    options.extra_label_prob = 0.45f;
  } else {
    UHSCM_CHECK(false, "DefaultOptionsFor: unknown dataset name");
  }
  return options;
}

}  // namespace uhscm::data
