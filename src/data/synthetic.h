#ifndef UHSCM_DATA_SYNTHETIC_H_
#define UHSCM_DATA_SYNTHETIC_H_

#include "common/rng.h"
#include "data/dataset.h"
#include "data/world.h"

namespace uhscm::data {

/// Size knobs for a synthetic dataset. The defaults reproduce the paper's
/// split *proportions* (§4.1) at roughly one-tenth scale so a full
/// Table 1 regenerates in minutes; multiply with `scale` to grow.
struct SyntheticSizes {
  int database = 4000;  ///< database images (training set is a subset)
  int train = 1000;     ///< training images sampled from the database
  int query = 400;      ///< held-out query images
};

/// Generator parameters shared by the three dataset builders.
struct SyntheticOptions {
  SyntheticSizes sizes;
  /// Pixel noise; higher for the multi-label datasets where the paper
  /// observes concept mining to be harder.
  float noise_scale = 0.8f;
  /// Multi-label only: probability of adding each further label
  /// (geometric; at most max_labels in total).
  float extra_label_prob = 0.45f;
  int max_labels = 3;
  /// Multi-label only: Zipf exponent of class popularity. Real NUS-WIDE
  /// and MIRFlickr annotations are heavily skewed (sky/person/clouds tag
  /// large fractions of the corpus), which raises the share of relevant
  /// pairs — and thus every method's MAP floor — far above the uniform
  /// case. 0 = uniform.
  float zipf_exponent = 0.8f;
};

/// Builds a CIFAR10-like single-label dataset (10 balanced classes).
/// Class names are the CIFAR10 classes; per-class counts are
/// sizes.{database,train,query} / 10.
Dataset MakeCifar10Like(SemanticWorld* world, const SyntheticOptions& options,
                        Rng* rng);

/// Builds a NUS-WIDE-like multi-label dataset over the 21 most-frequent
/// NUS-WIDE classes.
Dataset MakeNusWideLike(SemanticWorld* world, const SyntheticOptions& options,
                        Rng* rng);

/// Builds a MIRFlickr-25K-like multi-label dataset over 24 classes.
Dataset MakeMirFlickrLike(SemanticWorld* world,
                          const SyntheticOptions& options, Rng* rng);

/// Dataset selector used by benches ("cifar", "nuswide", "flickr").
Dataset MakeDatasetByName(const std::string& name, SemanticWorld* world,
                          const SyntheticOptions& options, Rng* rng);

/// Rows of the train split MakeDatasetByName(name, ..., options, ...)
/// draws. A single-label dataset draws sizes.train / num_classes images
/// per class, so its count rounds down to a multiple of the class count.
int TrainSplitRows(const std::string& name, const SyntheticOptions& options);

/// Default per-dataset options matching DESIGN.md (noise profile per
/// dataset; sizes from `scale` in (0, +inf), 1.0 = the defaults above).
SyntheticOptions DefaultOptionsFor(const std::string& name,
                                   double scale = 1.0);

}  // namespace uhscm::data

#endif  // UHSCM_DATA_SYNTHETIC_H_
