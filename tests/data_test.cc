#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "data/concept_vocab.h"
#include "data/concepts.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "data/world.h"
#include "linalg/ops.h"

namespace uhscm::data {
namespace {

// ---------------------------------------------------------- concept lists

TEST(ConceptsTest, PublishedListSizes) {
  EXPECT_EQ(NusWide81Concepts().size(), 81u);
  EXPECT_EQ(NusWide21Classes().size(), 21u);
  EXPECT_EQ(Coco80Concepts().size(), 80u);
  EXPECT_EQ(Cifar10Classes().size(), 10u);
  EXPECT_EQ(MirFlickr24Classes().size(), 24u);
}

TEST(ConceptsTest, Nus21IsSubsetOfNus81) {
  std::set<std::string> full(NusWide81Concepts().begin(),
                             NusWide81Concepts().end());
  for (const std::string& cls : NusWide21Classes()) {
    EXPECT_TRUE(full.count(cls)) << cls;
  }
}

TEST(ConceptsTest, CanonicalizationMergesSynonyms) {
  EXPECT_EQ(CanonicalConceptName("automobile"), "car");
  EXPECT_EQ(CanonicalConceptName("cars"), "car");
  EXPECT_EQ(CanonicalConceptName("Car"), "car");
  EXPECT_EQ(CanonicalConceptName("airplane"), "plane");
  EXPECT_EQ(CanonicalConceptName("ship"), "boat");
  EXPECT_EQ(CanonicalConceptName("boats"), "boat");
  EXPECT_EQ(CanonicalConceptName("people"), "person");
  EXPECT_EQ(CanonicalConceptName("plant_life"), "plant");
  EXPECT_EQ(CanonicalConceptName("sea"), "ocean");
  EXPECT_EQ(CanonicalConceptName("teddy bear"), "teddy_bear");
  EXPECT_EQ(CanonicalConceptName("zebra"), "zebra");
}

// ------------------------------------------------------------------ world

TEST(WorldTest, RegisterIsIdempotentModuloCanonicalization) {
  SemanticWorld world(1);
  const int a = world.RegisterConcept("cars");
  const int b = world.RegisterConcept("car");
  const int c = world.RegisterConcept("automobile");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(world.num_concepts(), 1);
  EXPECT_EQ(world.FindConcept("Car"), a);
  EXPECT_EQ(world.FindConcept("unknown-thing"), -1);
}

TEST(WorldTest, PrototypesAreUnitNormAndDeterministic) {
  SemanticWorld w1(99);
  SemanticWorld w2(99);
  const int id1 = w1.RegisterConcept("cat");
  const int id2 = w2.RegisterConcept("cat");
  ASSERT_EQ(id1, id2);
  const linalg::Vector& p1 = w1.Prototype(id1);
  const linalg::Vector& p2 = w2.Prototype(id2);
  EXPECT_NEAR(linalg::Norm2(p1), 1.0f, 1e-5f);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
}

TEST(WorldTest, DifferentSeedsGiveDifferentPrototypes) {
  SemanticWorld w1(1);
  SemanticWorld w2(2);
  const int a = w1.RegisterConcept("cat");
  const int b = w2.RegisterConcept("cat");
  const float cos = linalg::CosineSimilarity(
      w1.Prototype(a).data(), w2.Prototype(b).data(), w1.pixel_dim());
  EXPECT_LT(std::abs(cos), 0.5f);
}

TEST(WorldTest, RenderedImageIsUnitNormAndLabelAligned) {
  SemanticWorld world(5);
  const int cat = world.RegisterConcept("cat");
  const int dog = world.RegisterConcept("dog");
  Rng rng(6);
  const linalg::Vector img = world.RenderImage({cat}, 0.2f, &rng);
  EXPECT_NEAR(linalg::Norm2(img), 1.0f, 1e-5f);
  const float to_cat = linalg::CosineSimilarity(
      img.data(), world.Prototype(cat).data(), world.pixel_dim());
  const float to_dog = linalg::CosineSimilarity(
      img.data(), world.Prototype(dog).data(), world.pixel_dim());
  EXPECT_GT(to_cat, to_dog + 0.2f);
  EXPECT_GT(to_cat, 0.5f);
}

TEST(WorldTest, GroupCorrelationRaisesWithinGroupSimilarity) {
  WorldOptions correlated;
  correlated.group_correlation = 0.6f;
  correlated.num_groups = 2;
  SemanticWorld world(7, correlated);
  // ids 0 and 2 share group (id % 2), ids 0 and 1 do not.
  const int a = world.RegisterConcept("alpha");
  const int b = world.RegisterConcept("beta");
  const int c = world.RegisterConcept("gamma");
  const float same_group = linalg::CosineSimilarity(
      world.Prototype(a).data(), world.Prototype(c).data(), world.pixel_dim());
  const float diff_group = linalg::CosineSimilarity(
      world.Prototype(a).data(), world.Prototype(b).data(), world.pixel_dim());
  EXPECT_GT(same_group, diff_group);
}

// ------------------------------------------------------------------ vocab

TEST(VocabTest, SizesAfterCanonicalDeduplication) {
  SemanticWorld world(11);
  const ConceptVocab nus = MakeNusVocab(&world);
  EXPECT_EQ(nus.size(), 81);  // no internal duplicates
  SemanticWorld world2(11);
  const ConceptVocab coco = MakeCocoVocab(&world2);
  EXPECT_EQ(coco.size(), 80);
  SemanticWorld world3(11);
  const ConceptVocab both = MakeCombinedVocab(&world3);
  // Union is smaller than 161 because of shared concepts (paper: 153).
  EXPECT_LT(both.size(), 161);
  EXPECT_GT(both.size(), 120);
  std::set<int> ids(both.ids.begin(), both.ids.end());
  EXPECT_EQ(static_cast<int>(ids.size()), both.size());
}

/// Counts how many of `class_ids` appear in the vocabulary.
int OverlapCount(const ConceptVocab& vocab, const std::vector<int>& class_ids) {
  std::set<int> vocab_ids(vocab.ids.begin(), vocab.ids.end());
  int hits = 0;
  for (int id : class_ids) {
    if (vocab_ids.count(id)) ++hits;
  }
  return hits;
}

TEST(VocabTest, OverlapStructureDrivesTable2VocabularyAblation) {
  // The §4.4.1 ablation rests on which vocabulary covers which dataset's
  // classes. Pin that structure: COCO covers most CIFAR classes (8/10 via
  // canonicalization: airplane/automobile/ship map to plane/car/boat);
  // NUS-81 covers all 21 NUS eval classes and most MIRFlickr classes but
  // fewer CIFAR classes.
  SemanticWorld world(99);
  Rng rng(100);
  SyntheticOptions tiny;
  tiny.sizes = {30, 10, 5};
  const Dataset cifar = MakeCifar10Like(&world, tiny, &rng);
  const Dataset nus = MakeNusWideLike(&world, tiny, &rng);
  const Dataset flickr = MakeMirFlickrLike(&world, tiny, &rng);
  const ConceptVocab nus_vocab = MakeNusVocab(&world);
  const ConceptVocab coco_vocab = MakeCocoVocab(&world);
  const ConceptVocab both = MakeCombinedVocab(&world);

  // COCO covers CIFAR better than NUS-81 does.
  EXPECT_GT(OverlapCount(coco_vocab, cifar.class_ids),
            OverlapCount(nus_vocab, cifar.class_ids));
  EXPECT_GE(OverlapCount(coco_vocab, cifar.class_ids), 8);
  // NUS-81 covers the multi-label datasets better than COCO does.
  EXPECT_EQ(OverlapCount(nus_vocab, nus.class_ids), 21);
  EXPECT_GT(OverlapCount(nus_vocab, flickr.class_ids),
            OverlapCount(coco_vocab, flickr.class_ids));
  // The union covers at least as much as either part, everywhere.
  EXPECT_GE(OverlapCount(both, cifar.class_ids),
            OverlapCount(coco_vocab, cifar.class_ids));
  EXPECT_GE(OverlapCount(both, nus.class_ids),
            OverlapCount(nus_vocab, nus.class_ids));
}

TEST(VocabTest, SubsetSelectsPositions) {
  SemanticWorld world(12);
  const ConceptVocab nus = MakeNusVocab(&world);
  const ConceptVocab sub = SubsetVocab(nus, {0, 5, 10});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.names[1], nus.names[5]);
  EXPECT_EQ(sub.ids[2], nus.ids[10]);
}

// ---------------------------------------------------------------- dataset

TEST(DatasetTest, CifarLikeSplitProtocol) {
  SemanticWorld world(13);
  SyntheticOptions options;
  options.sizes = {300, 100, 50};
  Rng rng(14);
  const Dataset d = MakeCifar10Like(&world, options, &rng);
  EXPECT_EQ(d.num_classes(), 10);
  EXPECT_FALSE(d.multi_label);
  EXPECT_EQ(d.num_images(), 350);
  EXPECT_EQ(d.split.database.size(), 300u);
  EXPECT_EQ(d.split.query.size(), 50u);
  EXPECT_EQ(d.split.train.size(), 100u);
  // Train is a subset of the database.
  std::set<int> db(d.split.database.begin(), d.split.database.end());
  for (int idx : d.split.train) EXPECT_TRUE(db.count(idx));
  // Queries are disjoint from the database.
  for (int idx : d.split.query) EXPECT_FALSE(db.count(idx));
  // Single-label images.
  for (const auto& labels : d.labels) EXPECT_EQ(labels.size(), 1u);
  // Balanced train subset: 10 per class.
  std::vector<int> per_class(10, 0);
  const std::vector<int> primary = PrimaryClassIndex(d);
  for (int idx : d.split.train) ++per_class[static_cast<size_t>(primary[static_cast<size_t>(idx)])];
  for (int c = 0; c < 10; ++c) EXPECT_EQ(per_class[static_cast<size_t>(c)], 10);
}

TEST(DatasetTest, MultiLabelDatasetsHaveBoundedLabelSets) {
  SemanticWorld world(15);
  SyntheticOptions options;
  options.sizes = {200, 80, 40};
  options.max_labels = 3;
  Rng rng(16);
  const Dataset d = MakeNusWideLike(&world, options, &rng);
  EXPECT_TRUE(d.multi_label);
  EXPECT_EQ(d.num_classes(), 21);
  bool saw_multi = false;
  for (const auto& labels : d.labels) {
    EXPECT_GE(labels.size(), 1u);
    EXPECT_LE(labels.size(), 3u);
    EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
    if (labels.size() > 1) saw_multi = true;
  }
  EXPECT_TRUE(saw_multi);
}

TEST(DatasetTest, RelevanceIsSharedLabel) {
  Dataset d;
  d.labels = {{1, 2}, {2, 3}, {4}, {1}};
  EXPECT_TRUE(d.Relevant(0, 1));   // share 2
  EXPECT_TRUE(d.Relevant(0, 3));   // share 1
  EXPECT_FALSE(d.Relevant(0, 2));
  EXPECT_FALSE(d.Relevant(1, 2));
  EXPECT_TRUE(d.Relevant(2, 2));   // self shares with itself
}

TEST(DatasetTest, LabelMatrixMatchesLabels) {
  SemanticWorld world(17);
  SyntheticOptions options;
  options.sizes = {60, 30, 20};
  Rng rng(18);
  const Dataset d = MakeMirFlickrLike(&world, options, &rng);
  const linalg::Matrix lm = LabelMatrix(d);
  EXPECT_EQ(lm.rows(), d.num_images());
  EXPECT_EQ(lm.cols(), 24);
  for (int i = 0; i < d.num_images(); ++i) {
    int row_sum = 0;
    for (int c = 0; c < lm.cols(); ++c) {
      row_sum += static_cast<int>(lm(i, c));
    }
    EXPECT_EQ(row_sum, static_cast<int>(d.labels[static_cast<size_t>(i)].size()));
  }
}

TEST(DatasetTest, ByNameFactoryAndDefaults) {
  SemanticWorld world(19);
  Rng rng(20);
  for (const char* name : {"cifar", "nuswide", "flickr"}) {
    SyntheticOptions options = DefaultOptionsFor(name, 0.05);
    const Dataset d = MakeDatasetByName(name, &world, options, &rng);
    EXPECT_GT(d.num_images(), 0) << name;
    EXPECT_FALSE(d.class_ids.empty());
  }
}

TEST(DatasetTest, TrainSplitRowsMatchesBuiltSplit) {
  // 37 and 8 are not multiples of CIFAR's 10 classes: the single-label
  // split rounds down (to 30 and 0), the multi-label ones do not.
  for (int train : {37, 8}) {
    for (const char* name : {"cifar", "nuswide", "flickr"}) {
      SemanticWorld world(21);
      Rng rng(22);
      SyntheticOptions options = DefaultOptionsFor(name);
      options.sizes = {60, train, 10};
      const Dataset d = MakeDatasetByName(name, &world, options, &rng);
      EXPECT_EQ(static_cast<int>(d.split.train.size()),
                TrainSplitRows(name, options))
          << name << " train=" << train;
    }
  }
}

TEST(DatasetTest, SameSeedSameDataset) {
  SemanticWorld w1(23), w2(23);
  SyntheticOptions options;
  options.sizes = {50, 20, 10};
  Rng r1(24), r2(24);
  const Dataset a = MakeCifar10Like(&w1, options, &r1);
  const Dataset b = MakeCifar10Like(&w2, options, &r2);
  ASSERT_EQ(a.num_images(), b.num_images());
  for (int i = 0; i < a.num_images(); ++i) {
    EXPECT_EQ(a.labels[static_cast<size_t>(i)], b.labels[static_cast<size_t>(i)]);
    for (int c = 0; c < a.pixels.cols(); ++c) {
      EXPECT_EQ(a.pixels(i, c), b.pixels(i, c));
    }
  }
}

TEST(DatasetTest, SameClassImagesMoreSimilarThanCrossClass) {
  SemanticWorld world(25);
  SyntheticOptions options;
  options.sizes = {100, 40, 20};
  Rng rng(26);
  const Dataset d = MakeCifar10Like(&world, options, &rng);
  const std::vector<int> primary = PrimaryClassIndex(d);
  double same = 0.0, cross = 0.0;
  int same_n = 0, cross_n = 0;
  for (int i = 0; i < 60; ++i) {
    for (int j = i + 1; j < 60; ++j) {
      const float cos = linalg::CosineSimilarity(d.pixels.Row(i),
                                                 d.pixels.Row(j),
                                                 d.pixels.cols());
      if (primary[static_cast<size_t>(i)] == primary[static_cast<size_t>(j)]) {
        same += cos;
        ++same_n;
      } else {
        cross += cos;
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(cross_n, 0);
  EXPECT_GT(same / same_n, cross / cross_n + 0.2);
}

}  // namespace
}  // namespace uhscm::data
