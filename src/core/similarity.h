#ifndef UHSCM_CORE_SIMILARITY_H_
#define UHSCM_CORE_SIMILARITY_H_

#include <vector>

#include "linalg/matrix.h"

namespace uhscm::core {

/// The semantic similarity matrix Q of Eq. (3)/(6), held as its n x r
/// factor F: Q = F F^T with Q(i,i) := 1. The loss (Eq. 7) reads Q one
/// mini-batch block at a time, so the n x n matrix is never formed; r is
/// the number of concepts (or feature dimensions), far below n.
struct SimilarityFactor {
  linalg::Matrix f;  ///< n x r

  /// The t x t block Q[rows, rows], in the order given: gathers the rows
  /// of F, one MatMulTransB, and pins the diagonal to exactly 1 as
  /// linalg::SelfCosine does.
  linalg::Matrix Block(const std::vector<int>& rows) const;
};

/// Q(i,j) = cosine(d_i, d_j) over rows of a distribution (or feature)
/// matrix: the factor is a row-L2-normalised copy of `d`, with zero rows
/// left zero (so they have cosine 0 with every other row). Since concept
/// distributions are non-negative, entries of Q lie in [0, 1].
SimilarityFactor SimilarityFromDistributions(const linalg::Matrix& d);

/// Element-wise mean of several similarity matrices (the UHSCM_avg prompt
/// ablation, Table 2 row 6), as a factor: the column concatenation of the
/// P factors scaled by 1/sqrt(P). Precondition: non-empty list, equal row
/// counts.
SimilarityFactor AverageSimilarity(
    const std::vector<SimilarityFactor>& factors);

/// Summary statistics of a (block of a) similarity matrix, used by tests.
struct SimilarityStats {
  float min = 0.0f;
  float max = 0.0f;
  float mean = 0.0f;
  /// Fraction of off-diagonal entries >= threshold.
  float frac_above_threshold = 0.0f;
};

SimilarityStats ComputeSimilarityStats(const linalg::Matrix& q,
                                       float threshold);

}  // namespace uhscm::core

#endif  // UHSCM_CORE_SIMILARITY_H_
