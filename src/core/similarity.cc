#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "linalg/ops.h"

namespace uhscm::core {

linalg::Matrix SimilarityFactor::Block(const std::vector<int>& rows) const {
  const linalg::Matrix g = f.SelectRows(rows);
  linalg::Matrix q = linalg::MatMulTransB(g, g);
  for (int i = 0; i < q.rows(); ++i) q(i, i) = 1.0f;
  return q;
}

SimilarityFactor SimilarityFromDistributions(const linalg::Matrix& d) {
  SimilarityFactor factor{d};
  linalg::NormalizeRowsL2(&factor.f);
  return factor;
}

SimilarityFactor AverageSimilarity(
    const std::vector<SimilarityFactor>& factors) {
  UHSCM_CHECK(!factors.empty(), "AverageSimilarity: empty input");
  const int n = factors[0].f.rows();
  int cols = 0;
  for (const SimilarityFactor& factor : factors) {
    UHSCM_CHECK(factor.f.rows() == n, "AverageSimilarity: row mismatch");
    cols += factor.f.cols();
  }
  // [F_1 | ... | F_P] / sqrt(P) times its transpose is (1/P) sum F_p F_p^T.
  const float scale = 1.0f / std::sqrt(static_cast<float>(factors.size()));
  SimilarityFactor out{linalg::Matrix(n, cols)};
  for (int i = 0; i < n; ++i) {
    float* dst = out.f.Row(i);
    for (const SimilarityFactor& factor : factors) {
      const float* src = factor.f.Row(i);
      for (int c = 0; c < factor.f.cols(); ++c) *dst++ = scale * src[c];
    }
  }
  return out;
}

SimilarityStats ComputeSimilarityStats(const linalg::Matrix& q,
                                       float threshold) {
  SimilarityStats stats;
  if (q.size() == 0) return stats;
  stats.min = q.data()[0];
  stats.max = q.data()[0];
  double sum = 0.0;
  int64_t above = 0;
  int64_t off_diag = 0;
  for (int i = 0; i < q.rows(); ++i) {
    const float* row = q.Row(i);
    for (int j = 0; j < q.cols(); ++j) {
      stats.min = std::min(stats.min, row[j]);
      stats.max = std::max(stats.max, row[j]);
      sum += row[j];
      if (i != j) {
        ++off_diag;
        if (row[j] >= threshold) ++above;
      }
    }
  }
  stats.mean = static_cast<float>(sum / static_cast<double>(q.size()));
  stats.frac_above_threshold =
      off_diag > 0 ? static_cast<float>(above) / static_cast<float>(off_diag)
                   : 0.0f;
  return stats;
}

}  // namespace uhscm::core
