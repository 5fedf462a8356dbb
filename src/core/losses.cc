#include "core/losses.h"

#include <cmath>
#include <vector>

#include "common/status.h"
#include "linalg/ops.h"

namespace uhscm::core {

namespace {

/// Row-normalizes z; returns the normalized matrix and per-row norms.
linalg::Matrix RowNormalize(const linalg::Matrix& z,
                            std::vector<float>* norms) {
  linalg::Matrix zhat = z;
  norms->assign(static_cast<size_t>(z.rows()), 0.0f);
  for (int i = 0; i < z.rows(); ++i) {
    float* row = zhat.Row(i);
    const float norm = std::max(linalg::Norm2(row, z.cols()), 1e-12f);
    (*norms)[static_cast<size_t>(i)] = norm;
    const float inv = 1.0f / norm;
    for (int c = 0; c < z.cols(); ++c) row[c] *= inv;
  }
  return zhat;
}

/// Shared backward: given zhat (row-normalized z), row norms, and
/// G = dL/dH with H = zhat zhat^T, returns dL/dZ.
linalg::Matrix CosineBackwardImpl(const linalg::Matrix& zhat,
                                  const std::vector<float>& norms,
                                  const linalg::Matrix& g) {
  // dL/dzhat = (G + G^T) zhat.
  linalg::Matrix gsym = g;
  for (int i = 0; i < g.rows(); ++i) {
    for (int j = 0; j < g.cols(); ++j) {
      gsym(i, j) = g(i, j) + g(j, i);
    }
  }
  linalg::Matrix dzhat = linalg::MatMul(gsym, zhat);
  // Project through the normalization Jacobian:
  // dL/dz_i = (dzhat_i - (dzhat_i . zhat_i) zhat_i) / ||z_i||.
  linalg::Matrix dz(zhat.rows(), zhat.cols());
  for (int i = 0; i < zhat.rows(); ++i) {
    const float* zh = zhat.Row(i);
    const float* dzh = dzhat.Row(i);
    const float dot = linalg::Dot(dzh, zh, zhat.cols());
    const float inv_norm = 1.0f / norms[static_cast<size_t>(i)];
    float* out = dz.Row(i);
    for (int c = 0; c < zhat.cols(); ++c) {
      out[c] = (dzh[c] - dot * zh[c]) * inv_norm;
    }
  }
  return dz;
}

}  // namespace

linalg::Matrix CosineSimilarityBackward(const linalg::Matrix& z,
                                        const linalg::Matrix& g) {
  UHSCM_CHECK(g.rows() == z.rows() && g.cols() == z.rows(),
              "CosineSimilarityBackward: G must be n x n");
  std::vector<float> norms;
  const linalg::Matrix zhat = RowNormalize(z, &norms);
  return CosineBackwardImpl(zhat, norms, g);
}

LossAndGrad UhscmBatchLoss(const linalg::Matrix& z,
                           const linalg::Matrix& q_batch,
                           const UhscmLossOptions& options) {
  const int t = z.rows();
  UHSCM_CHECK(q_batch.rows() == t && q_batch.cols() == t,
              "UhscmBatchLoss: Q sub-matrix shape mismatch");
  UHSCM_CHECK(t >= 2, "UhscmBatchLoss: batch must have >= 2 codes");

  std::vector<float> norms;
  const linalg::Matrix zhat = RowNormalize(z, &norms);
  const linalg::Matrix h = linalg::MatMulTransB(zhat, zhat);

  LossAndGrad out;
  linalg::Matrix g(t, t);  // dL/dH

  // --- Ls: (1/t^2) sum_ij (h_ij - q_ij)^2 (Eq. 7) ---
  const double inv_t2 = 1.0 / (static_cast<double>(t) * t);
  double ls = 0.0;
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) {
      const double diff = static_cast<double>(h(i, j)) - q_batch(i, j);
      ls += diff * diff;
      g(i, j) += static_cast<float>(2.0 * inv_t2 * diff);
    }
  }
  ls *= inv_t2;
  out.loss += ls;

  // --- Lc: modified contrastive (Eq. 8 with -log; see header note) ---
  // With e_l = exp((h_il - max) / gamma) and denom_j = e_j + (sum of e over
  // the negatives), positive j adds -w log(e_j / denom_j); a negative l
  // gets w e_l / (gamma denom_j) from each positive j, so its gradient is
  // w e_l / gamma times the sum of 1/denom_j: O(t) per anchor.
  if (!options.disable_contrastive && options.alpha != 0.0f) {
    const double gamma = options.gamma;
    std::vector<double> e(static_cast<size_t>(t));
    std::vector<char> positive(static_cast<size_t>(t));
    double lc = 0.0;
    for (int i = 0; i < t; ++i) {
      int positives = 0;
      double row_max = -2.0;
      for (int j = 0; j < t; ++j) {
        positive[j] = j != i && q_batch(i, j) >= options.lambda;
        if (positive[j]) ++positives;
        if (j != i) row_max = std::max(row_max, static_cast<double>(h(i, j)));
      }
      if (positives == 0 || positives == t - 1) continue;

      double s_neg = 0.0;
      for (int j = 0; j < t; ++j) {
        if (j == i) continue;
        e[j] = std::exp((static_cast<double>(h(i, j)) - row_max) / gamma);
        if (!positive[j]) s_neg += e[j];
      }
      // Weight alpha / (t * |Psi_i|): alpha from Eq. (11), 1/t from the
      // batch mean, 1/|Psi_i| from Eq. (8).
      const double w = options.alpha / (static_cast<double>(positives) * t);
      double inv_denoms = 0.0;
      for (int j = 0; j < t; ++j) {
        if (!positive[j]) continue;
        const double denom = e[j] + s_neg;
        const double p = e[j] / denom;
        lc += -w * std::log(std::max(p, 1e-300));
        // d(-log p)/dh_ij = -(1 - p)/gamma.
        g(i, j) += static_cast<float>(-w * (1.0 - p) / gamma);
        inv_denoms += 1.0 / denom;
      }
      for (int l = 0; l < t; ++l) {
        if (l == i || positive[l]) continue;
        g(i, l) += static_cast<float>(w * e[l] * inv_denoms / gamma);
      }
    }
    out.loss += lc;
  }

  // --- quantization: beta * (1/t) sum_i ||z_i - sgn(z_i)||^2 ---
  out.dz = CosineBackwardImpl(zhat, norms, g);
  if (options.beta != 0.0f) {
    const double inv_t = 1.0 / static_cast<double>(t);
    double lq = 0.0;
    for (int i = 0; i < t; ++i) {
      const float* zi = z.Row(i);
      float* dzi = out.dz.Row(i);
      for (int c = 0; c < z.cols(); ++c) {
        const float b = zi[c] < 0.0f ? -1.0f : 1.0f;
        const float diff = zi[c] - b;
        lq += static_cast<double>(diff) * diff;
        dzi[c] += static_cast<float>(2.0 * options.beta * inv_t * diff);
      }
    }
    out.loss += options.beta * lq * inv_t;
  }
  return out;
}

LossAndGrad OriginalContrastiveLoss(const linalg::Matrix& z_views, int t,
                                    float gamma) {
  UHSCM_CHECK(z_views.rows() == 2 * t,
              "OriginalContrastiveLoss: expected 2t stacked rows");
  UHSCM_CHECK(t >= 2, "OriginalContrastiveLoss: need >= 2 images");

  std::vector<float> norms;
  const linalg::Matrix zhat = RowNormalize(z_views, &norms);
  const linalg::Matrix h = linalg::MatMulTransB(zhat, zhat);

  linalg::Matrix g(2 * t, 2 * t);
  double loss = 0.0;
  const double inv_t = 1.0 / static_cast<double>(t);
  for (int i = 0; i < t; ++i) {
    const int pos = t + i;
    // Negatives: both views of every k != i.
    double row_max = static_cast<double>(h(i, pos));
    for (int k = 0; k < t; ++k) {
      if (k == i) continue;
      row_max = std::max(row_max, static_cast<double>(h(i, k)));
      row_max = std::max(row_max, static_cast<double>(h(i, t + k)));
    }
    const double e_pos =
        std::exp((static_cast<double>(h(i, pos)) - row_max) / gamma);
    double s_neg = 0.0;
    for (int k = 0; k < t; ++k) {
      if (k == i) continue;
      s_neg += std::exp((static_cast<double>(h(i, k)) - row_max) / gamma);
      s_neg += std::exp((static_cast<double>(h(i, t + k)) - row_max) / gamma);
    }
    const double denom = e_pos + s_neg;
    const double p = e_pos / denom;
    loss += -inv_t * std::log(std::max(p, 1e-300));

    g(i, pos) += static_cast<float>(-inv_t * (1.0 - p) / gamma);
    for (int k = 0; k < t; ++k) {
      if (k == i) continue;
      const double e1 =
          std::exp((static_cast<double>(h(i, k)) - row_max) / gamma);
      const double e2 =
          std::exp((static_cast<double>(h(i, t + k)) - row_max) / gamma);
      g(i, k) += static_cast<float>(inv_t * e1 / denom / gamma);
      g(i, t + k) += static_cast<float>(inv_t * e2 / denom / gamma);
    }
  }

  LossAndGrad out;
  out.loss = loss;
  out.dz = CosineBackwardImpl(zhat, norms, g);
  return out;
}

LossAndGrad MaskedL2SimilarityLoss(const linalg::Matrix& z,
                                   const linalg::Matrix& s_batch,
                                   const linalg::Matrix& mask, float beta) {
  const int t = z.rows();
  UHSCM_CHECK(s_batch.rows() == t && s_batch.cols() == t,
              "MaskedL2SimilarityLoss: S shape mismatch");
  UHSCM_CHECK(mask.rows() == t && mask.cols() == t,
              "MaskedL2SimilarityLoss: mask shape mismatch");

  std::vector<float> norms;
  const linalg::Matrix zhat = RowNormalize(z, &norms);
  const linalg::Matrix h = linalg::MatMulTransB(zhat, zhat);

  double mask_sum = 0.0;
  for (size_t i = 0; i < mask.size(); ++i) mask_sum += mask.data()[i];
  const double inv_mass = mask_sum > 0.0 ? 1.0 / mask_sum : 0.0;

  linalg::Matrix g(t, t);
  double loss = 0.0;
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) {
      const float w = mask(i, j);
      if (w == 0.0f) continue;
      const double diff = static_cast<double>(h(i, j)) - s_batch(i, j);
      loss += w * diff * diff * inv_mass;
      g(i, j) += static_cast<float>(2.0 * w * diff * inv_mass);
    }
  }

  LossAndGrad out;
  out.loss = loss;
  out.dz = CosineBackwardImpl(zhat, norms, g);

  if (beta != 0.0f) {
    const double inv_t = 1.0 / static_cast<double>(t);
    double lq = 0.0;
    for (int i = 0; i < t; ++i) {
      const float* zi = z.Row(i);
      float* dzi = out.dz.Row(i);
      for (int c = 0; c < z.cols(); ++c) {
        const float b = zi[c] < 0.0f ? -1.0f : 1.0f;
        const float diff = zi[c] - b;
        lq += static_cast<double>(diff) * diff;
        dzi[c] += static_cast<float>(2.0 * beta * inv_t * diff);
      }
    }
    out.loss += beta * lq * inv_t;
  }
  return out;
}

LossAndGrad TripletCosineLoss(const linalg::Matrix& z,
                              const std::vector<Triplet>& triplets,
                              float margin, float beta) {
  const int t = z.rows();
  std::vector<float> norms;
  const linalg::Matrix zhat = RowNormalize(z, &norms);
  const linalg::Matrix h = linalg::MatMulTransB(zhat, zhat);

  linalg::Matrix g(t, t);
  double loss = 0.0;
  const double inv_n =
      triplets.empty() ? 0.0 : 1.0 / static_cast<double>(triplets.size());
  for (const Triplet& tr : triplets) {
    const double viol = margin - static_cast<double>(h(tr.anchor, tr.positive)) +
                        static_cast<double>(h(tr.anchor, tr.negative));
    if (viol <= 0.0) continue;
    loss += viol * inv_n;
    g(tr.anchor, tr.positive) += static_cast<float>(-inv_n);
    g(tr.anchor, tr.negative) += static_cast<float>(inv_n);
  }

  LossAndGrad out;
  out.loss = loss;
  out.dz = CosineBackwardImpl(zhat, norms, g);

  if (beta != 0.0f && t > 0) {
    const double inv_t = 1.0 / static_cast<double>(t);
    double lq = 0.0;
    for (int i = 0; i < t; ++i) {
      const float* zi = z.Row(i);
      float* dzi = out.dz.Row(i);
      for (int c = 0; c < z.cols(); ++c) {
        const float b = zi[c] < 0.0f ? -1.0f : 1.0f;
        const float diff = zi[c] - b;
        lq += static_cast<double>(diff) * diff;
        dzi[c] += static_cast<float>(2.0 * beta * inv_t * diff);
      }
    }
    out.loss += beta * lq * inv_t;
  }
  return out;
}

}  // namespace uhscm::core
