#ifndef UHSCM_LINALG_OPS_H_
#define UHSCM_LINALG_OPS_H_

#include <vector>

#include "linalg/matrix.h"

namespace uhscm::linalg {

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n). Every product, of
/// any size, runs on the packed-panel GEMM (12x32 register tile; AVX-512,
/// AVX2+FMA or portable micro-kernel by the dispatched kernel tier, see
/// PackedGemmKernelName). On the FMA tiers every element is the in-order
/// chain c = fma(a(i,p), b(p,j), c) over p, so avx2 and avx512 give the
/// same bytes. Row blocks of products of 2^25 multiply-adds or more run on
/// the thread pool, which never changes the bytes of the result.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n). Same kernel as
/// MatMul (the packing step absorbs the transpose).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C += A^T * B into an existing (m x n) C. With C zero on entry the
/// bytes equal MatMulTransA(a, b).
void AddMatMulTransA(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A * B^T. Shapes: (m x k) * (n x k)^T -> (m x n). Same kernel as
/// MatMul (the packing step absorbs the transpose).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// A right-hand operand B (k x n) packed once into the GEMM's j-panels,
/// slab by slab, exactly as every MatMul packs its B per call. For callers
/// that multiply many row blocks by one B: the encoder packs each weight
/// matrix once and shares it, read-only, across threads. The panels live
/// in storage the caller owns, so one buffer can hold several operands.
class PackedB {
 public:
  /// Floats the packed panels of `b` occupy.
  static size_t Size(const Matrix& b);

  /// Packs `b` into `storage`, which holds Size(b) floats and outlives
  /// this view.
  PackedB(const Matrix& b, float* storage);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

 private:
  friend void MatMulPackedInto(const float* a, int m, int lda,
                               const PackedB& b, float* c, int ldc,
                               std::vector<float>* apack);

  /// The slab starting at inner index p0, a multiple of the slab depth:
  /// each inner step holds n rounded up to the panel width.
  float* Slab(int p0) const {
    return panels_ + static_cast<size_t>(p0) * padded_cols_;
  }

  int rows_;
  int cols_;
  size_t padded_cols_;
  float* panels_;
};

/// C(m x n, ldc) = A(m x k, lda) * B over B packed once, on the calling
/// thread. The m rows form one block of the packed GEMM's compute loop,
/// so callers pass a few micro-panels' worth (the encoder passes 132);
/// `apack` is scratch for the block's packed A, grown as needed. Every
/// element is the same arithmetic MatMul gives it: the rows are
/// memcmp-equal to the matching rows of MatMul(a, b) on every tier.
void MatMulPackedInto(const float* a, int m, int lda, const PackedB& b,
                      float* c, int ldc, std::vector<float>* apack);

/// The packed GEMM's micro-kernel and tile on this host, e.g.
/// "avx512 12x32": picked once from index::ActiveKernelTier(), so
/// UHSCM_FORCE_TIER selects it too.
const char* PackedGemmKernelName();

/// y = A * x. Precondition: x.size() == A.cols().
Vector MatVec(const Matrix& a, const Vector& x);

/// Dot product. Precondition: equal sizes.
float Dot(const float* a, const float* b, int n);
float Dot(const Vector& a, const Vector& b);

/// Euclidean norm of a buffer.
float Norm2(const float* a, int n);
float Norm2(const Vector& a);

/// Squared Euclidean distance between two buffers.
float SquaredDistance(const float* a, const float* b, int n);

/// Cosine similarity of two buffers; 0 if either has zero norm.
float CosineSimilarity(const float* a, const float* b, int n);

/// Normalizes each row of m to unit L2 norm (rows with ~zero norm are left
/// untouched).
void NormalizeRowsL2(Matrix* m);

/// Row-wise softmax with temperature: out(i,j) =
/// exp(tau*m(i,j)) / sum_k exp(tau*m(i,k)). Numerically stabilized by
/// subtracting the row max.
Matrix SoftmaxRows(const Matrix& m, float tau);

/// S(i,j) = cosine(a.row(i), b.row(j)); shape (a.rows x b.rows).
/// L2-normalizes copies of both operands, then one MatMulTransB.
Matrix PairwiseCosine(const Matrix& a, const Matrix& b);

/// PairwiseCosine(a, a): one MatMulTransB of the normalized copy with
/// itself. Computes the full product (no symmetry shortcut) and pins the
/// diagonal to exactly 1.
Matrix SelfCosine(const Matrix& a);

/// Column means of m (size cols).
Vector ColumnMeans(const Matrix& m);

/// Subtracts `mean` from every row in place.
void CenterRows(Matrix* m, const Vector& mean);

/// Covariance of rows: (1/(n-1)) X_c^T X_c where X_c is m centered.
Matrix Covariance(const Matrix& m);

/// Element-wise sign into {-1, +1} (sign(0) := +1, matching the paper's
/// sgn which returns -1 only for negative inputs — 0 maps to -1 there; we
/// map 0 to +1 which changes measure-zero events only and keeps codes in
/// {-1,+1}).
Matrix Sign(const Matrix& m);

}  // namespace uhscm::linalg

#endif  // UHSCM_LINALG_OPS_H_
