#ifndef UHSCM_LINALG_OPS_H_
#define UHSCM_LINALG_OPS_H_

#include <vector>

#include "linalg/matrix.h"

namespace uhscm::linalg {

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n). Parallel over row
/// blocks. Products big enough to amortize packing go through the
/// packed-panel GEMM micro-kernel (j-panel packing + a 6x16 register
/// tile, explicitly vectorized with AVX2+FMA where the CPU has it);
/// small products stay on the cache-blocked loop (MatMulBlocked).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n). Same packed-panel
/// dispatch as MatMul (the packing step absorbs the transpose).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T. Shapes: (m x k) * (n x k)^T -> (m x n). Same packed-panel
/// dispatch as MatMul (the packing step absorbs the transpose).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// The pre-packing cache-blocked implementation of MatMul, kept as the
/// portable fallback for small products and as the baseline the
/// micro-kernel benches compare against (bench/micro_perf.cc
/// BM_PackedGemm).
Matrix MatMulBlocked(const Matrix& a, const Matrix& b);

/// True when the packed-panel GEMM will use the AVX2+FMA micro-kernel on
/// this host (compiled in, CPU supports it, and kernel dispatch is not
/// forced to scalar via UHSCM_FORCE_TIER=scalar — the forced-scalar CI
/// leg covers the portable micro-kernel the same way it covers the
/// scalar Hamming tier). When false, packed products run the portable
/// 6x16 micro-kernel.
bool PackedGemmAvailable();

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

/// Element-wise tanh.
Matrix Tanh(const Matrix& m);

/// Mean of all entries.
float Mean(const Matrix& m);

}  // namespace uhscm::linalg

#endif  // UHSCM_LINALG_OPS_H_
