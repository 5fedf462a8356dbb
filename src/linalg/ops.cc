#include "linalg/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "common/status.h"
#include "common/thread_pool.h"
#include "index/hamming_kernels.h"

namespace uhscm::linalg {

namespace {

// Cache-blocking parameters of the blocked loops. An i-block of C rows is
// one work unit; within it the inner dimension is walked in kKC-sized
// panels so the B panel streamed by the micro-kernel stays L2-resident
// across the block's rows instead of thrashing per row.
constexpr int kMC = 32;   // C rows per work unit (upper bound)
constexpr int kKC = 128;  // inner-dimension panel

/// Products below this many multiply-adds run their blocks on the calling
/// thread: at a training step's shapes (2^20 to 2^24) waking the pool for
/// one or two i-blocks costs more CPU than it saves wall time. Which
/// thread runs a block never changes the bytes of the result.
constexpr int64_t kPoolMinFlops = int64_t{1} << 25;

template <typename Fn>
void ForEachBlock(int64_t flops, int count, const Fn& fn) {
  if (flops < kPoolMinFlops) {
    for (int i = 0; i < count; ++i) fn(i);
  } else {
    ParallelFor(count, fn);
  }
}

// Micro-kernel: crow += sum_t avs[t] * brows[t][0..n), four inner-dim
// slices fused per pass so each crow[j] is loaded/stored once per four
// multiply-adds (register tiling), with a 4-wide j unroll for the
// vectorizer. The old per-slice axpy with its `av == 0` skip is gone:
// on dense data that branch mispredicts and starves the FMA ports, and
// genuinely sparse inputs lose nothing measurable to four fused slices.
inline void Axpy4(float* crow, const float* avs, const float* const* brows,
                  int n) {
  const float a0 = avs[0], a1 = avs[1], a2 = avs[2], a3 = avs[3];
  const float* b0 = brows[0];
  const float* b1 = brows[1];
  const float* b2 = brows[2];
  const float* b3 = brows[3];
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    crow[j + 1] += a0 * b0[j + 1] + a1 * b1[j + 1] + a2 * b2[j + 1] +
                   a3 * b3[j + 1];
    crow[j + 2] += a0 * b0[j + 2] + a1 * b1[j + 2] + a2 * b2[j + 2] +
                   a3 * b3[j + 2];
    crow[j + 3] += a0 * b0[j + 3] + a1 * b1[j + 3] + a2 * b2[j + 3] +
                   a3 * b3[j + 3];
  }
  for (; j < n; ++j) {
    crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

inline void Axpy1(float* crow, float av, const float* brow, int n) {
  for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
}

// ------------------------------------------------ packed-panel GEMM
//
// GotoBLAS-style structure: the inner dimension is cut into kGemmKC-deep
// slabs; per slab, B is packed once into contiguous kNR-wide j-panels
// (so the micro-kernel streams it linearly), and each work unit packs
// its kGemmMC x kGemmKC block of A into kMR-tall i-panels. The
// micro-kernel then computes one kMR x kNR tile of C. Every tier uses the
// same tile and the same panels; only the micro-kernel differs. Edge
// tiles run the kernel on a scratch copy of C's live region, so the hot
// kernel never branches and every element sees the same arithmetic.
//
// On the FMA tiers each element of C is exactly the chain
// c <- fma(a(i,p), b(p,j), c) for p = 0..k-1, starting from C's value on
// entry, whatever the tile shape, slab boundary or thread: the avx2 and
// avx512 kernels give the same bytes.

constexpr int kMR = 12;       // micro-tile rows (A panel height)
constexpr int kNR = 32;       // micro-tile cols (B panel width, 2 x zmm)
constexpr int kGemmKC = 256;  // inner-dimension slab depth
constexpr int kGemmMC = 96;   // A block rows per work unit (8 panels)

/// Below this many multiply-adds the packing overhead beats the
/// micro-kernel win; such products stay on the cache-blocked loop.
constexpr int64_t kPackedMinFlops = int64_t{1} << 18;

/// c[0..kMR) x [0..kNR) += A-panel * B-panel over kc inner steps.
/// `ap` is kMR floats per step, `bp` kNR floats per step, `c` row-major
/// with leading dimension ldc. Full tiles only.
using MicroKernelFn = void (*)(int kc, const float* ap, const float* bp,
                               float* c, int ldc);

/// Portable micro-kernel: per four inner steps, each C row of the tile
/// (L1-resident) gains the sum of four products, as in MatMulBlocked's
/// Axpy4. It multiplies, then adds, so it is not an FMA chain. A tile
/// held as one accumulator array does not fit the 16 SSE registers: the
/// compiler kept it on the stack, and that kernel ran 8.6x slower than the
/// blocked loop.
void Micro12x32Portable(int kc, const float* ap, const float* bp,
                        float* __restrict c, int ldc) {
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    const float* a = ap + p * kMR;
    const float* b = bp + p * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float a0 = a[r], a1 = a[kMR + r], a2 = a[2 * kMR + r],
                  a3 = a[3 * kMR + r];
      float* crow = c + r * ldc;
      for (int j = 0; j < kNR; ++j) {
        crow[j] += (a0 * b[j] + a1 * b[kNR + j]) +
                   (a2 * b[2 * kNR + j] + a3 * b[3 * kNR + j]);
      }
    }
  }
  for (; p < kc; ++p) {
    for (int r = 0; r < kMR; ++r) {
      const float av = ap[p * kMR + r];
      float* crow = c + r * ldc;
      for (int j = 0; j < kNR; ++j) crow[j] += av * bp[p * kNR + j];
    }
  }
}

#if defined(UHSCM_HAVE_AVX2_KERNELS)
#define UHSCM_GEMM_AVX2_FN __attribute__((target("avx2,fma")))

/// One 6x16 block of the tile in 12 ymm accumulators: two B vectors
/// reused across six broadcast-FMA rows per inner step.
UHSCM_GEMM_AVX2_FN inline void Block6x16Avx2(int kc, const float* ap,
                                             const float* bp, float* c,
                                             int ldc) {
  __m256 c00 = _mm256_loadu_ps(c + 0 * ldc), c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
  __m256 c10 = _mm256_loadu_ps(c + 1 * ldc), c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
  __m256 c20 = _mm256_loadu_ps(c + 2 * ldc), c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  __m256 c30 = _mm256_loadu_ps(c + 3 * ldc), c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  __m256 c40 = _mm256_loadu_ps(c + 4 * ldc), c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
  __m256 c50 = _mm256_loadu_ps(c + 5 * ldc), c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
  for (int p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kNR + 8);
    const float* a = ap + p * kMR;
    __m256 av;
    av = _mm256_broadcast_ss(a + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  _mm256_storeu_ps(c + 0 * ldc, c00);
  _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  _mm256_storeu_ps(c + 1 * ldc, c10);
  _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20);
  _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30);
  _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  _mm256_storeu_ps(c + 4 * ldc, c40);
  _mm256_storeu_ps(c + 4 * ldc + 8, c41);
  _mm256_storeu_ps(c + 5 * ldc, c50);
  _mm256_storeu_ps(c + 5 * ldc + 8, c51);
}

/// AVX2+FMA micro-kernel: the 12x32 tile as four 6x16 register blocks.
UHSCM_GEMM_AVX2_FN void Micro12x32Avx2(int kc, const float* ap,
                                       const float* bp, float* c, int ldc) {
  Block6x16Avx2(kc, ap, bp, c, ldc);
  Block6x16Avx2(kc, ap, bp + 16, c + 16, ldc);
  Block6x16Avx2(kc, ap + 6, bp, c + 6 * ldc, ldc);
  Block6x16Avx2(kc, ap + 6, bp + 16, c + 6 * ldc + 16, ldc);
}
#endif  // UHSCM_HAVE_AVX2_KERNELS

#if defined(UHSCM_HAVE_AVX512_KERNELS)
#define UHSCM_GEMM_AVX512_FN __attribute__((target("avx512f")))

/// AVX-512 micro-kernel: the whole 12x32 tile in 24 zmm accumulators,
/// two B loads and twelve broadcast-FMA rows per inner step.
UHSCM_GEMM_AVX512_FN void Micro12x32Avx512(int kc, const float* ap,
                                           const float* bp, float* c,
                                           int ldc) {
  __m512 c0[kMR], c1[kMR];
#pragma GCC unroll 12
  for (int r = 0; r < kMR; ++r) {
    c0[r] = _mm512_loadu_ps(c + r * ldc);
    c1[r] = _mm512_loadu_ps(c + r * ldc + 16);
  }
  for (int p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + p * kNR);
    const __m512 b1 = _mm512_loadu_ps(bp + p * kNR + 16);
    const float* a = ap + p * kMR;
#pragma GCC unroll 12
    for (int r = 0; r < kMR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r]);
      c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
    }
  }
#pragma GCC unroll 12
  for (int r = 0; r < kMR; ++r) {
    _mm512_storeu_ps(c + r * ldc, c0[r]);
    _mm512_storeu_ps(c + r * ldc + 16, c1[r]);
  }
}
#endif  // UHSCM_HAVE_AVX512_KERNELS

struct GemmKernel {
  MicroKernelFn fn;
  const char* name;
};

/// The micro-kernel of the dispatched kernel tier, picked once: the same
/// choice, and the same UHSCM_FORCE_TIER override, as the Hamming kernels.
const GemmKernel& ActiveGemmKernel() {
  static const GemmKernel kernel = []() -> GemmKernel {
    switch (index::ActiveKernelTier()) {
#if defined(UHSCM_HAVE_AVX512_KERNELS)
      case index::KernelTier::kAvx512:
        return {&Micro12x32Avx512, "avx512 12x32"};
#endif
#if defined(UHSCM_HAVE_AVX2_KERNELS)
      case index::KernelTier::kAvx2:
        if (__builtin_cpu_supports("fma")) {
          return {&Micro12x32Avx2, "avx2 12x32"};
        }
        break;
#endif
      default:
        break;
    }
    return {&Micro12x32Portable, "portable 12x32"};
  }();
  return kernel;
}

/// Packs the kc-deep slice of logical A rows [i0, i0+mc) into kMR-tall
/// i-panels: panel ip holds, per inner step p, the kMR values
/// A(i0+ip*kMR+r, p0+p), zero-padded past mc. `trans` reads A stored as
/// (k x m) row-major, i.e. logical A(i, p) = a[p * lda + i].
void PackAPanels(const float* a, int lda, bool trans, int i0, int mc, int p0,
                 int kc, float* dst) {
  const int panels = (mc + kMR - 1) / kMR;
  for (int ip = 0; ip < panels; ++ip) {
    float* panel = dst + static_cast<size_t>(ip) * kc * kMR;
    const int rows = std::min(kMR, mc - ip * kMR);
    if (trans) {
      for (int p = 0; p < kc; ++p) {
        const float* src = a + static_cast<size_t>(p0 + p) * lda + i0 + ip * kMR;
        float* out = panel + p * kMR;
        for (int r = 0; r < rows; ++r) out[r] = src[r];
        for (int r = rows; r < kMR; ++r) out[r] = 0.0f;
      }
    } else {
      for (int r = 0; r < rows; ++r) {
        const float* src = a + static_cast<size_t>(i0 + ip * kMR + r) * lda + p0;
        for (int p = 0; p < kc; ++p) panel[p * kMR + r] = src[p];
      }
      for (int r = rows; r < kMR; ++r) {
        for (int p = 0; p < kc; ++p) panel[p * kMR + r] = 0.0f;
      }
    }
  }
}

/// Packs the kc-deep slice of all n logical B columns into kNR-wide
/// j-panels: panel jp holds, per inner step p, the kNR values
/// B(p0+p, jp*kNR+j), zero-padded past n. `trans` reads B stored as
/// (n x k) row-major, i.e. logical B(p, j) = b[j * ldb + p].
void PackBPanels(const float* b, int ldb, bool trans, int p0, int kc, int n,
                 float* dst) {
  const int panels = (n + kNR - 1) / kNR;
  for (int jp = 0; jp < panels; ++jp) {
    float* panel = dst + static_cast<size_t>(jp) * kc * kNR;
    const int cols = std::min(kNR, n - jp * kNR);
    if (trans) {
      for (int j = 0; j < cols; ++j) {
        const float* src = b + static_cast<size_t>(jp * kNR + j) * ldb + p0;
        for (int p = 0; p < kc; ++p) panel[p * kNR + j] = src[p];
      }
      for (int j = cols; j < kNR; ++j) {
        for (int p = 0; p < kc; ++p) panel[p * kNR + j] = 0.0f;
      }
    } else {
      for (int p = 0; p < kc; ++p) {
        const float* src = b + static_cast<size_t>(p0 + p) * ldb + jp * kNR;
        float* out = panel + p * kNR;
        for (int j = 0; j < cols; ++j) out[j] = src[j];
        for (int j = cols; j < kNR; ++j) out[j] = 0.0f;
      }
    }
  }
}

/// C(m x n, ldc) += A * B over the packed panels. The A/B transpose
/// flags select the packing reads; the compute loop is identical for all
/// three MatMul entry points.
void PackedGemmInto(int m, int n, int k, const float* a, int lda, bool a_trans,
                    const float* b, int ldb, bool b_trans, float* c, int ldc) {
  const MicroKernelFn micro = ActiveGemmKernel().fn;
  const int jpanels = (n + kNR - 1) / kNR;
  // As deep as the deepest slab, not kGemmKC: for a layer's dW (k = 128,
  // n = 512) the larger pack plus the 512 KB result crossed glibc's
  // heap-trim threshold, so every call page-faulted its buffers back in.
  std::vector<float> bpack(static_cast<size_t>(jpanels) * std::min(k, kGemmKC) *
                           kNR);
  for (int p0 = 0; p0 < k; p0 += kGemmKC) {
    const int kc = std::min(kGemmKC, k - p0);
    PackBPanels(b, ldb, b_trans, p0, kc, n, bpack.data());
    const int iblocks = (m + kGemmMC - 1) / kGemmMC;
    ForEachBlock(int64_t{m} * n * k, iblocks, [&](int ib) {
      const int i0 = ib * kGemmMC;
      const int mc = std::min(kGemmMC, m - i0);
      const int ipanels = (mc + kMR - 1) / kMR;
      std::vector<float> apack(static_cast<size_t>(ipanels) * kc * kMR);
      PackAPanels(a, lda, a_trans, i0, mc, p0, kc, apack.data());
      alignas(64) float scratch[kMR * kNR];
      for (int jp = 0; jp < jpanels; ++jp) {
        const float* bp = bpack.data() + static_cast<size_t>(jp) * kc * kNR;
        const int j0 = jp * kNR;
        const int cols = std::min(kNR, n - j0);
        for (int ip = 0; ip < ipanels; ++ip) {
          const float* ap = apack.data() + static_cast<size_t>(ip) * kc * kMR;
          const int i = i0 + ip * kMR;
          const int rows = std::min(kMR, m - i);
          if (rows == kMR && cols == kNR) {
            micro(kc, ap, bp, c + static_cast<size_t>(i) * ldc + j0, ldc);
          } else {
            // Edge tile: run the kernel on a scratch copy of C's live
            // region and copy it back, so every element continues the
            // same FMA chain a full tile would.
            std::memset(scratch, 0, sizeof(scratch));
            float* ctile = c + static_cast<size_t>(i) * ldc + j0;
            for (int r = 0; r < rows; ++r) {
              std::memcpy(scratch + r * kNR, ctile + static_cast<size_t>(r) * ldc,
                          cols * sizeof(float));
            }
            micro(kc, ap, bp, scratch, kNR);
            for (int r = 0; r < rows; ++r) {
              std::memcpy(ctile + static_cast<size_t>(r) * ldc, scratch + r * kNR,
                          cols * sizeof(float));
            }
          }
        }
      }
    });
  }
}

}  // namespace

const char* PackedGemmKernelName() { return ActiveGemmKernel().name; }

Matrix MatMulBlocked(const Matrix& a, const Matrix& b) {
  UHSCM_CHECK(a.cols() == b.rows(), "MatMul: inner dims mismatch");
  Matrix c(a.rows(), b.cols());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  const int iblocks = (m + kMC - 1) / kMC;
  ForEachBlock(int64_t{m} * k * n, iblocks, [&](int ib) {
    const int i0 = ib * kMC;
    const int i1 = std::min(i0 + kMC, m);
    for (int p0 = 0; p0 < k; p0 += kKC) {
      const int p1 = std::min(p0 + kKC, k);
      for (int i = i0; i < i1; ++i) {
        const float* arow = a.Row(i);
        float* crow = c.Row(i);
        int p = p0;
        for (; p + 4 <= p1; p += 4) {
          const float avs[4] = {arow[p], arow[p + 1], arow[p + 2],
                                arow[p + 3]};
          const float* brows[4] = {b.Row(p), b.Row(p + 1), b.Row(p + 2),
                                   b.Row(p + 3)};
          Axpy4(crow, avs, brows, n);
        }
        for (; p < p1; ++p) Axpy1(crow, arow[p], b.Row(p), n);
      }
    }
  });
  return c;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  UHSCM_CHECK(a.cols() == b.rows(), "MatMul: inner dims mismatch");
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  if (int64_t{m} * k * n < kPackedMinFlops) return MatMulBlocked(a, b);
  Matrix c(m, n);
  PackedGemmInto(m, n, k, a.data(), k, /*a_trans=*/false, b.data(), n,
                 /*b_trans=*/false, c.Row(0), n);
  return c;
}

void AddMatMulTransA(const Matrix& a, const Matrix& b, Matrix* c) {
  UHSCM_CHECK(a.rows() == b.rows(), "MatMulTransA: dims mismatch");
  UHSCM_CHECK(c->rows() == a.cols() && c->cols() == b.cols(),
              "AddMatMulTransA: C shape mismatch");
  const int m = a.cols();
  const int k = a.rows();
  const int n = b.cols();
  if (int64_t{m} * k * n >= kPackedMinFlops) {
    PackedGemmInto(m, n, k, a.data(), m, /*a_trans=*/true, b.data(), n,
                   /*b_trans=*/false, c->data(), n);
    return;
  }
  // MatMulBlocked's loop with the roles transposed, c(i,j) += sum_p
  // a(p,i) * b(p,j): the A reads are column-strided, the rest is the same.
  for (int p0 = 0; p0 < k; p0 += kKC) {
    const int p1 = std::min(p0 + kKC, k);
    for (int i = 0; i < m; ++i) {
      float* crow = c->Row(i);
      int p = p0;
      for (; p + 4 <= p1; p += 4) {
        const float avs[4] = {a(p, i), a(p + 1, i), a(p + 2, i), a(p + 3, i)};
        const float* brows[4] = {b.Row(p), b.Row(p + 1), b.Row(p + 2),
                                 b.Row(p + 3)};
        Axpy4(crow, avs, brows, n);
      }
      for (; p < p1; ++p) Axpy1(crow, a(p, i), b.Row(p), n);
    }
  }
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  AddMatMulTransA(a, b, &c);
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  UHSCM_CHECK(a.cols() == b.cols(), "MatMulTransB: dims mismatch");
  if (int64_t{a.rows()} * a.cols() * b.rows() >= kPackedMinFlops) {
    Matrix c(a.rows(), b.rows());
    PackedGemmInto(a.rows(), b.rows(), a.cols(), a.data(), a.cols(),
                   /*a_trans=*/false, b.data(), b.cols(), /*b_trans=*/true,
                   c.Row(0), b.rows());
    return c;
  }
  Matrix c(a.rows(), b.rows());
  const int k = a.cols();
  const int nb = b.rows();
  for (int i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    float* crow = c.Row(i);
    // Four dot products share one streaming pass over arow (register
    // tiling along the output row); remainder rows fall back to Dot.
    int j = 0;
    for (; j + 4 <= nb; j += 4) {
      const float* b0 = b.Row(j);
      const float* b1 = b.Row(j + 1);
      const float* b2 = b.Row(j + 2);
      const float* b3 = b.Row(j + 3);
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      crow[j] = s0;
      crow[j + 1] = s1;
      crow[j + 2] = s2;
      crow[j + 3] = s3;
    }
    for (; j < nb; ++j) crow[j] = Dot(arow, b.Row(j), k);
  }
  return c;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  UHSCM_CHECK(static_cast<int>(x.size()) == a.cols(),
              "MatVec: size mismatch");
  Vector y(static_cast<size_t>(a.rows()), 0.0f);
  for (int i = 0; i < a.rows(); ++i) {
    y[static_cast<size_t>(i)] = Dot(a.Row(i), x.data(), a.cols());
  }
  return y;
}

float Dot(const float* a, const float* b, int n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return s0 + s1 + s2 + s3;
}

float Dot(const Vector& a, const Vector& b) {
  UHSCM_CHECK(a.size() == b.size(), "Dot: size mismatch");
  return Dot(a.data(), b.data(), static_cast<int>(a.size()));
}

float Norm2(const float* a, int n) {
  return std::sqrt(std::max(0.0f, Dot(a, a, n)));
}

float Norm2(const Vector& a) { return Norm2(a.data(), static_cast<int>(a.size())); }

float SquaredDistance(const float* a, const float* b, int n) {
  float s = 0.0f;
  for (int i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

float CosineSimilarity(const float* a, const float* b, int n) {
  const float na = Norm2(a, n);
  const float nb = Norm2(b, n);
  if (na < 1e-12f || nb < 1e-12f) return 0.0f;
  return Dot(a, b, n) / (na * nb);
}

void NormalizeRowsL2(Matrix* m) {
  for (int r = 0; r < m->rows(); ++r) {
    float* row = m->Row(r);
    const float norm = Norm2(row, m->cols());
    if (norm > 1e-12f) {
      const float inv = 1.0f / norm;
      for (int c = 0; c < m->cols(); ++c) row[c] *= inv;
    }
  }
}

Matrix SoftmaxRows(const Matrix& m, float tau) {
  Matrix out(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r) {
    const float* src = m.Row(r);
    float* dst = out.Row(r);
    float max_v = src[0];
    for (int c = 1; c < m.cols(); ++c) max_v = std::max(max_v, src[c]);
    double sum = 0.0;
    for (int c = 0; c < m.cols(); ++c) {
      const double e = std::exp(static_cast<double>(tau) * (src[c] - max_v));
      dst[c] = static_cast<float>(e);
      sum += e;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int c = 0; c < m.cols(); ++c) dst[c] *= inv;
  }
  return out;
}

Matrix PairwiseCosine(const Matrix& a, const Matrix& b) {
  UHSCM_CHECK(a.cols() == b.cols(), "PairwiseCosine: dims mismatch");
  Matrix an = a;
  Matrix bn = b;
  NormalizeRowsL2(&an);
  NormalizeRowsL2(&bn);
  return MatMulTransB(an, bn);
}

Matrix SelfCosine(const Matrix& a) {
  Matrix an = a;
  NormalizeRowsL2(&an);
  Matrix s = MatMulTransB(an, an);
  // Clamp tiny asymmetries from float accumulation.
  for (int i = 0; i < s.rows(); ++i) s(i, i) = 1.0f;
  return s;
}

Vector ColumnMeans(const Matrix& m) {
  Vector mean(static_cast<size_t>(m.cols()), 0.0f);
  if (m.rows() == 0) return mean;
  for (int r = 0; r < m.rows(); ++r) {
    const float* row = m.Row(r);
    for (int c = 0; c < m.cols(); ++c) mean[static_cast<size_t>(c)] += row[c];
  }
  const float inv = 1.0f / static_cast<float>(m.rows());
  for (auto& v : mean) v *= inv;
  return mean;
}

void CenterRows(Matrix* m, const Vector& mean) {
  UHSCM_CHECK(static_cast<int>(mean.size()) == m->cols(),
              "CenterRows: size mismatch");
  for (int r = 0; r < m->rows(); ++r) {
    float* row = m->Row(r);
    for (int c = 0; c < m->cols(); ++c) row[c] -= mean[static_cast<size_t>(c)];
  }
}

Matrix Covariance(const Matrix& m) {
  UHSCM_CHECK(m.rows() >= 2, "Covariance needs at least 2 rows");
  Matrix centered = m;
  CenterRows(&centered, ColumnMeans(m));
  Matrix cov = MatMulTransA(centered, centered);
  cov.Scale(1.0f / static_cast<float>(m.rows() - 1));
  return cov;
}

Matrix Sign(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  const float* src = m.data();
  float* dst = out.data();
  for (size_t i = 0; i < m.size(); ++i) {
    dst[i] = src[i] < 0.0f ? -1.0f : 1.0f;
  }
  return out;
}

}  // namespace uhscm::linalg
