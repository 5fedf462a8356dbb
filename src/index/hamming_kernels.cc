#include "index/hamming_kernels.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(UHSCM_HAVE_AVX2_KERNELS) || defined(UHSCM_HAVE_AVX512_KERNELS)
#include <immintrin.h>
#endif

namespace uhscm::index {
namespace {

inline int Popcount64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(x);
#else
  return std::popcount(x);
#endif
}

[[maybe_unused]] inline int ScalarPair(const uint64_t* a, const uint64_t* b,
                                       int words) {
  int d = 0;
  for (int w = 0; w < words; ++w) d += Popcount64(a[w] ^ b[w]);
  return d;
}

/// Early-abandon only pays for itself when a meaningful fraction of the
/// per-code work can be skipped; below this width the partial-sum checks
/// cost more than the popcounts they save.
constexpr int kPruneMinWords = 16;

inline int32_t MinInt32(int32_t a, int32_t b) { return a < b ? a : b; }
inline int32_t MaxInt32(int32_t a, int32_t b) { return a > b ? a : b; }

/// The bound code i of an emitting call must beat (see BatchEmitFn).
inline int32_t EmitBound(int32_t row_bound, const int32_t* code_bounds,
                         int i) {
  return code_bounds == nullptr ? row_bound
                                : MaxInt32(row_bound, code_bounds[i]);
}

/// Appends hit (i, d) to an emitting call's output when d beats `bound`.
inline void EmitIfBelow(int i, int32_t d, int32_t bound, int32_t* out_index,
                        int32_t* out_distance, int* count) {
  if (d < bound) {
    out_index[*count] = i;
    out_distance[*count] = d;
    ++*count;
  }
}

/// Emits codes [lo, n) of a run one at a time from plain popcounts and
/// returns the updated hit count. The scalar tier's path for 64- and
/// 128-bit codes, where a code costs one or two popcounts and a pass
/// over a buffer would cost as much, and the vector layouts' tails.
inline int EmitEach(const uint64_t* query, const uint64_t* codes, int lo,
                    int n, int words, int32_t row_bound,
                    const int32_t* code_bounds, int32_t* out_index,
                    int32_t* out_distance, int count) {
  for (int i = lo; i < n; ++i) {
    EmitIfBelow(i,
                ScalarPair(query, codes + static_cast<size_t>(i) * words,
                           words),
                EmitBound(row_bound, code_bounds, i), out_index, out_distance,
                &count);
  }
  return count;
}

/// Codes per block of an emitting kernel built on a plain kernel.
constexpr int kEmitBlock = 128;

/// Emitting kernel built on the fused plain kernel `kBatchMin`: scores
/// the run in blocks of kEmitBlock codes into an L1-resident buffer and
/// keeps the distances that beat their own bound. Each block's threshold
/// is its loosest bound. A code abandoned at or above it can never beat
/// its own bound, which is no looser; and a block whose fused minimum
/// reaches it has no hit, so its buffer is never read. Every tier's path
/// for codes of three or more words.
template <BatchDistanceMinFn kBatchMin>
int EmitThroughBatch(const uint64_t* query, const uint64_t* codes, int n,
                     int words, int32_t row_bound, const int32_t* code_bounds,
                     int32_t* out_index, int32_t* out_distance) {
  int32_t dist[kEmitBlock];
  int count = 0;
  for (int lo = 0; lo < n; lo += kEmitBlock) {
    const int m = n - lo < kEmitBlock ? n - lo : kEmitBlock;
    int32_t threshold = row_bound;
    for (int j = 0; code_bounds != nullptr && j < m; ++j) {
      threshold = MaxInt32(threshold, code_bounds[lo + j]);
    }
    if (kBatchMin(query, codes + static_cast<size_t>(lo) * words, m, words,
                  threshold, dist) >= threshold) {
      continue;
    }
    for (int j = 0; j < m; ++j) {
      EmitIfBelow(lo + j, dist[j], EmitBound(row_bound, code_bounds, lo + j),
                  out_index, out_distance, &count);
    }
  }
  return count;
}

/// Scalar reference.
int32_t BatchScalarImpl(const uint64_t* query, const uint64_t* codes, int n,
                        int words, int32_t threshold, int32_t* out) {
  const bool prune = threshold != kNoThreshold && words >= kPruneMinWords;
  int32_t best = INT32_MAX;
  for (int i = 0; i < n; ++i) {
    const uint64_t* code = codes + static_cast<size_t>(i) * words;
    // Four accumulators keep the popcnt ports busy (same trick as
    // HammingDistance); the partial-sum check fires once per 16 words.
    int d0 = 0, d1 = 0, d2 = 0, d3 = 0;
    int w = 0;
    bool abandoned = false;
    for (; w + 4 <= words; w += 4) {
      d0 += Popcount64(query[w] ^ code[w]);
      d1 += Popcount64(query[w + 1] ^ code[w + 1]);
      d2 += Popcount64(query[w + 2] ^ code[w + 2]);
      d3 += Popcount64(query[w + 3] ^ code[w + 3]);
      if (prune && (w & 15) == 12 && d0 + d1 + d2 + d3 >= threshold) {
        // Partial popcounts only grow, so this code can never beat the
        // threshold — report the (>= threshold) partial and move on.
        abandoned = true;
        break;
      }
    }
    if (!abandoned) {
      for (; w < words; ++w) d0 += Popcount64(query[w] ^ code[w]);
    }
    out[i] = d0 + d1 + d2 + d3;
    best = MinInt32(best, out[i]);
  }
  return best;
}

}  // namespace

int32_t BatchDistancesMinScalar(const uint64_t* query, const uint64_t* codes,
                                int n, int words, int32_t threshold,
                                int32_t* out) {
  return BatchScalarImpl(query, codes, n, words, threshold, out);
}

int BatchEmitScalar(const uint64_t* query, const uint64_t* codes, int n,
                    int words, int32_t row_bound, const int32_t* code_bounds,
                    int32_t* out_index, int32_t* out_distance) {
  if (words <= 2) {
    return EmitEach(query, codes, 0, n, words, row_bound, code_bounds,
                    out_index, out_distance, 0);
  }
  return EmitThroughBatch<&BatchDistancesMinScalar>(
      query, codes, n, words, row_bound, code_bounds, out_index, out_distance);
}

#if defined(UHSCM_HAVE_AVX2_KERNELS)

#define UHSCM_AVX2_FN __attribute__((target("avx2")))

namespace {

/// Per-64-bit-lane popcount of a 256-bit vector: pshufb nibble LUT into
/// per-byte counts, then psadbw against zero to sum bytes per lane
/// (Mula's vectorized popcount).
UHSCM_AVX2_FN inline __m256i PopcountLanes64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

UHSCM_AVX2_FN inline uint64_t HorizontalSum64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

/// Carry-save adder: (h, l) = a + b + c in bit-sliced form.
UHSCM_AVX2_FN inline void Csa(__m256i* h, __m256i* l, __m256i a, __m256i b,
                              __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  *h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  *l = _mm256_xor_si256(u, c);
}

/// XOR of the v-th 256-bit chunk (4 words) of a code and query row.
UHSCM_AVX2_FN inline __m256i LoadXor(const uint64_t* code,
                                     const uint64_t* query, int v) {
  const __m256i c = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(code + 4 * static_cast<size_t>(v)));
  const __m256i q = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(query + 4 * static_cast<size_t>(v)));
  return _mm256_xor_si256(c, q);
}

/// 64-bit codes: four codes per 256-bit load, one lane each.
UHSCM_AVX2_FN int32_t BatchWords1(uint64_t q0, const uint64_t* codes, int n,
                                  int32_t* out) {
  const __m256i q = _mm256_set1_epi64x(static_cast<long long>(q0));
  alignas(32) uint64_t tmp[4];
  int32_t best = INT32_MAX;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp),
                       PopcountLanes64(_mm256_xor_si256(v, q)));
    out[i] = static_cast<int32_t>(tmp[0]);
    out[i + 1] = static_cast<int32_t>(tmp[1]);
    out[i + 2] = static_cast<int32_t>(tmp[2]);
    out[i + 3] = static_cast<int32_t>(tmp[3]);
    best = MinInt32(best, MinInt32(MinInt32(out[i], out[i + 1]),
                                   MinInt32(out[i + 2], out[i + 3])));
  }
  for (; i < n; ++i) {
    out[i] = Popcount64(q0 ^ codes[i]);
    best = MinInt32(best, out[i]);
  }
  return best;
}

/// 128-bit codes: two codes per 256-bit load, two lanes each; two loads
/// per iteration for instruction-level parallelism.
UHSCM_AVX2_FN int32_t BatchWords2(const uint64_t* query, const uint64_t* codes,
                                  int n, int32_t* out) {
  const __m256i q = _mm256_setr_epi64x(
      static_cast<long long>(query[0]), static_cast<long long>(query[1]),
      static_cast<long long>(query[0]), static_cast<long long>(query[1]));
  alignas(32) uint64_t t0[4], t1[4];
  int32_t best = INT32_MAX;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t* p = codes + 2 * static_cast<size_t>(i);
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
    _mm256_store_si256(reinterpret_cast<__m256i*>(t0),
                       PopcountLanes64(_mm256_xor_si256(v0, q)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(t1),
                       PopcountLanes64(_mm256_xor_si256(v1, q)));
    out[i] = static_cast<int32_t>(t0[0] + t0[1]);
    out[i + 1] = static_cast<int32_t>(t0[2] + t0[3]);
    out[i + 2] = static_cast<int32_t>(t1[0] + t1[1]);
    out[i + 3] = static_cast<int32_t>(t1[2] + t1[3]);
    best = MinInt32(best, MinInt32(MinInt32(out[i], out[i + 1]),
                                   MinInt32(out[i + 2], out[i + 3])));
  }
  for (; i < n; ++i) {
    out[i] = ScalarPair(query, codes + 2 * static_cast<size_t>(i), 2);
    best = MinInt32(best, out[i]);
  }
  return best;
}

/// Any width >= 3 words: per-code vector accumulation. Codes of >= 32
/// words go through a Harley–Seal carry-save tree (one full popcount per
/// eight vectors); the rest accumulate lane popcounts directly. The tail
/// (words % 4) is scalar. With a finite `threshold`, the running lane
/// accumulator provides a monotone lower bound used to abandon codes
/// that can no longer beat the threshold.
UHSCM_AVX2_FN int32_t BatchGeneric(const uint64_t* query,
                                   const uint64_t* codes, int n, int words,
                                   int32_t threshold, int32_t* out) {
  const int vecs = words / 4;
  const int tail_start = vecs * 4;
  const bool prune = threshold != kNoThreshold && words >= kPruneMinWords;
  int32_t best = INT32_MAX;
  for (int i = 0; i < n; ++i) {
    const uint64_t* code = codes + static_cast<size_t>(i) * words;
    uint64_t sum = 0;
    int v = 0;
    __m256i acc = _mm256_setzero_si256();
    bool abandoned = false;
    if (vecs >= 8) {
      __m256i ones = _mm256_setzero_si256();
      __m256i twos = _mm256_setzero_si256();
      __m256i fours = _mm256_setzero_si256();
      for (; v + 8 <= vecs; v += 8) {
        __m256i twos_a, twos_b, fours_a, fours_b, eights;
        Csa(&twos_a, &ones, ones, LoadXor(code, query, v),
            LoadXor(code, query, v + 1));
        Csa(&twos_b, &ones, ones, LoadXor(code, query, v + 2),
            LoadXor(code, query, v + 3));
        Csa(&fours_a, &twos, twos, twos_a, twos_b);
        Csa(&twos_a, &ones, ones, LoadXor(code, query, v + 4),
            LoadXor(code, query, v + 5));
        Csa(&twos_b, &ones, ones, LoadXor(code, query, v + 6),
            LoadXor(code, query, v + 7));
        Csa(&fours_b, &twos, twos, twos_a, twos_b);
        Csa(&eights, &fours, fours, fours_a, fours_b);
        acc = _mm256_add_epi64(acc, PopcountLanes64(eights));
        // 8 * acc ignores the ones/twos/fours residue, so it is a valid
        // lower bound of the distance counted so far.
        if (prune && 8 * HorizontalSum64(acc) >= static_cast<uint64_t>(threshold)) {
          sum = 8 * HorizontalSum64(acc);
          abandoned = true;
          break;
        }
      }
      if (!abandoned) {
        sum = 8 * HorizontalSum64(acc) +
              4 * HorizontalSum64(PopcountLanes64(fours)) +
              2 * HorizontalSum64(PopcountLanes64(twos)) +
              HorizontalSum64(PopcountLanes64(ones));
        acc = _mm256_setzero_si256();
      }
    }
    if (!abandoned) {
      for (; v < vecs; ++v) {
        acc = _mm256_add_epi64(acc,
                               PopcountLanes64(LoadXor(code, query, v)));
        if (prune && (v & 3) == 3 &&
            sum + HorizontalSum64(acc) >= static_cast<uint64_t>(threshold)) {
          abandoned = true;
          break;
        }
      }
      sum += HorizontalSum64(acc);
      if (!abandoned) {
        for (int w = tail_start; w < words; ++w) {
          sum += Popcount64(query[w] ^ code[w]);
        }
      }
    }
    out[i] = static_cast<int32_t>(sum);
    best = MinInt32(best, out[i]);
  }
  return best;
}

int32_t BatchAvx2Impl(const uint64_t* query, const uint64_t* codes, int n,
                      int words, int32_t threshold, int32_t* out) {
  // Narrow codes are exact regardless of threshold — computing them fully
  // is cheaper than any pruning bookkeeping (the contract allows exact
  // values at or above the threshold).
  if (words == 1) return BatchWords1(query[0], codes, n, out);
  if (words == 2) return BatchWords2(query, codes, n, out);
  return BatchGeneric(query, codes, n, words, threshold, out);
}

/// Distances of the eight 64-bit codes at `p`, as int32 lanes in code
/// order.
UHSCM_AVX2_FN inline __m256i Distances8Words1(__m256i q, const uint64_t* p) {
  const __m256i a = PopcountLanes64(_mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), q));
  const __m256i b = PopcountLanes64(_mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4)), q));
  // Dwords [d0 d4 d1 d5 d2 d6 d3 d7] -> code order.
  return _mm256_permutevar8x32_epi32(
      _mm256_or_si256(a, _mm256_slli_epi64(b, 32)),
      _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
}

/// Distances of the eight 128-bit codes at `p`, as int32 lanes in code
/// order.
UHSCM_AVX2_FN inline __m256i Distances8Words2(__m256i q, const uint64_t* p) {
  __m256i s[4];
  for (int v = 0; v < 4; ++v) {
    s[v] = PopcountLanes64(_mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4 * v)), q));
  }
  // s[v] holds codes 2v, 2v+1, one per 128-bit lane as (low, high) word
  // counts; the unpacks add each code's halves: lane 0 gets [d0 d2],
  // lane 1 [d1 d3] (then [d4 d6] and [d5 d7]).
  const __m256i d03 = _mm256_add_epi64(_mm256_unpacklo_epi64(s[0], s[1]),
                                       _mm256_unpackhi_epi64(s[0], s[1]));
  const __m256i d47 = _mm256_add_epi64(_mm256_unpacklo_epi64(s[2], s[3]),
                                       _mm256_unpackhi_epi64(s[2], s[3]));
  // Dwords [d0 d4 d2 d6 d1 d5 d3 d7] -> code order.
  return _mm256_permutevar8x32_epi32(
      _mm256_or_si256(d03, _mm256_slli_epi64(d47, 32)),
      _mm256_setr_epi32(0, 4, 2, 6, 1, 5, 3, 7));
}

/// Emitting kernel for 64- and 128-bit codes: eight distances per step
/// are compared against their bounds in registers; only a step with a
/// hit spills its distances, and the hits are walked by mask bit.
template <int kWords>
UHSCM_AVX2_FN int EmitNarrowAvx2(const uint64_t* query, const uint64_t* codes,
                                 int n, int32_t row_bound,
                                 const int32_t* code_bounds,
                                 int32_t* out_index, int32_t* out_distance) {
  __m256i q;
  if constexpr (kWords == 1) {
    q = _mm256_set1_epi64x(static_cast<long long>(query[0]));
  } else {
    q = _mm256_setr_epi64x(
        static_cast<long long>(query[0]), static_cast<long long>(query[1]),
        static_cast<long long>(query[0]), static_cast<long long>(query[1]));
  }
  const __m256i row = _mm256_set1_epi32(row_bound);
  alignas(32) int32_t dist[8];
  int count = 0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t* p = codes + kWords * static_cast<size_t>(i);
    __m256i d;
    if constexpr (kWords == 1) {
      d = Distances8Words1(q, p);
    } else {
      d = Distances8Words2(q, p);
    }
    const __m256i bound =
        code_bounds == nullptr
            ? row
            : _mm256_max_epi32(row, _mm256_loadu_si256(
                                        reinterpret_cast<const __m256i*>(
                                            code_bounds + i)));
    unsigned hits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(bound, d))));
    if (hits == 0) continue;
    _mm256_store_si256(reinterpret_cast<__m256i*>(dist), d);
    do {
      const int lane = __builtin_ctz(hits);
      out_index[count] = i + lane;
      out_distance[count] = dist[lane];
      ++count;
      hits &= hits - 1;
    } while (hits != 0);
  }
  return EmitEach(query, codes, i, n, kWords, row_bound, code_bounds,
                  out_index, out_distance, count);
}

}  // namespace

int32_t BatchDistancesMinAvx2(const uint64_t* query, const uint64_t* codes,
                              int n, int words, int32_t threshold,
                              int32_t* out) {
  return BatchAvx2Impl(query, codes, n, words, threshold, out);
}

int BatchEmitAvx2(const uint64_t* query, const uint64_t* codes, int n,
                  int words, int32_t row_bound, const int32_t* code_bounds,
                  int32_t* out_index, int32_t* out_distance) {
  if (words == 1) {
    return EmitNarrowAvx2<1>(query, codes, n, row_bound, code_bounds,
                             out_index, out_distance);
  }
  if (words == 2) {
    return EmitNarrowAvx2<2>(query, codes, n, row_bound, code_bounds,
                             out_index, out_distance);
  }
  return EmitThroughBatch<&BatchDistancesMinAvx2>(
      query, codes, n, words, row_bound, code_bounds, out_index, out_distance);
}

#endif  // UHSCM_HAVE_AVX2_KERNELS

#if defined(UHSCM_HAVE_AVX512_KERNELS)

#define UHSCM_AVX512_FN __attribute__((target("avx512f,avx512bw,avx512vl")))
#define UHSCM_AVX512VP_FN \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vpopcntdq")))

namespace {

// ------------------------- VPOPCNTDQ sub-tier (Ice Lake+, Zen 4+) -------

/// XOR of the v-th 512-bit chunk (8 words) of a code and query row.
UHSCM_AVX512_FN inline __m512i LoadXor512(const uint64_t* code,
                                          const uint64_t* query, int v) {
  const __m512i c = _mm512_loadu_si512(code + 8 * static_cast<size_t>(v));
  const __m512i q = _mm512_loadu_si512(query + 8 * static_cast<size_t>(v));
  return _mm512_xor_si512(c, q);
}

/// 64-bit codes: eight codes per 512-bit load, one native popcount each;
/// the 64->32 narrowing store writes all eight outputs at once.
UHSCM_AVX512VP_FN int32_t BatchWords1Vp(uint64_t q0, const uint64_t* codes,
                                        int n, int32_t* out) {
  const __m512i q = _mm512_set1_epi64(static_cast<long long>(q0));
  __m512i minacc = _mm512_set1_epi64(INT32_MAX);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(codes + i);
    const __m512i p = _mm512_popcnt_epi64(_mm512_xor_si512(v, q));
    minacc = _mm512_min_epi64(minacc, p);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(p));
  }
  int32_t best = static_cast<int32_t>(_mm512_reduce_min_epi64(minacc));
  for (; i < n; ++i) {
    out[i] = Popcount64(q0 ^ codes[i]);
    best = MinInt32(best, out[i]);
  }
  return best;
}

/// 128-bit codes: four codes per 512-bit load; adjacent 64-bit lane
/// pairs sum into the even lanes, which a lane gather extracts.
UHSCM_AVX512VP_FN int32_t BatchWords2Vp(const uint64_t* query,
                                        const uint64_t* codes, int n,
                                        int32_t* out) {
  const __m512i q = _mm512_broadcast_i32x4(_mm_loadu_si128(
      reinterpret_cast<const __m128i*>(query)));
  // Selects lanes {0,2,4,6} (the per-code pair sums) of one vector.
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 0, 2, 4, 6);
  __m512i minacc = _mm512_set1_epi64(INT32_MAX);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t* p = codes + 2 * static_cast<size_t>(i);
    const __m512i v = _mm512_loadu_si512(p);
    const __m512i cnt = _mm512_popcnt_epi64(_mm512_xor_si512(v, q));
    // lane j += lane j+1: after the shift, even lanes hold code sums.
    const __m512i shifted = _mm512_alignr_epi64(_mm512_setzero_si512(), cnt, 1);
    const __m512i sums = _mm512_add_epi64(cnt, shifted);
    const __m512i packed = _mm512_permutexvar_epi64(even, sums);
    minacc = _mm512_min_epi64(minacc, packed);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(_mm512_cvtepi64_epi32(packed)));
  }
  int32_t best = static_cast<int32_t>(_mm512_reduce_min_epi64(minacc));
  for (; i < n; ++i) {
    out[i] = ScalarPair(query, codes + 2 * static_cast<size_t>(i), 2);
    best = MinInt32(best, out[i]);
  }
  return best;
}

/// Any width >= 3 words, native popcount: two 512-bit accumulators (16
/// words per iteration) keep the VPOPCNTQ port busy; the 8-word tail of
/// the vectorized region uses one vector, the final < 8 words are
/// scalar. Pruning checks the running lane sums every 16 words, like the
/// scalar kernel.
UHSCM_AVX512VP_FN int32_t BatchGenericVp(const uint64_t* query,
                                         const uint64_t* codes, int n,
                                         int words, int32_t threshold,
                                         int32_t* out) {
  const int vecs = words / 8;
  const int tail_start = vecs * 8;
  const bool prune = threshold != kNoThreshold && words >= kPruneMinWords;
  int32_t best = INT32_MAX;
  for (int i = 0; i < n; ++i) {
    const uint64_t* code = codes + static_cast<size_t>(i) * words;
    uint64_t sum = 0;
    int v = 0;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    bool abandoned = false;
    for (; v + 2 <= vecs; v += 2) {
      acc0 = _mm512_add_epi64(acc0,
                              _mm512_popcnt_epi64(LoadXor512(code, query, v)));
      acc1 = _mm512_add_epi64(
          acc1, _mm512_popcnt_epi64(LoadXor512(code, query, v + 1)));
      if (prune &&
          static_cast<uint64_t>(_mm512_reduce_add_epi64(acc0)) +
                  static_cast<uint64_t>(_mm512_reduce_add_epi64(acc1)) >=
              static_cast<uint64_t>(threshold)) {
        sum = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc0)) +
              static_cast<uint64_t>(_mm512_reduce_add_epi64(acc1));
        abandoned = true;
        break;
      }
    }
    if (!abandoned) {
      if (v < vecs) {
        acc0 = _mm512_add_epi64(
            acc0, _mm512_popcnt_epi64(LoadXor512(code, query, v)));
      }
      sum = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc0)) +
            static_cast<uint64_t>(_mm512_reduce_add_epi64(acc1));
      for (int w = tail_start; w < words; ++w) {
        sum += Popcount64(query[w] ^ code[w]);
      }
    }
    out[i] = static_cast<int32_t>(sum);
    best = MinInt32(best, out[i]);
  }
  return best;
}

// --------------------- AVX-512BW sub-tier (no VPOPCNTDQ; Skylake-X) -----

/// Per-64-bit-lane popcount of a 512-bit vector via the same pshufb
/// nibble LUT as the AVX2 tier, twice as wide.
UHSCM_AVX512_FN inline __m512i PopcountLanes64Bw(__m512i v) {
  const __m512i lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low);
  const __m512i cnt = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                      _mm512_shuffle_epi8(lut, hi));
  return _mm512_sad_epu8(cnt, _mm512_setzero_si512());
}

/// Carry-save adder, 512-bit: (h, l) = a + b + c in bit-sliced form.
UHSCM_AVX512_FN inline void Csa512(__m512i* h, __m512i* l, __m512i a,
                                   __m512i b, __m512i c) {
  const __m512i u = _mm512_xor_si512(a, b);
  *h = _mm512_or_si512(_mm512_and_si512(a, b), _mm512_and_si512(u, c));
  *l = _mm512_xor_si512(u, c);
}

/// Width >= 8 words without native popcount: LUT popcounts over 512-bit
/// chunks, under a Harley–Seal carry-save tree once >= 8 chunks (64
/// words) are in play — one full LUT popcount per eight vectors.
UHSCM_AVX512_FN int32_t BatchGenericBw(const uint64_t* query,
                                       const uint64_t* codes, int n, int words,
                                       int32_t threshold, int32_t* out) {
  const int vecs = words / 8;
  const int tail_start = vecs * 8;
  const bool prune = threshold != kNoThreshold && words >= kPruneMinWords;
  int32_t best = INT32_MAX;
  for (int i = 0; i < n; ++i) {
    const uint64_t* code = codes + static_cast<size_t>(i) * words;
    uint64_t sum = 0;
    int v = 0;
    __m512i acc = _mm512_setzero_si512();
    bool abandoned = false;
    if (vecs >= 8) {
      __m512i ones = _mm512_setzero_si512();
      __m512i twos = _mm512_setzero_si512();
      __m512i fours = _mm512_setzero_si512();
      for (; v + 8 <= vecs; v += 8) {
        __m512i twos_a, twos_b, fours_a, fours_b, eights;
        Csa512(&twos_a, &ones, ones, LoadXor512(code, query, v),
               LoadXor512(code, query, v + 1));
        Csa512(&twos_b, &ones, ones, LoadXor512(code, query, v + 2),
               LoadXor512(code, query, v + 3));
        Csa512(&fours_a, &twos, twos, twos_a, twos_b);
        Csa512(&twos_a, &ones, ones, LoadXor512(code, query, v + 4),
               LoadXor512(code, query, v + 5));
        Csa512(&twos_b, &ones, ones, LoadXor512(code, query, v + 6),
               LoadXor512(code, query, v + 7));
        Csa512(&fours_b, &twos, twos, twos_a, twos_b);
        Csa512(&eights, &fours, fours, fours_a, fours_b);
        acc = _mm512_add_epi64(acc, PopcountLanes64Bw(eights));
        // 8 * acc ignores the ones/twos/fours residue, so it is a valid
        // lower bound of the distance counted so far.
        if (prune &&
            8 * static_cast<uint64_t>(_mm512_reduce_add_epi64(acc)) >=
                static_cast<uint64_t>(threshold)) {
          sum = 8 * static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
          abandoned = true;
          break;
        }
      }
      if (!abandoned) {
        sum =
            8 * static_cast<uint64_t>(_mm512_reduce_add_epi64(acc)) +
            4 * static_cast<uint64_t>(
                    _mm512_reduce_add_epi64(PopcountLanes64Bw(fours))) +
            2 * static_cast<uint64_t>(
                    _mm512_reduce_add_epi64(PopcountLanes64Bw(twos))) +
            static_cast<uint64_t>(
                _mm512_reduce_add_epi64(PopcountLanes64Bw(ones)));
        acc = _mm512_setzero_si512();
      }
    }
    if (!abandoned) {
      for (; v < vecs; ++v) {
        acc = _mm512_add_epi64(acc, PopcountLanes64Bw(LoadXor512(code, query, v)));
        if (prune && (v & 1) == 1 &&
            sum + static_cast<uint64_t>(_mm512_reduce_add_epi64(acc)) >=
                static_cast<uint64_t>(threshold)) {
          abandoned = true;
          break;
        }
      }
      sum += static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
      if (!abandoned) {
        for (int w = tail_start; w < words; ++w) {
          sum += Popcount64(query[w] ^ code[w]);
        }
      }
    }
    out[i] = static_cast<int32_t>(sum);
    best = MinInt32(best, out[i]);
  }
  return best;
}

bool Avx512VpopcntSupported() {
  return __builtin_cpu_supports("avx512vpopcntdq");
}

int32_t BatchAvx512Impl(const uint64_t* query, const uint64_t* codes, int n,
                        int words, int32_t threshold, int32_t* out) {
  static const bool vpopcnt = Avx512VpopcntSupported();
  if (vpopcnt) {
    if (words == 1) return BatchWords1Vp(query[0], codes, n, out);
    if (words == 2) return BatchWords2Vp(query, codes, n, out);
    return BatchGenericVp(query, codes, n, words, threshold, out);
  }
  // BW-only hosts: the 512-bit LUT path only beats AVX2 once a code
  // spans whole 512-bit chunks; narrower codes stay on the AVX2 layouts
  // (any AVX-512 CPU runs them).
  if (words >= 8) {
    return BatchGenericBw(query, codes, n, words, threshold, out);
  }
  return BatchAvx2Impl(query, codes, n, words, threshold, out);
}

/// Distances of the sixteen 64-bit codes at `p`, as int32 lanes in code
/// order.
UHSCM_AVX512VP_FN inline __m512i Distances16Words1Vp(__m512i q,
                                                     const uint64_t* p) {
  const __m512i a =
      _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(p), q));
  const __m512i b =
      _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(p + 8), q));
  // The low dword of every 64-bit lane, a's lanes then b's.
  return _mm512_permutex2var_epi32(
      a,
      _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28,
                        30),
      b);
}

/// Distances of the sixteen 128-bit codes at `p`, as int32 lanes in code
/// order.
UHSCM_AVX512VP_FN inline __m512i Distances16Words2Vp(__m512i q,
                                                     const uint64_t* p) {
  __m512i s[4];
  for (int v = 0; v < 4; ++v) {
    s[v] = _mm512_popcnt_epi64(
        _mm512_xor_si512(_mm512_loadu_si512(p + 8 * v), q));
  }
  // s[v] holds codes 4v..4v+3; code c's low/high word counts sit in
  // dwords 4c and 4c+2. Gather the low halves of two vectors' codes into
  // the lower 256 bits and the high halves into the upper 256 bits.
  const __m512i halves = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 2, 6,
                                           10, 14, 18, 22, 26, 30);
  const __m512i h07 = _mm512_permutex2var_epi32(s[0], halves, s[1]);
  const __m512i h8f = _mm512_permutex2var_epi32(s[2], halves, s[3]);
  const __m512i lo = _mm512_shuffle_i64x2(h07, h8f, _MM_SHUFFLE(1, 0, 1, 0));
  const __m512i hi = _mm512_shuffle_i64x2(h07, h8f, _MM_SHUFFLE(3, 2, 3, 2));
  return _mm512_add_epi32(lo, hi);
}

/// Emitting kernel for 64- and 128-bit codes: sixteen distances per step
/// are compared against their bounds in registers, and a step with hits
/// compress-stores exactly those (index, distance) pairs.
template <int kWords>
UHSCM_AVX512VP_FN int EmitNarrowVp(const uint64_t* query,
                                   const uint64_t* codes, int n,
                                   int32_t row_bound,
                                   const int32_t* code_bounds,
                                   int32_t* out_index, int32_t* out_distance) {
  __m512i q;
  if constexpr (kWords == 1) {
    q = _mm512_set1_epi64(static_cast<long long>(query[0]));
  } else {
    q = _mm512_broadcast_i32x4(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query)));
  }
  const __m512i row = _mm512_set1_epi32(row_bound);
  const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  int count = 0;
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint64_t* p = codes + kWords * static_cast<size_t>(i);
    __m512i d;
    if constexpr (kWords == 1) {
      d = Distances16Words1Vp(q, p);
    } else {
      d = Distances16Words2Vp(q, p);
    }
    const __m512i bound =
        code_bounds == nullptr
            ? row
            : _mm512_max_epi32(row, _mm512_loadu_si512(code_bounds + i));
    const __mmask16 hits = _mm512_cmplt_epi32_mask(d, bound);
    if (hits == 0) continue;
    _mm512_mask_compressstoreu_epi32(
        out_index + count, hits,
        _mm512_add_epi32(lanes, _mm512_set1_epi32(i)));
    _mm512_mask_compressstoreu_epi32(out_distance + count, hits, d);
    count += Popcount64(hits);
  }
  return EmitEach(query, codes, i, n, kWords, row_bound, code_bounds,
                  out_index, out_distance, count);
}

}  // namespace

int32_t BatchDistancesMinAvx512(const uint64_t* query, const uint64_t* codes,
                                int n, int words, int32_t threshold,
                                int32_t* out) {
  return BatchAvx512Impl(query, codes, n, words, threshold, out);
}

int BatchEmitAvx512(const uint64_t* query, const uint64_t* codes, int n,
                    int words, int32_t row_bound, const int32_t* code_bounds,
                    int32_t* out_index, int32_t* out_distance) {
  // Wider codes take the plain kernel's routing: VPOPCNTDQ, Harley–Seal
  // BW or AVX2 bodies by width and host.
  if (words > 2) {
    return EmitThroughBatch<&BatchDistancesMinAvx512>(query, codes, n, words,
                                                   row_bound, code_bounds,
                                                   out_index, out_distance);
  }
  // BW-only hosts emit narrow codes through the AVX2 layouts, as the
  // plain kernels do.
  static const bool vpopcnt = Avx512VpopcntSupported();
  if (!vpopcnt) {
    return BatchEmitAvx2(query, codes, n, words, row_bound, code_bounds,
                         out_index, out_distance);
  }
  if (words == 1) {
    return EmitNarrowVp<1>(query, codes, n, row_bound, code_bounds, out_index,
                           out_distance);
  }
  return EmitNarrowVp<2>(query, codes, n, row_bound, code_bounds, out_index,
                         out_distance);
}

#endif  // UHSCM_HAVE_AVX512_KERNELS

bool Avx2Available() {
#if defined(UHSCM_HAVE_AVX2_KERNELS)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool Avx512Available() {
#if defined(UHSCM_HAVE_AVX512_KERNELS)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

bool Avx512VpopcntAvailable() {
#if defined(UHSCM_HAVE_AVX512_KERNELS)
  return Avx512Available() && __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

bool ParseKernelTier(const char* name, KernelTier* tier) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *tier = KernelTier::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *tier = KernelTier::kAvx2;
    return true;
  }
  if (std::strcmp(name, "avx512") == 0) {
    *tier = KernelTier::kAvx512;
    return true;
  }
  return false;
}

bool KernelTierAvailable(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return true;
    case KernelTier::kAvx2:
      return Avx2Available();
    case KernelTier::kAvx512:
      return Avx512Available();
  }
  return false;
}

namespace {

KernelTier BestAvailableTier() {
  if (Avx512Available()) return KernelTier::kAvx512;
  if (Avx2Available()) return KernelTier::kAvx2;
  return KernelTier::kScalar;
}

/// Reads the UHSCM_FORCE_TIER override (see ActiveKernelTier in the
/// header). Returns true and sets *tier when it names a valid tier.
bool ForcedTier(KernelTier* tier) {
  const char* v = std::getenv("UHSCM_FORCE_TIER");
  if (v == nullptr || v[0] == '\0') return false;
  if (ParseKernelTier(v, tier)) return true;
  std::fprintf(stderr,
               "uhscm: UHSCM_FORCE_TIER=%s not recognized "
               "(scalar|avx2|avx512); using automatic dispatch\n",
               v);
  return false;
}

}  // namespace

KernelTier ActiveKernelTier() {
  static const KernelTier tier = [] {
    KernelTier forced;
    if (ForcedTier(&forced)) {
      if (KernelTierAvailable(forced)) return forced;
      const KernelTier fallback = BestAvailableTier();
      std::fprintf(stderr,
                   "uhscm: UHSCM_FORCE_TIER=%s is not runnable on this CPU; "
                   "falling back to %s\n",
                   KernelTierName(forced), KernelTierName(fallback));
      return fallback;
    }
    return BestAvailableTier();
  }();
  return tier;
}

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

BatchDistanceMinFn GetBatchDistanceMinFn(KernelTier tier) {
#if defined(UHSCM_HAVE_AVX512_KERNELS)
  if (tier == KernelTier::kAvx512 && Avx512Available()) {
    return &BatchDistancesMinAvx512;
  }
#endif
#if defined(UHSCM_HAVE_AVX2_KERNELS)
  if (tier != KernelTier::kScalar && Avx2Available()) {
    return &BatchDistancesMinAvx2;
  }
#endif
  (void)tier;
  return &BatchDistancesMinScalar;
}

BatchEmitFn GetBatchEmitFn(KernelTier tier) {
#if defined(UHSCM_HAVE_AVX512_KERNELS)
  if (tier == KernelTier::kAvx512 && Avx512Available()) {
    return &BatchEmitAvx512;
  }
#endif
#if defined(UHSCM_HAVE_AVX2_KERNELS)
  if (tier != KernelTier::kScalar && Avx2Available()) {
    return &BatchEmitAvx2;
  }
#endif
  (void)tier;
  return &BatchEmitScalar;
}

BatchDistanceMinFn GetBatchDistanceMinFn() {
  return GetBatchDistanceMinFn(ActiveKernelTier());
}

BatchEmitFn GetBatchEmitFn() { return GetBatchEmitFn(ActiveKernelTier()); }

}  // namespace uhscm::index
