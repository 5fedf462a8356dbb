#include "index/hamming_kernels.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

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

/// Hamming distance of one pair: four accumulators keep the popcnt ports
/// busy (same loop shape as HammingDistance).
inline int ScalarPair(const uint64_t* a, const uint64_t* b, int words) {
  int d0 = 0, d1 = 0, d2 = 0, d3 = 0;
  int w = 0;
  for (; w + 4 <= words; w += 4) {
    d0 += Popcount64(a[w] ^ b[w]);
    d1 += Popcount64(a[w + 1] ^ b[w + 1]);
    d2 += Popcount64(a[w + 2] ^ b[w + 2]);
    d3 += Popcount64(a[w + 3] ^ b[w + 3]);
  }
  for (; w < words; ++w) d0 += Popcount64(a[w] ^ b[w]);
  return d0 + d1 + d2 + d3;
}

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

/// Exact distances from one query to `n` contiguous codes of three or
/// more words, written to `out`: the body each tier's emitting kernel
/// runs for wide codes (EmitThroughBatch below). Returns their minimum,
/// computed in registers while the distances are still hot instead of by
/// a second pass over `out` (INT32_MAX when n == 0).
using DistanceMinFn = int32_t (*)(const uint64_t* query, const uint64_t* codes,
                                  int n, int words, int32_t* out);

/// Codes per block of EmitThroughBatch.
constexpr int kEmitBlock = 128;

/// Emitting kernel built on the tier's distance-min body `kBatchMin`:
/// scores the run in blocks of kEmitBlock codes into an L1-resident
/// buffer and keeps the distances that beat their own bound. A block whose
/// fused minimum reaches its loosest bound has no hit, so its buffer is
/// never read. Every tier's path for codes of three or more words.
template <DistanceMinFn kBatchMin>
int EmitThroughBatch(const uint64_t* query, const uint64_t* codes, int n,
                     int words, int32_t row_bound, const int32_t* code_bounds,
                     int32_t* out_index, int32_t* out_distance) {
  int32_t dist[kEmitBlock];
  int count = 0;
  for (int lo = 0; lo < n; lo += kEmitBlock) {
    const int m = n - lo < kEmitBlock ? n - lo : kEmitBlock;
    int32_t loosest = row_bound;
    for (int j = 0; code_bounds != nullptr && j < m; ++j) {
      loosest = MaxInt32(loosest, code_bounds[lo + j]);
    }
    if (kBatchMin(query, codes + static_cast<size_t>(lo) * words, m, words,
                  dist) >= loosest) {
      continue;
    }
    for (int j = 0; j < m; ++j) {
      EmitIfBelow(lo + j, dist[j], EmitBound(row_bound, code_bounds, lo + j),
                  out_index, out_distance, &count);
    }
  }
  return count;
}

/// Codes of three or more words under the multi-query contract: each
/// query runs EmitThroughBatch alone into its own slice of the output.
template <DistanceMinFn kBatchMin>
void EmitWideEachQuery(const uint64_t* const* queries, int num_queries,
                       const uint64_t* codes, int n, int words,
                       const int32_t* row_bounds, const int32_t* code_bounds,
                       int32_t* out_index, int32_t* out_distance,
                       int* counts) {
  for (int q = 0; q < num_queries; ++q) {
    const size_t at = static_cast<size_t>(q) * static_cast<size_t>(n);
    counts[q] = EmitThroughBatch<kBatchMin>(
        queries[q], codes, n, words, row_bounds[q], code_bounds,
        out_index + at, out_distance + at);
  }
}

/// Calls `kernel` with `num_queries` (1 to kMaxEmitQueries) as a
/// std::integral_constant, so the vector kernels can keep each query's
/// registers in fixed-size arrays.
template <typename Kernel>
inline void WithQueryCount(int num_queries, const Kernel& kernel) {
  switch (num_queries) {
    case 1:
      return kernel(std::integral_constant<int, 1>());
    case 2:
      return kernel(std::integral_constant<int, 2>());
    case 3:
      return kernel(std::integral_constant<int, 3>());
    default:
      return kernel(std::integral_constant<int, kMaxEmitQueries>());
  }
}

/// Scalar distance-min body: the reference the vector bodies match.
inline int32_t BatchMinBody(const uint64_t* query, const uint64_t* codes,
                            int n, int words, int32_t* out) {
  int32_t best = INT32_MAX;
  for (int i = 0; i < n; ++i) {
    out[i] = ScalarPair(query, codes + static_cast<size_t>(i) * words, words);
    best = MinInt32(best, out[i]);
  }
  return best;
}

/// The scalar tier's emitting body over the distance-min body
/// `kBatchMin`: the reference, one query after another. The scalar tier
/// is bound by its popcounts, not by loading the codes, so sharing each
/// load among the queries would buy it nothing.
template <DistanceMinFn kBatchMin>
inline void EmitScalarBody(const uint64_t* const* queries, int num_queries,
                           const uint64_t* codes, int n, int words,
                           const int32_t* row_bounds,
                           const int32_t* code_bounds, int32_t* out_index,
                           int32_t* out_distance, int* counts) {
  if (words > 2) {
    EmitWideEachQuery<kBatchMin>(queries, num_queries, codes, n, words,
                                 row_bounds, code_bounds, out_index,
                                 out_distance, counts);
    return;
  }
  for (int q = 0; q < num_queries; ++q) {
    const size_t at = static_cast<size_t>(q) * static_cast<size_t>(n);
    counts[q] = EmitEach(queries[q], codes, 0, n, words, row_bounds[q],
                         code_bounds, out_index + at, out_distance + at, 0);
  }
}

int32_t BatchMinScalar(const uint64_t* query, const uint64_t* codes, int n,
                       int words, int32_t* out) {
  return BatchMinBody(query, codes, n, words, out);
}

void BatchEmitPortable(const uint64_t* const* queries, int num_queries,
                       const uint64_t* codes, int n, int words,
                       const int32_t* row_bounds, const int32_t* code_bounds,
                       int32_t* out_index, int32_t* out_distance,
                       int* counts) {
  EmitScalarBody<&BatchMinScalar>(queries, num_queries, codes, n, words,
                                  row_bounds, code_bounds, out_index,
                                  out_distance, counts);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// The scalar bodies on the popcnt instruction. The library's baseline ISA
/// (x86-64) has no popcnt, so the portable bodies count bits with a
/// bit-twiddling sequence per word.
__attribute__((target("popcnt"))) int32_t BatchMinPopcnt(
    const uint64_t* query, const uint64_t* codes, int n, int words,
    int32_t* out) {
  return BatchMinBody(query, codes, n, words, out);
}

__attribute__((target("popcnt"))) void BatchEmitPopcnt(
    const uint64_t* const* queries, int num_queries, const uint64_t* codes,
    int n, int words, const int32_t* row_bounds, const int32_t* code_bounds,
    int32_t* out_index, int32_t* out_distance, int* counts) {
  EmitScalarBody<&BatchMinPopcnt>(queries, num_queries, codes, n, words,
                                  row_bounds, code_bounds, out_index,
                                  out_distance, counts);
}

BatchEmitFn PickScalarBody() {
  return __builtin_cpu_supports("popcnt") ? &BatchEmitPopcnt
                                          : &BatchEmitPortable;
}
#else
BatchEmitFn PickScalarBody() { return &BatchEmitPortable; }
#endif

}  // namespace

void BatchEmitScalar(const uint64_t* const* queries, int num_queries,
                     const uint64_t* codes, int n, int words,
                     const int32_t* row_bounds, const int32_t* code_bounds,
                     int32_t* out_index, int32_t* out_distance, int* counts) {
  static const BatchEmitFn body = PickScalarBody();
  body(queries, num_queries, codes, n, words, row_bounds, code_bounds,
       out_index, out_distance, counts);
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

/// XOR of the v-th 256-bit chunk (4 words) of a code and query row.
UHSCM_AVX2_FN inline __m256i LoadXor(const uint64_t* code,
                                     const uint64_t* query, int v) {
  const __m256i c = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(code + 4 * static_cast<size_t>(v)));
  const __m256i q = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(query + 4 * static_cast<size_t>(v)));
  return _mm256_xor_si256(c, q);
}

/// AVX2 distance-min body: lane popcounts of each code's 256-bit chunks
/// (4 words) accumulate in one vector; the tail (words % 4) is scalar.
UHSCM_AVX2_FN int32_t BatchMinAvx2(const uint64_t* query,
                                   const uint64_t* codes, int n, int words,
                                   int32_t* out) {
  const int vecs = words / 4;
  int32_t best = INT32_MAX;
  for (int i = 0; i < n; ++i) {
    const uint64_t* code = codes + static_cast<size_t>(i) * words;
    __m256i acc = _mm256_setzero_si256();
    for (int v = 0; v < vecs; ++v) {
      acc = _mm256_add_epi64(acc, PopcountLanes64(LoadXor(code, query, v)));
    }
    const int32_t d = static_cast<int32_t>(HorizontalSum64(acc)) +
                      ScalarPair(query + 4 * vecs, code + 4 * vecs,
                                 words - 4 * vecs);
    out[i] = d;
    best = MinInt32(best, d);
  }
  return best;
}

/// Distances from the query vector `q` to the eight codes loaded in `c`
/// (two vectors of 64-bit codes, or four of 128-bit codes), as int32
/// lanes in code order.
template <int kWords>
UHSCM_AVX2_FN inline __m256i Distances8(__m256i q, const __m256i* c) {
  if constexpr (kWords == 1) {
    const __m256i a = PopcountLanes64(_mm256_xor_si256(c[0], q));
    const __m256i b = PopcountLanes64(_mm256_xor_si256(c[1], q));
    // Dwords [d0 d4 d1 d5 d2 d6 d3 d7] -> code order.
    return _mm256_permutevar8x32_epi32(
        _mm256_or_si256(a, _mm256_slli_epi64(b, 32)),
        _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  } else {
    __m256i s[4];
    for (int v = 0; v < 4; ++v) {
      s[v] = PopcountLanes64(_mm256_xor_si256(c[v], q));
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
}

/// Emitting kernel for 64- and 128-bit codes and kQueries queries: each
/// step loads eight codes once, and every query compares its eight
/// distances against its bounds in registers; only a query with a hit
/// spills its distances, and its hits are walked by mask bit.
template <int kWords, int kQueries>
UHSCM_AVX2_FN void EmitNarrowAvx2(const uint64_t* const* queries,
                                  const uint64_t* codes, int n,
                                  const int32_t* row_bounds,
                                  const int32_t* code_bounds,
                                  int32_t* out_index, int32_t* out_distance,
                                  int* counts) {
  __m256i q[kQueries];
  __m256i row[kQueries];
  int32_t* index[kQueries];
  int32_t* distance[kQueries];
  int count[kQueries];
  for (int j = 0; j < kQueries; ++j) {
    const uint64_t* query = queries[j];
    if constexpr (kWords == 1) {
      q[j] = _mm256_set1_epi64x(static_cast<long long>(query[0]));
    } else {
      q[j] = _mm256_setr_epi64x(
          static_cast<long long>(query[0]), static_cast<long long>(query[1]),
          static_cast<long long>(query[0]), static_cast<long long>(query[1]));
    }
    row[j] = _mm256_set1_epi32(row_bounds[j]);
    index[j] = out_index + static_cast<size_t>(j) * static_cast<size_t>(n);
    distance[j] =
        out_distance + static_cast<size_t>(j) * static_cast<size_t>(n);
    count[j] = 0;
  }
  alignas(32) int32_t spill[8];
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t* p = codes + kWords * static_cast<size_t>(i);
    __m256i c[2 * kWords];
    for (int v = 0; v < 2 * kWords; ++v) {
      c[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4 * v));
    }
    __m256i code_bound = _mm256_setzero_si256();
    if (code_bounds != nullptr) {
      code_bound = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(code_bounds + i));
    }
    __m256i d[kQueries];
    unsigned hits[kQueries];
    unsigned any = 0;
    for (int j = 0; j < kQueries; ++j) {
      d[j] = Distances8<kWords>(q[j], c);
      const __m256i bound = code_bounds == nullptr
                                ? row[j]
                                : _mm256_max_epi32(row[j], code_bound);
      hits[j] = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpgt_epi32(bound, d[j]))));
      any |= hits[j];
    }
    if (any == 0) continue;
    for (int j = 0; j < kQueries; ++j) {
      unsigned h = hits[j];
      if (h == 0) continue;
      _mm256_store_si256(reinterpret_cast<__m256i*>(spill), d[j]);
      do {
        const int lane = __builtin_ctz(h);
        index[j][count[j]] = i + lane;
        distance[j][count[j]] = spill[lane];
        ++count[j];
        h &= h - 1;
      } while (h != 0);
    }
  }
  for (int j = 0; j < kQueries; ++j) {
    counts[j] = EmitEach(queries[j], codes, i, n, kWords, row_bounds[j],
                         code_bounds, index[j], distance[j], count[j]);
  }
}

}  // namespace

void BatchEmitAvx2(const uint64_t* const* queries, int num_queries,
                   const uint64_t* codes, int n, int words,
                   const int32_t* row_bounds, const int32_t* code_bounds,
                   int32_t* out_index, int32_t* out_distance, int* counts) {
  if (words == 1) {
    WithQueryCount(num_queries, [&](auto q) {
      EmitNarrowAvx2<1, q>(queries, codes, n, row_bounds, code_bounds,
                           out_index, out_distance, counts);
    });
  } else if (words == 2) {
    WithQueryCount(num_queries, [&](auto q) {
      EmitNarrowAvx2<2, q>(queries, codes, n, row_bounds, code_bounds,
                           out_index, out_distance, counts);
    });
  } else {
    EmitWideEachQuery<&BatchMinAvx2>(queries, num_queries, codes, n, words,
                                     row_bounds, code_bounds, out_index,
                                     out_distance, counts);
  }
}

#endif  // UHSCM_HAVE_AVX2_KERNELS

#if defined(UHSCM_HAVE_AVX512_KERNELS)

#define UHSCM_AVX512VP_FN \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vpopcntdq")))

namespace {

// GCC 12's bodies of _mm512_reduce_add_epi64, _mm512_extracti64x4_epi64,
// _mm512_broadcast_i32x4, _mm512_shuffle_i64x2 and _mm512_max_epi32 start
// from an undefined vector and trip -Wmaybe-uninitialized once inlined.
// The zero-masked forms below take an all-ones mask, so they compute the
// same values and compile to the same unmasked instructions.

/// Sum of the eight 64-bit lanes of v.
UHSCM_AVX512VP_FN inline uint64_t ReduceAdd512(__m512i v) {
  const __m256i quad =
      _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xF, v, 1),
                       _mm512_maskz_extracti64x4_epi64(0xF, v, 0));
  const __m128i pair = _mm_add_epi64(_mm256_extracti128_si256(quad, 1),
                                     _mm256_castsi256_si128(quad));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(pair)) +
         static_cast<uint64_t>(_mm_extract_epi64(pair, 1));
}

/// The 128-bit value x in all four 128-bit lanes.
UHSCM_AVX512VP_FN inline __m512i Broadcast128(__m128i x) {
  return _mm512_maskz_broadcast_i32x4(0xFFFF, x);
}

/// XOR of the v-th 512-bit chunk (8 words) of a code and query row.
UHSCM_AVX512VP_FN inline __m512i LoadXor512(const uint64_t* code,
                                            const uint64_t* query, int v) {
  const __m512i c = _mm512_loadu_si512(code + 8 * static_cast<size_t>(v));
  const __m512i q = _mm512_loadu_si512(query + 8 * static_cast<size_t>(v));
  return _mm512_xor_si512(c, q);
}

/// VPOPCNTDQ distance-min body for codes of 8 words or more: lane
/// popcounts of each code's whole 512-bit chunks (8 words) accumulate in
/// one vector; the tail (words % 8) is a plain scalar loop (ScalarPair
/// inlined here ran 1024-bit codes about 20% slower).
UHSCM_AVX512VP_FN int32_t BatchMinAvx512(const uint64_t* query,
                                         const uint64_t* codes, int n,
                                         int words, int32_t* out) {
  const int vecs = words / 8;
  int32_t best = INT32_MAX;
  for (int i = 0; i < n; ++i) {
    const uint64_t* code = codes + static_cast<size_t>(i) * words;
    __m512i acc = _mm512_setzero_si512();
    for (int v = 0; v < vecs; ++v) {
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(LoadXor512(code, query, v)));
    }
    int32_t d = static_cast<int32_t>(ReduceAdd512(acc));
    for (int w = 8 * vecs; w < words; ++w) d += Popcount64(query[w] ^ code[w]);
    out[i] = d;
    best = MinInt32(best, d);
  }
  return best;
}

/// Distances from the query vector `q` to the sixteen codes loaded in
/// `c` (two vectors of 64-bit codes, or four of 128-bit codes), as int32
/// lanes in code order.
template <int kWords>
UHSCM_AVX512VP_FN inline __m512i Distances16Vp(__m512i q, const __m512i* c) {
  if constexpr (kWords == 1) {
    const __m512i a = _mm512_popcnt_epi64(_mm512_xor_si512(c[0], q));
    const __m512i b = _mm512_popcnt_epi64(_mm512_xor_si512(c[1], q));
    // The low dword of every 64-bit lane, a's lanes then b's.
    return _mm512_permutex2var_epi32(
        a,
        _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26,
                          28, 30),
        b);
  } else {
    __m512i s[4];
    for (int v = 0; v < 4; ++v) {
      s[v] = _mm512_popcnt_epi64(_mm512_xor_si512(c[v], q));
    }
    // s[v] holds codes 4v..4v+3; code c's low/high word counts sit in
    // dwords 4c and 4c+2. Gather the low halves of two vectors' codes into
    // the lower 256 bits and the high halves into the upper 256 bits.
    const __m512i halves = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 2,
                                             6, 10, 14, 18, 22, 26, 30);
    const __m512i h07 = _mm512_permutex2var_epi32(s[0], halves, s[1]);
    const __m512i h8f = _mm512_permutex2var_epi32(s[2], halves, s[3]);
    const __m512i lo =
        _mm512_maskz_shuffle_i64x2(0xFF, h07, h8f, _MM_SHUFFLE(1, 0, 1, 0));
    const __m512i hi =
        _mm512_maskz_shuffle_i64x2(0xFF, h07, h8f, _MM_SHUFFLE(3, 2, 3, 2));
    return _mm512_add_epi32(lo, hi);
  }
}

/// Emitting kernel for 64- and 128-bit codes and kQueries queries: each
/// step loads sixteen codes once, every query compares its sixteen
/// distances against its bounds in registers, and a query with hits
/// compress-stores exactly those (index, distance) pairs.
template <int kWords, int kQueries>
UHSCM_AVX512VP_FN void EmitNarrowVp(const uint64_t* const* queries,
                                    const uint64_t* codes, int n,
                                    const int32_t* row_bounds,
                                    const int32_t* code_bounds,
                                    int32_t* out_index, int32_t* out_distance,
                                    int* counts) {
  __m512i q[kQueries];
  __m512i row[kQueries];
  int32_t* index[kQueries];
  int32_t* distance[kQueries];
  int count[kQueries];
  for (int j = 0; j < kQueries; ++j) {
    if constexpr (kWords == 1) {
      q[j] = _mm512_set1_epi64(static_cast<long long>(queries[j][0]));
    } else {
      q[j] = Broadcast128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(queries[j])));
    }
    row[j] = _mm512_set1_epi32(row_bounds[j]);
    index[j] = out_index + static_cast<size_t>(j) * static_cast<size_t>(n);
    distance[j] =
        out_distance + static_cast<size_t>(j) * static_cast<size_t>(n);
    count[j] = 0;
  }
  const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint64_t* p = codes + kWords * static_cast<size_t>(i);
    __m512i c[2 * kWords];
    for (int v = 0; v < 2 * kWords; ++v) {
      c[v] = _mm512_loadu_si512(p + 8 * v);
    }
    __m512i code_bound = _mm512_setzero_si512();
    if (code_bounds != nullptr) code_bound = _mm512_loadu_si512(code_bounds + i);
    __m512i d[kQueries];
    __mmask16 hits[kQueries];
    __mmask16 any = 0;
    for (int j = 0; j < kQueries; ++j) {
      d[j] = Distances16Vp<kWords>(q[j], c);
      const __m512i bound =
          code_bounds == nullptr
              ? row[j]
              : _mm512_maskz_max_epi32(0xFFFF, row[j], code_bound);
      hits[j] = _mm512_cmplt_epi32_mask(d[j], bound);
      any |= hits[j];
    }
    if (any == 0) continue;
    const __m512i ids = _mm512_add_epi32(lanes, _mm512_set1_epi32(i));
    for (int j = 0; j < kQueries; ++j) {
      if (hits[j] == 0) continue;
      _mm512_mask_compressstoreu_epi32(index[j] + count[j], hits[j], ids);
      _mm512_mask_compressstoreu_epi32(distance[j] + count[j], hits[j], d[j]);
      count[j] += Popcount64(hits[j]);
    }
  }
  for (int j = 0; j < kQueries; ++j) {
    counts[j] = EmitEach(queries[j], codes, i, n, kWords, row_bounds[j],
                         code_bounds, index[j], distance[j], count[j]);
  }
}

}  // namespace

void BatchEmitAvx512(const uint64_t* const* queries, int num_queries,
                     const uint64_t* codes, int n, int words,
                     const int32_t* row_bounds, const int32_t* code_bounds,
                     int32_t* out_index, int32_t* out_distance, int* counts) {
  // Hosts without VPOPCNTDQ, and codes of 3 to 7 words (less than one
  // whole 512-bit chunk), run the AVX2 kernels.
  static const bool vpopcnt = Avx512VpopcntAvailable();
  if (!vpopcnt || (words > 2 && words < 8)) {
    BatchEmitAvx2(queries, num_queries, codes, n, words, row_bounds,
                  code_bounds, out_index, out_distance, counts);
  } else if (words == 1) {
    WithQueryCount(num_queries, [&](auto q) {
      EmitNarrowVp<1, q>(queries, codes, n, row_bounds, code_bounds,
                         out_index, out_distance, counts);
    });
  } else if (words == 2) {
    WithQueryCount(num_queries, [&](auto q) {
      EmitNarrowVp<2, q>(queries, codes, n, row_bounds, code_bounds,
                         out_index, out_distance, counts);
    });
  } else {
    EmitWideEachQuery<&BatchMinAvx512>(queries, num_queries, codes, n, words,
                                       row_bounds, code_bounds, out_index,
                                       out_distance, counts);
  }
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

BatchEmitFn GetBatchEmitFn() { return GetBatchEmitFn(ActiveKernelTier()); }

}  // namespace uhscm::index
