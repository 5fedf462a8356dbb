#ifndef UHSCM_INDEX_HAMMING_KERNELS_H_
#define UHSCM_INDEX_HAMMING_KERNELS_H_

#include <cstdint>

namespace uhscm::index {

/// \brief The emitting Hamming scan kernel, with runtime CPU dispatch.
///
/// Every scan the library runs (BatchTopK, the self-join) scores packed
/// rows against a long contiguous run of packed codes and keeps only the
/// few codes that beat a bound. One BatchEmitFn call does that for a
/// whole run and up to four rows at once, letting the implementation
/// vectorize across codes (AVX2 nibble-LUT popcount or AVX-512
/// VPOPCNTDQ), load each step of codes once for every row, and compare
/// in registers instead of paying per-pair call and loop overhead. The
/// scalar tier is the semantic reference; every other tier must be
/// bit-for-bit identical to it (tests/hamming_kernels_test.cc).
enum class KernelTier {
  kScalar,  ///< unrolled __builtin_popcountll loop, on the popcnt
            ///< instruction where the CPU has it
  kAvx2,    ///< 256-bit pshufb nibble-LUT popcount
  kAvx512,  ///< 512-bit VPOPCNTDQ for 1, 2 and 8+ word codes, the AVX2
            ///< kernels for 3-7 words and on hosts without VPOPCNTDQ
};

/// Most queries one emitting call scores.
inline constexpr int kMaxEmitQueries = 4;

/// Scores each of `num_queries` queries (1 to kMaxEmitQueries; the same
/// pointer may appear twice) against `n` contiguous packed codes, and
/// writes out, per query q, only the codes whose distance to it is
/// strictly below their bound `max(row_bounds[q], code_bounds[i])`
/// (`code_bounds` holds `n` entries shared by every query, or is null
/// when code i's bound is `row_bounds[q]` alone).
/// Query q's hits start at `out_index + q * n` and `out_distance + q * n`
/// (both buffers hold `num_queries * n` entries): each is its index into
/// the run and its exact distance, in ascending index order, and
/// `counts[q]` is their number. A query with no hit writes nothing but
/// its count. A bound of INT32_MAX admits every code; bounds of 0 admit
/// none. A call with one query is the single-row scan the self-joins
/// run. Codes of three or more words are scored one query at a time, in
/// blocks of 128 with a fused block minimum (EmitThroughBatch in
/// hamming_kernels.cc).
using BatchEmitFn = void (*)(const uint64_t* const* queries, int num_queries,
                             const uint64_t* codes, int n, int words,
                             const int32_t* row_bounds,
                             const int32_t* code_bounds, int32_t* out_index,
                             int32_t* out_distance, int* counts);

/// Bound that admits every code (BatchTopK's bound until a heap fills).
inline constexpr int32_t kNoThreshold = INT32_MAX;

/// Reference scalar kernel (always available). Runs a body compiled for
/// the popcnt instruction on CPUs that have it, chosen once at first
/// call, and a portable body elsewhere; both give identical results.
void BatchEmitScalar(const uint64_t* const* queries, int num_queries,
                     const uint64_t* codes, int n, int words,
                     const int32_t* row_bounds, const int32_t* code_bounds,
                     int32_t* out_index, int32_t* out_distance, int* counts);

/// True when this build carries the AVX2 tier and the CPU supports it.
bool Avx2Available();

/// True when this build carries the AVX-512 tier and the CPU supports
/// AVX-512F/BW/VL. VPOPCNTDQ is detected separately inside the tier:
/// hosts with it use the native 64-bit lane popcount, hosts without it
/// (Skylake-X era) run the AVX2 Hamming kernels at this tier (the packed
/// GEMM still uses its 512-bit micro-kernel there).
bool Avx512Available();

/// True when the AVX-512 tier would use native VPOPCNTDQ (informational,
/// for logs and bench labels).
bool Avx512VpopcntAvailable();

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UHSCM_HAVE_AVX2_KERNELS 1
#define UHSCM_HAVE_AVX512_KERNELS 1
/// AVX2 tier. Precondition: Avx2Available().
void BatchEmitAvx2(const uint64_t* const* queries, int num_queries,
                   const uint64_t* codes, int n, int words,
                   const int32_t* row_bounds, const int32_t* code_bounds,
                   int32_t* out_index, int32_t* out_distance, int* counts);
/// AVX-512 tier. Precondition: Avx512Available().
void BatchEmitAvx512(const uint64_t* const* queries, int num_queries,
                     const uint64_t* codes, int n, int words,
                     const int32_t* row_bounds, const int32_t* code_bounds,
                     int32_t* out_index, int32_t* out_distance, int* counts);
#endif

/// The tier the dispatcher selected for this process: the best tier the
/// CPU supports unless the UHSCM_FORCE_TIER=scalar|avx2|avx512
/// environment variable overrides it, decided once at first use. A
/// forced tier the CPU cannot run falls back to the best available tier
/// below it, with a one-time stderr notice; an unparseable value is
/// ignored the same way. CI uses the override to exercise every compiled
/// tier on capable machines.
KernelTier ActiveKernelTier();

/// Parses a tier name ("scalar", "avx2", "avx512") as used by
/// UHSCM_FORCE_TIER. Returns false (and leaves *tier untouched) for any
/// other string.
bool ParseKernelTier(const char* name, KernelTier* tier);

/// Human-readable tier name ("scalar", "avx2", "avx512") for logs and
/// benches.
const char* KernelTierName(KernelTier tier);

/// True when `tier` is compiled in and runnable on this CPU.
bool KernelTierAvailable(KernelTier tier);

/// The dispatched kernel for `ActiveKernelTier()`.
BatchEmitFn GetBatchEmitFn();

/// The kernel for an explicit tier (benches compare tiers side by side).
/// An unavailable tier falls back to the best available tier below it
/// (avx512 -> avx2 -> scalar).
BatchEmitFn GetBatchEmitFn(KernelTier tier);

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_HAMMING_KERNELS_H_
