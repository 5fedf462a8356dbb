#ifndef UHSCM_INDEX_HAMMING_KERNELS_H_
#define UHSCM_INDEX_HAMMING_KERNELS_H_

#include <cstdint>

namespace uhscm::index {

/// \brief Batched Hamming-distance kernels with runtime CPU dispatch.
///
/// The serving and eval hot loops score one packed query against a long
/// contiguous run of packed codes. These kernels amortize that pattern:
/// one call computes `n` distances, letting the implementation vectorize
/// across codes (AVX2 nibble-LUT popcount, AVX-512 VPOPCNTDQ or 512-bit
/// Harley–Seal carry-save accumulation for wide codes) instead of paying
/// per-pair call and loop overhead. The scalar tier is the semantic
/// reference; every other tier must be bit-for-bit identical to it
/// (tests/hamming_kernels_test.cc).
enum class KernelTier {
  kScalar,  ///< portable unrolled __builtin_popcountll loop
  kAvx2,    ///< 256-bit pshufb nibble-LUT popcount, Harley–Seal for wide codes
  kAvx512,  ///< 512-bit VPOPCNTDQ, or Harley–Seal over 512-bit LUT popcounts
            ///< on AVX-512BW-only hosts
};

/// Number of dispatchable tiers (bench sweeps iterate 0..kNumKernelTiers).
inline constexpr int kNumKernelTiers = 3;

/// Distances from one query to `n` contiguous packed codes, plus their
/// minimum.
///
/// `codes` is a row-major run of `n * words` uint64s, `out` receives `n`
/// distances. `threshold` enables early-abandon pruning: every output
/// strictly below `threshold` is the exact Hamming distance; an output at
/// or above `threshold` is only guaranteed to be a lower bound of the true
/// distance that is itself >= threshold (the kernel may stop counting a
/// code once its partial popcount proves it cannot beat the threshold).
/// Pass `kNoThreshold` for fully exact output.
///
/// The return value is the minimum of the `n` reported outputs, computed
/// in registers while the distances are still hot instead of by a second
/// pass over `out`. Because every reported output lower-bounds its true
/// distance (exactly equal below `threshold`), it is an exact lower bound
/// of the true block minimum, and whenever the true block minimum is
/// < `threshold` it equals it exactly (a code that beats the threshold is
/// never abandoned). The emitting kernels' wide-code path uses it to
/// skip a block without re-reading the distance buffer it just wrote.
/// Returns INT32_MAX when n == 0.
using BatchDistanceMinFn = int32_t (*)(const uint64_t* query,
                                       const uint64_t* codes, int n, int words,
                                       int32_t threshold, int32_t* out);

/// Emitting variant for scans and joins that keep only a few candidates
/// per row (BatchTopK, the self-join).
///
/// Scores one query against `n` contiguous packed codes and writes out
/// only the codes whose distance is strictly below their bound
/// `max(row_bound, code_bounds[i])` (`code_bounds` holds `n` entries, or
/// is null when every bound is `row_bound`).
/// Each hit is written as its index into the run (`out_index`) and its
/// exact distance (`out_distance`), in ascending index order; both
/// buffers must hold `n` entries. Returns the number of hits; a run
/// where nothing qualifies writes nothing. A bound of INT32_MAX admits
/// every code; bounds of 0 admit none.
using BatchEmitFn = int (*)(const uint64_t* query, const uint64_t* codes,
                            int n, int words, int32_t row_bound,
                            const int32_t* code_bounds, int32_t* out_index,
                            int32_t* out_distance);

/// Threshold value that disables pruning (every distance exact).
inline constexpr int32_t kNoThreshold = INT32_MAX;

/// Reference scalar kernels (always available, always exact semantics).
int32_t BatchDistancesMinScalar(const uint64_t* query, const uint64_t* codes,
                                int n, int words, int32_t threshold,
                                int32_t* out);
int BatchEmitScalar(const uint64_t* query, const uint64_t* codes, int n,
                    int words, int32_t row_bound, const int32_t* code_bounds,
                    int32_t* out_index, int32_t* out_distance);

/// True when this build carries the AVX2 tier and the CPU supports it.
bool Avx2Available();

/// True when this build carries the AVX-512 tier and the CPU supports
/// AVX-512F/BW/VL (the minimum the 512-bit kernels need). VPOPCNTDQ is
/// detected separately inside the tier: hosts with it use the native
/// 64-bit lane popcount, AVX-512BW-only hosts (Skylake-X era) use a
/// 512-bit nibble-LUT popcount under a Harley–Seal carry-save tree.
bool Avx512Available();

/// True when the AVX-512 tier would use native VPOPCNTDQ (informational,
/// for logs and bench labels).
bool Avx512VpopcntAvailable();

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UHSCM_HAVE_AVX2_KERNELS 1
#define UHSCM_HAVE_AVX512_KERNELS 1
/// AVX2 tier. Precondition: Avx2Available().
int32_t BatchDistancesMinAvx2(const uint64_t* query, const uint64_t* codes,
                              int n, int words, int32_t threshold,
                              int32_t* out);
int BatchEmitAvx2(const uint64_t* query, const uint64_t* codes, int n,
                  int words, int32_t row_bound, const int32_t* code_bounds,
                  int32_t* out_index, int32_t* out_distance);
/// AVX-512 tier. Precondition: Avx512Available().
int32_t BatchDistancesMinAvx512(const uint64_t* query, const uint64_t* codes,
                                int n, int words, int32_t threshold,
                                int32_t* out);
int BatchEmitAvx512(const uint64_t* query, const uint64_t* codes, int n,
                    int words, int32_t row_bound, const int32_t* code_bounds,
                    int32_t* out_index, int32_t* out_distance);
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

/// The dispatched batch kernels for `ActiveKernelTier()`.
BatchDistanceMinFn GetBatchDistanceMinFn();
BatchEmitFn GetBatchEmitFn();

/// Kernels for an explicit tier (benches compare tiers side by side).
/// An unavailable tier falls back to the best available tier below it
/// (avx512 -> avx2 -> scalar).
BatchDistanceMinFn GetBatchDistanceMinFn(KernelTier tier);
BatchEmitFn GetBatchEmitFn(KernelTier tier);

}  // namespace uhscm::index

#endif  // UHSCM_INDEX_HAMMING_KERNELS_H_
