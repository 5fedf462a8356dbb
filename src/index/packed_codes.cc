#include "index/packed_codes.h"

#include <algorithm>
#include <bit>

#include "common/status.h"

namespace uhscm::index {
namespace {

inline int Popcount64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(x);
#else
  return std::popcount(x);
#endif
}

/// The distance loop, inlined into each ISA-specific body below so its
/// popcounts compile to that body's instructions. Four independent
/// accumulators break the popcount dependency chain so the loop
/// saturates the popcnt ports instead of serializing on one sum.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline int DistanceLoop(const uint64_t* a, const uint64_t* b, int words) {
  int d0 = 0, d1 = 0, d2 = 0, d3 = 0;
  int w = 0;
  for (; w + 4 <= words; w += 4) {
    d0 += Popcount64(a[w] ^ b[w]);
    d1 += Popcount64(a[w + 1] ^ b[w + 1]);
    d2 += Popcount64(a[w + 2] ^ b[w + 2]);
    d3 += Popcount64(a[w + 3] ^ b[w + 3]);
  }
  for (; w < words; ++w) {
    d0 += Popcount64(a[w] ^ b[w]);
  }
  return d0 + d1 + d2 + d3;
}

int DistancePortable(const uint64_t* a, const uint64_t* b, int words) {
  return DistanceLoop(a, b, words);
}

using DistanceFn = int (*)(const uint64_t*, const uint64_t*, int);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// The same loop on the popcnt instruction. The library's baseline ISA
/// (x86-64) has no popcnt, so the portable body calls libgcc's
/// bit-twiddling __popcountdi2 for every word.
__attribute__((target("popcnt"))) int DistancePopcnt(const uint64_t* a,
                                                     const uint64_t* b,
                                                     int words) {
  return DistanceLoop(a, b, words);
}

DistanceFn PickDistanceFn() {
  return __builtin_cpu_supports("popcnt") ? &DistancePopcnt
                                          : &DistancePortable;
}
#else
DistanceFn PickDistanceFn() { return &DistancePortable; }
#endif

}  // namespace

int HammingDistance(const uint64_t* a, const uint64_t* b, int words) {
  static const DistanceFn distance = PickDistanceFn();
  return distance(a, b, words);
}

PackedCodes PackedCodes::FromSignMatrix(const linalg::Matrix& codes) {
  PackedCodes packed;
  packed.num_codes_ = codes.rows();
  packed.bits_ = codes.cols();
  packed.words_per_code_ = (codes.cols() + 63) / 64;
  packed.words_.assign(
      static_cast<size_t>(packed.num_codes_) * packed.words_per_code_, 0);
  const int bits = codes.cols();
  for (int i = 0; i < codes.rows(); ++i) {
    const float* row = codes.Row(i);
    uint64_t* dst =
        packed.words_.data() +
        static_cast<size_t>(i) * packed.words_per_code_;
    // Build each word in a register and store it once, instead of a
    // read-modify-write of the output word per bit.
    for (int w = 0; w < packed.words_per_code_; ++w) {
      const int base = w << 6;
      const int end = std::min(base + 64, bits);
      uint64_t word = 0;
      for (int b = base; b < end; ++b) {
        word |= static_cast<uint64_t>(row[b] > 0.0f) << (b - base);
      }
      dst[w] = word;
    }
  }
  return packed;
}

PackedCodes PackedCodes::FromRawWords(int num_codes, int bits,
                                      std::vector<uint64_t> words) {
  PackedCodes packed;
  packed.num_codes_ = num_codes;
  packed.bits_ = bits;
  packed.words_per_code_ = static_cast<int>((int64_t{bits} + 63) / 64);
  UHSCM_CHECK(words.size() == static_cast<size_t>(num_codes) *
                                  static_cast<size_t>(packed.words_per_code_),
              "FromRawWords: word buffer size mismatch");
  packed.words_ = std::move(words);
  return packed;
}

void PackedCodes::Append(const PackedCodes& other) {
  if (other.num_codes_ == 0) return;
  if (num_codes_ == 0 && bits_ == 0) {
    *this = other;
    return;
  }
  UHSCM_CHECK(other.bits_ == bits_,
              "PackedCodes::Append: bit width mismatch");
  words_.insert(words_.end(), other.words_.begin(), other.words_.end());
  num_codes_ += other.num_codes_;
}

int PackedCodes::Distance(int i, int j) const {
  UHSCM_CHECK(i >= 0 && i < num_codes_ && j >= 0 && j < num_codes_,
              "PackedCodes::Distance: index out of range");
  return HammingDistance(code(i), code(j), words_per_code_);
}

int PackedCodes::DistanceTo(int i, const uint64_t* other) const {
  UHSCM_CHECK(i >= 0 && i < num_codes_,
              "PackedCodes::DistanceTo: index out of range");
  return HammingDistance(code(i), other, words_per_code_);
}

std::vector<float> PackedCodes::Unpack(int i) const {
  UHSCM_CHECK(i >= 0 && i < num_codes_,
              "PackedCodes::Unpack: index out of range");
  std::vector<float> out(static_cast<size_t>(bits_));
  const uint64_t* src = code(i);
  for (int b = 0; b < bits_; ++b) {
    out[static_cast<size_t>(b)] =
        (src[b >> 6] >> (b & 63)) & 1ULL ? 1.0f : -1.0f;
  }
  return out;
}

}  // namespace uhscm::index
