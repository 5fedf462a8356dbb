#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace uhscm::ledger {

namespace {

int WordsFor(int bits) { return (bits + 63) / 64; }

/// Clears the bits past `bits` in the last word, the PackedCodes layout.
void MaskTail(uint64_t* words, int bits) {
  if (bits % 64 != 0) words[WordsFor(bits) - 1] &= (1ULL << (bits % 64)) - 1;
}

std::vector<uint64_t> RandomWords(int n, int bits, Rng* rng) {
  const int words = WordsFor(bits);
  std::vector<uint64_t> out(static_cast<size_t>(n) * words);
  for (uint64_t& w : out) w = rng->NextU64();
  for (int i = 0; i < n; ++i) MaskTail(out.data() + static_cast<size_t>(i) * words, bits);
  return out;
}

/// Flips `flips` distinct random bits of one packed code in place.
void FlipBits(uint64_t* words, int bits, int flips, Rng* rng) {
  for (const int bit : rng->SampleWithoutReplacement(bits, flips)) {
    words[bit / 64] ^= 1ULL << (bit % 64);
  }
}

}  // namespace

ClusteredCodes::ClusteredCodes(int bits, int centres, double flip_prob,
                               uint64_t seed)
    : bits_(bits), words_(WordsFor(bits)), flip_prob_(flip_prob) {
  Rng rng(seed);
  centres_ = RandomWords(centres, bits, &rng);
}

index::PackedCodes ClusteredCodes::Draw(int n, Rng* rng) const {
  const int centres = static_cast<int>(centres_.size()) / words_;
  const double log_keep = std::log(1.0 - flip_prob_);
  std::vector<uint64_t> out(static_cast<size_t>(n) * words_);
  for (int i = 0; i < n; ++i) {
    uint64_t* code = out.data() + static_cast<size_t>(i) * words_;
    const int c = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(centres)));
    std::copy_n(centres_.data() + static_cast<size_t>(c) * words_, words_, code);
    // Independent per-bit flips, drawn as geometric gaps between flipped
    // positions (a handful of draws per code instead of one per bit).
    for (int bit = -1;;) {
      bit += 1 + static_cast<int>(std::log(1.0 - rng->Uniform()) / log_keep);
      if (bit >= bits_) break;
      code[bit / 64] ^= 1ULL << (bit % 64);
    }
  }
  return index::PackedCodes::FromRawWords(n, bits_, std::move(out));
}

QueryStream UniqueStream(const ClusteredCodes* codes, uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [codes, rng](int n) { return codes->Draw(n, rng.get()); };
}

QueryStream ZipfStream(const ClusteredCodes* codes, int pool_size, double s,
                       uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  auto pool = std::make_shared<index::PackedCodes>(codes->Draw(pool_size, rng.get()));
  auto cdf = std::make_shared<std::vector<double>>(static_cast<size_t>(pool_size));
  double total = 0.0;
  for (int r = 0; r < pool_size; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    (*cdf)[static_cast<size_t>(r)] = total;
  }
  for (double& c : *cdf) c /= total;
  return [rng, pool, cdf](int n) {
    const int words = pool->words_per_code();
    std::vector<uint64_t> out;
    out.reserve(static_cast<size_t>(n) * words);
    for (int i = 0; i < n; ++i) {
      const auto it = std::lower_bound(cdf->begin(), cdf->end(), rng->Uniform());
      const int r = std::min(static_cast<int>(it - cdf->begin()), pool->size() - 1);
      out.insert(out.end(), pool->code(r), pool->code(r) + words);
    }
    return index::PackedCodes::FromRawWords(n, pool->bits(), std::move(out));
  };
}

QueryStream PerturbedStream(index::PackedCodes base, int max_flips,
                            uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  auto codes = std::make_shared<index::PackedCodes>(std::move(base));
  return [rng, codes, max_flips](int n) {
    const int words = codes->words_per_code();
    std::vector<uint64_t> out(static_cast<size_t>(n) * words);
    for (int i = 0; i < n; ++i) {
      uint64_t* code = out.data() + static_cast<size_t>(i) * words;
      const int row = static_cast<int>(
          rng->UniformInt(static_cast<uint64_t>(codes->size())));
      std::copy_n(codes->code(row), words, code);
      const int flips = 1 + static_cast<int>(
                                rng->UniformInt(static_cast<uint64_t>(max_flips)));
      FlipBits(code, codes->bits(), flips, rng.get());
    }
    return index::PackedCodes::FromRawWords(n, codes->bits(), std::move(out));
  };
}

PlantedCorpus MakePlantedCorpus(int n, int bits, int radius, uint64_t seed) {
  constexpr int kCopies = 5;
  Rng rng(seed);
  const int words = WordsFor(bits);
  const int clusters = std::max(1, n / (25 * kCopies));
  const int max_flips = std::max(1, radius / 2);
  const std::vector<uint64_t> bases = RandomWords(clusters, bits, &rng);
  std::vector<uint64_t> out = RandomWords(n, bits, &rng);  // background
  for (int c = 0; c < clusters; ++c) {
    for (int dup = 0; dup < kCopies; ++dup) {
      uint64_t* code = out.data() + (static_cast<size_t>(c) * kCopies + dup) * words;
      std::copy_n(bases.data() + static_cast<size_t>(c) * words, words, code);
      if (dup > 0) {
        const int flips = 1 + static_cast<int>(
                                  rng.UniformInt(static_cast<uint64_t>(max_flips)));
        FlipBits(code, bits, flips, &rng);
      }
    }
  }
  PlantedCorpus corpus;
  corpus.codes = index::PackedCodes::FromRawWords(n, bits, std::move(out));
  corpus.dead.Resize(n);
  for (int i = 0; i < n; i += 100) corpus.dead.Set(i);
  return corpus;
}

std::vector<double> PoissonSchedule(double rate, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due(static_cast<size_t>(n));
  double t = 0.0;
  for (double& d : due) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    d = t;
  }
  return due;
}

}  // namespace uhscm::ledger
