// Seeded synthetic inputs: packed-code corpora, query streams, and the
// planted near-duplicate dedup corpus. Everything here is a function of
// the seed, so a run's inputs repeat exactly.
#ifndef UHSCM_BENCH_LEDGER_CORPUS_H_
#define UHSCM_BENCH_LEDGER_CORPUS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "index/packed_codes.h"
#include "index/shard_index.h"

namespace uhscm::ledger {

/// \brief Clustered codes: each code is one of `centres` random centres
/// with every bit flipped independently with probability `flip_prob`.
/// Real learned codes cluster by class, which is what gives the scan's
/// block-min skip something to prune; uniform random codes would not.
class ClusteredCodes {
 public:
  ClusteredCodes(int bits, int centres, double flip_prob, uint64_t seed);

  /// `n` fresh codes drawn from `rng`.
  index::PackedCodes Draw(int n, Rng* rng) const;

  int bits() const { return bits_; }

 private:
  int bits_;
  int words_;
  double flip_prob_;
  std::vector<uint64_t> centres_;
};

/// The request codes of a serving workload, in arrival order: every call
/// returns the next `n` codes of one seeded stream.
using QueryStream = std::function<index::PackedCodes(int n)>;

/// Fresh codes from the generator on every request (no repeats, so the
/// result cache never hits).
QueryStream UniqueStream(const ClusteredCodes* codes, uint64_t seed);

/// Zipf(s) over a pool of `pool_size` fixed codes: popular queries repeat,
/// so most requests can be answered from the result cache.
QueryStream ZipfStream(const ClusteredCodes* codes, int pool_size, double s,
                       uint64_t seed);

/// Rows of `base`, chosen uniformly, each with 1..max_flips random bits
/// flipped: near-duplicates of existing codes, effectively unique.
QueryStream PerturbedStream(index::PackedCodes base, int max_flips,
                            uint64_t seed);

/// \brief The dedup corpus: ~4% of rows in planted clusters of 5 copies
/// (each copy within radius/2 flips of its cluster base, so every
/// intra-cluster pair is within `radius`), the rest random background,
/// and every 100th row tombstoned. Background pairs sit near bits/2, far
/// above any small radius, so the radius join's output is essentially
/// the planted clusters.
struct PlantedCorpus {
  index::PackedCodes codes;
  index::TombstoneSet dead;
};
PlantedCorpus MakePlantedCorpus(int n, int bits, int radius, uint64_t seed);

/// Poisson arrival offsets (seconds from phase start) at `rate` per
/// second: `n` exponential inter-arrival gaps drawn ahead of time.
std::vector<double> PoissonSchedule(double rate, int n, uint64_t seed);

}  // namespace uhscm::ledger

#endif  // UHSCM_BENCH_LEDGER_CORPUS_H_
