// hamming_kernels — scalar vs SIMD vs batched-scan Hamming throughput.
//
// Builds a random packed corpus and sweeps every kernel tier this host
// can run (scalar, avx2, avx512 — see --list-tiers) over identical work:
//
//   per-query/topk    : LinearScanIndex::TopK in a loop (the pre-batching
//                       serving path — one corpus pass per query)
//   batched/<tier>    : cache-blocked BatchTopK (emitting kernel),
//                       forced to <tier>
//   serving/<tier>    : LinearScanIndex::TopKBatch at the dispatched tier
//                       — the serving hot path, checked for identity
//   kernel/<tier>     : the raw emitting kernel with every code admitted
//                       (row bound kNoThreshold), no top-k bookkeeping —
//                       the cost of scoring and writing out every code,
//                       which the batched scan's armed bound avoids
//
// Results land on stdout and in a machine-readable
// BENCH_hamming_kernels.json (one row per tier) so the perf trajectory is
// recorded across PRs. One gate, armed only on a machine where it can
// hold (SIMD present, >=100k codes, >=128 bits, Release build): the
// batched SIMD scan must run >= 3x the per-query scalar scan.
//
//   $ ./build/hamming_kernels [--n=100000] [--bits=128] [--queries=64]
//                             [--k=10] [--json=BENCH_hamming_kernels.json]
//   $ ./build/hamming_kernels --list-tiers   # one available tier per line
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "index/batch_scan.h"
#include "index/hamming_kernels.h"
#include "index/linear_scan.h"
#include "index/packed_codes.h"
#include "perf_util.h"

namespace uhscm::bench {
namespace {

struct Flags {
  int n = 100000;
  int bits = 128;
  int queries = 64;
  int k = 10;
  uint64_t seed = 2023;
  std::string json = "BENCH_hamming_kernels.json";
  bool list_tiers = false;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: hamming_kernels [--n=N] [--bits=K] [--queries=N] "
               "[--k=K] [--seed=N] [--json=PATH] [--list-tiers]\n"
               "  --n, --bits, --queries and --k must be at least 1\n");
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--n=")) {
      flags.n = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--bits=")) {
      flags.bits = std::atoi(arg.c_str() + 7);
    } else if (StartsWith(arg, "--queries=")) {
      flags.queries = std::atoi(arg.c_str() + 10);
    } else if (StartsWith(arg, "--k=")) {
      flags.k = std::atoi(arg.c_str() + 4);
    } else if (StartsWith(arg, "--seed=")) {
      flags.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (StartsWith(arg, "--json=")) {
      flags.json = arg.substr(7);
    } else if (arg == "--list-tiers") {
      flags.list_tiers = true;
    } else {
      Usage();
    }
  }
  // atoi reads a malformed count as 0; every size must be at least 1.
  if (flags.n < 1 || flags.bits < 1 || flags.queries < 1 || flags.k < 1) {
    Usage();
  }
  return flags;
}

struct Row {
  std::string name;
  std::string tier;
  double seconds = 0.0;
  double codes_per_s = 0.0;
  double gb_per_s = 0.0;
  double speedup = 1.0;
};

std::vector<index::KernelTier> AvailableTiers() {
  std::vector<index::KernelTier> tiers;
  for (const index::KernelTier tier :
       {index::KernelTier::kScalar, index::KernelTier::kAvx2,
        index::KernelTier::kAvx512}) {
    if (index::KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const std::vector<index::KernelTier> tiers = AvailableTiers();
  if (flags.list_tiers) {
    // Machine-readable availability probe for the forced-tier CI legs:
    // one tier name per line, nothing else on stdout.
    for (const index::KernelTier tier : tiers) {
      std::printf("%s\n", index::KernelTierName(tier));
    }
    return 0;
  }

  Rng rng(flags.seed);
  const index::PackedCodes corpus = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(flags.n, flags.bits, &rng));
  const index::PackedCodes queries = index::PackedCodes::FromSignMatrix(
      RandomSignCodes(flags.queries, flags.bits, &rng));
  const index::LinearScanIndex scan(index::PackedCodes::FromRawWords(
      corpus.size(), corpus.bits(), corpus.words()));
  const double pair_count =
      static_cast<double>(flags.n) * static_cast<double>(flags.queries);
  const double bytes_scanned =
      pair_count * corpus.words_per_code() * sizeof(uint64_t);
  const index::KernelTier active_tier = index::ActiveKernelTier();
  const char* simd_name = index::KernelTierName(active_tier);

  std::printf("corpus n=%d bits=%d (%d words/code) | %d queries, k=%d\n",
              flags.n, flags.bits, corpus.words_per_code(), flags.queries,
              flags.k);
  // Without VPOPCNTDQ the avx512 tier scans with the AVX2 kernels.
  std::printf("dispatched kernel tier: %s%s | compiled-in tiers available:",
              simd_name,
              active_tier == index::KernelTier::kAvx512
                  ? (index::Avx512VpopcntAvailable() ? "+vpopcntdq"
                                                     : "+avx2-scan")
                  : "");
  for (const index::KernelTier tier : tiers) {
    std::printf(" %s", index::KernelTierName(tier));
  }
  std::printf("\n\n");

  std::vector<Row> rows;
  auto add_row = [&](const std::string& name, const std::string& tier,
                     double seconds) {
    Row row;
    row.name = name;
    row.tier = tier;
    row.seconds = seconds;
    row.codes_per_s = pair_count / seconds;
    row.gb_per_s = bytes_scanned / seconds / 1e9;
    row.speedup = rows.empty() ? 1.0 : rows.front().seconds / seconds;
    rows.push_back(row);
  };

  // Row 0: the pre-batching serving path — one full-corpus scalar pass
  // per query through the bounded-heap TopK. Every speedup column is
  // relative to this.
  {
    size_t sink = 0;
    const double secs = TimeBest(kTimingReps, [&] {
      sink = 0;
      for (int q = 0; q < queries.size(); ++q) {
        sink += scan.TopK(queries.code(q), flags.k).size();
      }
    });
    if (sink == 0) std::abort();
    add_row("per-query/topk", "scalar", secs);
  }

  // Batched cache-blocked scan per tier. The scalar row isolates the blocking/batching win from the
  // SIMD win; higher tiers add the SIMD win on identical work.
  for (const index::KernelTier tier : tiers) {
    index::BatchScanOptions options;
    options.force_tier = true;
    options.tier = tier;
    const double secs = TimeBest(kTimingReps, [&] {
      const auto results =
          index::BatchTopK(scan.database(), queries, flags.k, options);
      (void)results;
    });
    add_row(std::string("batched/") + index::KernelTierName(tier),
            index::KernelTierName(tier), secs);
  }

  // The serving hot path itself (dispatched tier) — measured last of the
  // batched rows and checked for byte-identity below.
  std::vector<std::vector<index::Neighbor>> simd_results;
  const double serving_secs = TimeBest(
      kTimingReps, [&] { simd_results = scan.TopKBatch(queries, flags.k); });
  add_row(std::string("serving/") + simd_name, simd_name, serving_secs);

  // Raw kernel sweeps per tier (no top-k bookkeeping). With no bound
  // every code's index and distance is written out.
  std::vector<int32_t> hit_index(static_cast<size_t>(corpus.size()));
  std::vector<int32_t> hit_distance(static_cast<size_t>(corpus.size()));
  for (const index::KernelTier tier : tiers) {
    const index::BatchEmitFn fn = index::GetBatchEmitFn(tier);
    int64_t sink = 0;
    const double secs = TimeBest(kTimingReps, [&] {
      sink = 0;
      for (int q = 0; q < queries.size(); ++q) {
        const uint64_t* row = queries.code(q);
        const int32_t bound = index::kNoThreshold;
        int hits = 0;
        fn(&row, 1, corpus.code(0), corpus.size(), corpus.words_per_code(),
           &bound, nullptr, hit_index.data(), hit_distance.data(), &hits);
        sink += hits;
        sink += hit_distance[static_cast<size_t>(corpus.size()) - 1];
      }
    });
    if (sink < 0) std::abort();
    add_row(std::string("kernel/") + index::KernelTierName(tier),
            index::KernelTierName(tier), secs);
  }

  TableWriter table({"config", "secs", "Mcodes/s", "GB/s", "speedup"});
  for (const Row& row : rows) {
    table.AddRow({row.name, Fmt(row.seconds, "%.4f"),
                  Fmt(row.codes_per_s / 1e6, "%.1f"), Fmt(row.gb_per_s, "%.2f"),
                  Fmt(row.speedup, "%.2f")});
  }
  table.Print(std::cout);

  // Byte-identity check: the batched results must equal the per-query
  // scan (spot check).
  for (int q = 0; q < std::min(queries.size(), 8); ++q) {
    const auto expect = scan.TopK(queries.code(q), flags.k);
    const auto& got = simd_results[static_cast<size_t>(q)];
    if (expect.size() != got.size()) std::abort();
    for (size_t i = 0; i < expect.size(); ++i) {
      if (expect[i].id != got[i].id || expect[i].distance != got[i].distance) {
        std::fprintf(stderr, "FATAL: batched result mismatch at q=%d rank=%zu\n",
                     q, i);
        return 1;
      }
    }
  }
  std::printf("\nbatched results byte-identical to per-query TopK (spot "
              "check)\n");

  const double headline = rows.front().seconds / serving_secs;
  std::printf("headline: batched %s scan = %.2fx per-query scalar scan\n",
              simd_name, headline);

  if (!flags.json.empty()) {
    std::FILE* f = std::fopen(flags.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "WARNING: cannot write %s — perf trajectory not recorded\n",
                   flags.json.c_str());
    } else {
      std::fprintf(f, "{\n  \"bench\": \"hamming_kernels\",\n");
      WriteJsonRunMeta(f);
      // Kernel bench: no serving pipeline runs here, so the stage
      // breakdown is empty unless a prior in-process pass traced one —
      // emitted anyway to keep the BENCH_*.json schema uniform.
      WriteJsonStageBreakdown(f);
      std::fprintf(f, "  \"n\": %d, \"bits\": %d, \"queries\": %d, \"k\": %d,\n",
                   flags.n, flags.bits, flags.queries, flags.k);
      std::fprintf(f, "  \"kernel_tier\": \"%s\",\n", simd_name);
      std::fprintf(f, "  \"tiers_available\": [");
      for (size_t i = 0; i < tiers.size(); ++i) {
        std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                     index::KernelTierName(tiers[i]));
      }
      std::fprintf(f, "],\n  \"rows\": [\n");
      for (size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(f,
                     "    {\"config\": \"%s\", \"tier\": \"%s\", "
                     "\"seconds\": %.6f, "
                     "\"codes_per_s\": %.1f, \"gb_per_s\": %.3f, "
                     "\"speedup_vs_per_query\": %.3f}%s\n",
                     rows[i].name.c_str(), rows[i].tier.c_str(),
                     rows[i].seconds,
                     rows[i].codes_per_s, rows[i].gb_per_s, rows[i].speedup,
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f,
                   "  ],\n  \"headline_speedup\": %.3f\n}\n",
                   headline);
      std::fclose(f);
      std::printf("wrote %s\n", flags.json.c_str());
    }
  }

  // The acceptance bar only applies where it can hold: SIMD present and
  // a corpus big enough that per-query scans actually pay for memory.
  const bool gates_armed = index::Avx2Available() &&
                           active_tier != index::KernelTier::kScalar &&
                           flags.n >= 100000 && flags.bits >= 128;
  if (gates_armed && headline < 3.0) {
    std::fprintf(stderr,
                 "\nFAIL: batched SIMD scan only %.2fx the per-query scalar "
                 "scan (need >= 3x)\n",
                 headline);
    return 1;
  }
  return 0;
}

}  // namespace uhscm::bench

int main(int argc, char** argv) { return uhscm::bench::Main(argc, argv); }
