// Micro-performance benchmarks (google-benchmark) for the hot kernels
// behind the paper-table benches: packed Hamming scans, multi-index
// hashing lookups, the radius and top-k self-joins, snapshot load and
// hydrate, GEMM, VLP scoring, the UHSCM batch loss and one whole
// training step. These are the "is the substrate fast enough"
// counterpart to the paper-shape benches; run any binary with
// --benchmark_filter=... as usual.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/hashing_network.h"
#include "core/losses.h"
#include "core/similarity.h"
#include "data/concept_vocab.h"
#include "data/synthetic.h"
#include "data/world.h"
#include "index/batch_scan.h"
#include "index/hamming_kernels.h"
#include "index/linear_scan.h"
#include "index/multi_index_hash.h"
#include "index/packed_codes.h"
#include "index/self_join.h"
#include "io/serialize.h"
#include "linalg/ops.h"
#include "obs/metrics.h"
#include "nn/sgd.h"
#include "perf_util.h"
#include "serve/snapshot.h"
#include "vlp/simulated_vlp.h"

namespace uhscm {
namespace {

using bench::RandomSignCodes;

void BM_HammingDistance(benchmark::State& state) {
  // Measures the unrolled popcount kernel itself: distance between two
  // packed rows at the paper's code widths (1..2 words) plus a wide
  // 1024-bit configuration where the 4-way unroll dominates.
  const int bits = static_cast<int>(state.range(0));
  Rng rng(11);
  index::PackedCodes codes =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(2, bits, &rng));
  const int words = codes.words_per_code();
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += static_cast<uint64_t>(
        index::HammingDistance(codes.code(0), codes.code(1), words));
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * words);
}
BENCHMARK(BM_HammingDistance)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

void BM_LinearScanTopK(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  Rng rng(1);
  index::LinearScanIndex scan(
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng)));
  index::PackedCodes query =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.TopK(query.code(0), 100));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinearScanTopK)
    ->Args({10000, 64})
    ->Args({10000, 128})
    ->Args({100000, 64});

void BM_BatchEmit(benchmark::State& state) {
  // The dispatched emitting kernel against a contiguous corpus run with
  // every code admitted (row bound kNoThreshold, so every distance is
  // written) — the inner loop of the blocked scan, without top-k
  // bookkeeping.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const bool scalar = state.range(2) != 0;
  Rng rng(21);
  index::PackedCodes corpus =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  index::PackedCodes query =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const index::BatchEmitFn fn =
      scalar ? index::GetBatchEmitFn(index::KernelTier::kScalar)
             : index::GetBatchEmitFn();
  std::vector<int32_t> hit_index(static_cast<size_t>(n));
  std::vector<int32_t> hit_distance(static_cast<size_t>(n));
  const uint64_t* row = query.code(0);
  const int32_t bound = index::kNoThreshold;
  int hits = 0;
  for (auto _ : state) {
    fn(&row, 1, corpus.code(0), n, corpus.words_per_code(), &bound, nullptr,
       hit_index.data(), hit_distance.data(), &hits);
    benchmark::DoNotOptimize(hits);
    benchmark::DoNotOptimize(hit_index.data());
    benchmark::DoNotOptimize(hit_distance.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * int64_t{n} *
                          corpus.words_per_code() * 8);
  state.SetLabel(scalar ? "scalar"
                        : index::KernelTierName(index::ActiveKernelTier()));
}
BENCHMARK(BM_BatchEmit)
    ->Args({100000, 64, 1})
    ->Args({100000, 64, 0})
    ->Args({100000, 128, 1})
    ->Args({100000, 128, 0})
    ->Args({100000, 1024, 1})
    ->Args({100000, 1024, 0});

/// Codes drawn around `centres` random centres, each bit flipped with
/// probability `flip`: the ledger's clustered serving corpus (1000
/// centres, 10%) or a trained model's few tight clusters.
linalg::Matrix ClusteredSignCodes(int n, int bits, int centres, double flip,
                                  Rng* rng) {
  const linalg::Matrix centre = RandomSignCodes(centres, bits, rng);
  linalg::Matrix m(n, bits);
  for (int i = 0; i < n; ++i) {
    const int c = static_cast<int>(rng->UniformInt(centres));
    for (int b = 0; b < bits; ++b) {
      m(i, b) = rng->Bernoulli(flip) ? -centre(c, b) : centre(c, b);
    }
  }
  return m;
}

void BM_BatchTopK(benchmark::State& state) {
  // The full batched serving scan: query-blocked x code-blocked, emitting
  // only codes below each query's worst kept distance, dispatched kernel.
  // Args: rows, bits, queries, k, centres (0 = uniform random codes),
  // per-mille bit-flip probability around the centres.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const int queries = static_cast<int>(state.range(2));
  const int k = static_cast<int>(state.range(3));
  const int centres = static_cast<int>(state.range(4));
  const double flip = static_cast<double>(state.range(5)) / 1000.0;
  Rng rng(22);
  auto draw = [&](int rows) {
    return index::PackedCodes::FromSignMatrix(
        centres == 0 ? RandomSignCodes(rows, bits, &rng)
                     : ClusteredSignCodes(rows, bits, centres, flip, &rng));
  };
  index::LinearScanIndex scan(draw(n));
  index::PackedCodes batch = draw(queries);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.TopKBatch(batch, k));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * queries);
}
BENCHMARK(BM_BatchTopK)
    ->Args({100000, 64, 32, 100, 0, 0})
    ->Args({100000, 128, 32, 100, 0, 0})
    ->Args({10000, 128, 256, 100, 0, 0})
    // The ledger's shard units at k = 10: one 250k-row shard of
    // serve-scan's clustered codes and one 25k-row shard of serve-hot's
    // (and serve-churn's) under a full batch, and one 2500-row shard of
    // build's ten-class codes under a batch of two.
    ->Args({250000, 64, 16, 10, 1000, 100})
    ->Args({25000, 64, 16, 10, 1000, 100})
    ->Args({2500, 64, 2, 10, 10, 20})
    // The same clustering at 128 bits (2048 codes per 32 KiB block).
    ->Args({100000, 128, 16, 10, 1000, 100});

void BM_MihRadiusQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int radius = static_cast<int>(state.range(1));
  Rng rng(2);
  index::MultiIndexHashTable mih(
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, 64, &rng)), 0);
  index::PackedCodes query =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(1, 64, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mih.WithinRadius(query.code(0), radius));
  }
}
BENCHMARK(BM_MihRadiusQuery)
    ->Args({10000, 2})
    ->Args({10000, 6})
    ->Args({100000, 2});

/// The dedup workload's corpus shape: planted clusters of five codes
/// within radius 8 of each other (4% of the rows), random background,
/// every 100th row tombstoned in `dead`.
index::PackedCodes PlantedDedupCorpus(int n, int bits,
                                      index::TombstoneSet* dead) {
  Rng rng(31);
  index::PackedCodes codes =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  std::vector<uint64_t> words = codes.words();
  const int per_code = codes.words_per_code();
  for (int c = 0; c < n / 25; c += 5) {
    for (int copy = 1; copy < 5; ++copy) {
      uint64_t* code = words.data() + static_cast<size_t>(c + copy) * per_code;
      std::memcpy(code, codes.code(c), sizeof(uint64_t) * per_code);
      const int flips = 1 + static_cast<int>(rng.UniformInt(4));
      for (int f = 0; f < flips; ++f) {
        const int bit = static_cast<int>(rng.UniformInt(bits));
        code[bit / 64] ^= 1ULL << (bit % 64);
      }
    }
  }
  dead->Resize(n);
  for (int i = 0; i < n; i += 100) dead->Set(i);
  return index::PackedCodes::FromRawWords(n, bits, std::move(words));
}

void BM_RadiusJoin(benchmark::State& state) {
  // RadiusJoin on one thread over PlantedDedupCorpus. Args are
  // (n, bits, radius); the label names the path the cost rule picked.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const int radius = static_cast<int>(state.range(2));
  index::TombstoneSet dead;
  const index::PackedCodes codes = PlantedDedupCorpus(n, bits, &dead);
  index::SelfJoinOptions options;
  options.threads = 1;
  options.tombstones = &dead;
  obs::Counter* verified =
      obs::MetricsRegistry::Global().GetCounter("mih.candidates_verified");
  const int64_t verified0 = verified->value();
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = index::RadiusJoin(codes, radius, options).size();
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetLabel(verified->value() != verified0 ? "multi-index hash"
                                                : "blocked");
}
BENCHMARK(BM_RadiusJoin)
    ->Unit(benchmark::kMillisecond)
    ->Args({60000, 128, 8})    // the dedup workload's radius join
    ->Args({60000, 128, 16})   // r >= bits/8: the blocked join on any tier
    ->Args({10000, 256, 32});  // the blocked join on the wide-code kernels

void BM_TopKJoin(benchmark::State& state) {
  // TopKJoin on one thread over PlantedDedupCorpus. Args are (n, bits, k);
  // 60000/128/10 is the dedup workload's top-k join. `scored` counts the
  // pairs the kernel emitted to the reducer.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  index::TombstoneSet dead;
  const index::PackedCodes codes = PlantedDedupCorpus(n, bits, &dead);
  index::SelfJoinOptions options;
  options.threads = 1;
  options.tombstones = &dead;
  index::SelfJoinStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::TopKJoin(codes, k, options, &stats));
  }
  state.counters["scored"] = static_cast<double>(stats.pairs_scored);
  state.SetLabel(index::KernelTierName(index::ActiveKernelTier()));
}
BENCHMARK(BM_TopKJoin)
    ->Unit(benchmark::kMillisecond)
    ->Args({60000, 128, 10})    // the dedup workload's top-k join
    ->Args({60000, 128, 100})
    ->Args({10000, 256, 10});   // the wide-code kernels

/// `n` uniformly random `bits`-bit codes (bits a multiple of 64), drawn
/// word by word so a 1M-row corpus needs no sign matrix.
index::PackedCodes RandomPackedCodes(int n, int bits, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> words(static_cast<size_t>(n) * (bits / 64));
  for (uint64_t& w : words) w = rng.NextU64();
  return index::PackedCodes::FromRawWords(n, bits, std::move(words));
}

void BM_SnapshotLoad(benchmark::State& state) {
  // io::LoadCodesSnapshot of a v3 snapshot of (n, bits) random codes:
  // 1000000/64 is serve-scan's corpus, 60000/128 dedup's. The file is
  // read from the page cache after the first iteration.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  io::CodesSnapshot snapshot;
  snapshot.codes = RandomPackedCodes(n, bits, 41);
  const std::string path =
      (std::filesystem::temp_directory_path() / "micro_perf_snapshot.bin")
          .string();
  if (!io::SaveCodesSnapshot(snapshot, path).ok()) {
    state.SkipWithError("cannot write the snapshot");
    return;
  }
  for (auto _ : state) {
    Result<io::CodesSnapshot> loaded = io::LoadCodesSnapshot(path);
    if (!loaded.ok()) state.SkipWithError("load failed");
    benchmark::DoNotOptimize(loaded);
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(snapshot.codes.words().size() *
                                               sizeof(uint64_t)));
}
BENCHMARK(BM_SnapshotLoad)
    ->Unit(benchmark::kMillisecond)
    ->Args({1000000, 64})
    ->Args({60000, 128});

void BM_Hydrate(benchmark::State& state) {
  // serve::MakeQueryEngineFromSnapshot over a loaded (n, bits) snapshot
  // into 4 shards, the ledger's serving layout; the engine's teardown is
  // not timed.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  io::CodesSnapshot snapshot;
  snapshot.codes = RandomPackedCodes(n, bits, 42);
  serve::ServingSnapshotOptions options;
  options.index.num_shards = 4;
  options.engine.num_threads = 1;
  for (auto _ : state) {
    std::unique_ptr<serve::QueryEngine> engine =
        serve::MakeQueryEngineFromSnapshot(snapshot, options);
    benchmark::DoNotOptimize(engine.get());
    state.PauseTiming();
    engine.reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(snapshot.codes.words().size() *
                                               sizeof(uint64_t)));
}
BENCHMARK(BM_Hydrate)
    ->Unit(benchmark::kMillisecond)
    ->Args({1000000, 64})
    ->Args({60000, 128});

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  linalg::Matrix a = linalg::Matrix::RandomNormal(n, n, &rng);
  linalg::Matrix b = linalg::Matrix::RandomNormal(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Arg(128)->Arg(256)->Arg(512);

void BM_PackedGemm(benchmark::State& state) {
  // Args are (m, k, n, variant): C is m x n with inner dimension k, and
  // the variant picks the entry point — 1 MatMul, 2 MatMulTransA (A
  // stored k x m), 3 MatMulTransB (B stored n x k). The transposed rows
  // read their transpose in the pack.
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const int variant = static_cast<int>(state.range(3));
  Rng rng(7);
  const linalg::Matrix a = variant == 2
                               ? linalg::Matrix::RandomNormal(k, m, &rng)
                               : linalg::Matrix::RandomNormal(m, k, &rng);
  const linalg::Matrix b = variant == 3
                               ? linalg::Matrix::RandomNormal(n, k, &rng)
                               : linalg::Matrix::RandomNormal(k, n, &rng);
  for (auto _ : state) {
    switch (variant) {
      case 1: benchmark::DoNotOptimize(linalg::MatMul(a, b)); break;
      case 2: benchmark::DoNotOptimize(linalg::MatMulTransA(a, b)); break;
      default: benchmark::DoNotOptimize(linalg::MatMulTransB(a, b)); break;
    }
  }
  state.SetItemsProcessed(state.iterations() * int64_t{m} * k * n);
  state.counters["GFLOPs"] = benchmark::Counter(
      2e-9 * m * k * n, benchmark::Counter::kIsIterationInvariantRate);
  const char* name = variant == 1 ? "NN" : variant == 2 ? "TN" : "NT";
  state.SetLabel(std::string(name) + " packed/" +
                 linalg::PackedGemmKernelName());
}
// Wall time: a product above the pool threshold runs on several threads,
// and the main thread's CPU time would count only its own share.
BENCHMARK(BM_PackedGemm)
    ->UseRealTime()
    ->Args({128, 3072, 512, 1})
    ->Args({256, 256, 256, 1})
    ->Args({512, 512, 512, 1})
    // The ten products of one training step at the ledger's shape
    // (BM_TrainStep): forward, the loss's two, then backward in order.
    ->Args({128, 256, 512, 1})   // layer 1 forward
    ->Args({128, 512, 256, 1})   // layer 2 forward
    ->Args({128, 256, 64, 1})    // layer 3 forward
    ->Args({128, 64, 128, 3})    // loss: cosines of the batch codes
    ->Args({128, 128, 64, 1})    // loss: cosine backward
    ->Args({256, 128, 64, 2})    // layer 3 dW
    ->Args({128, 64, 256, 3})    // layer 3 dx
    ->Args({512, 128, 256, 2})   // layer 2 dW
    ->Args({128, 256, 512, 3})   // layer 2 dx
    ->Args({256, 128, 512, 2});  // layer 1 dW

/// CPU seconds of the whole process, pool threads included: a phase that
/// fans out pays for every core it wakes.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void BM_TrainStep(benchmark::State& state) {
  // One SGD step of the trainer at the ledger's `build` shape: 128 rows x
  // 256 inputs through the default 512-256-64 network, with a Q block
  // from a 22-column factor (ten class columns plus noise). Counters give
  // the process CPU ms of each phase per step; `step_ms` is ZeroGrad plus
  // the SGD update.
  constexpr int kRows = 128;
  constexpr int kInput = 256;
  constexpr int kFactorCols = 22;
  Rng rng(9);
  core::HashingNetwork net(kInput, core::HashingNetworkOptions{}, &rng);
  nn::SgdOptimizer optimizer(net.model(), nn::SgdOptions{});
  const linalg::Matrix x = linalg::Matrix::RandomNormal(kRows, kInput, &rng);
  core::SimilarityFactor q;
  q.f = linalg::Matrix::RandomUniform(kRows, kFactorCols, &rng, 0.0f, 0.1f);
  for (int i = 0; i < kRows; ++i) q.f(i, i % 10) += 1.0f;
  linalg::NormalizeRowsL2(&q.f);
  std::vector<int> rows(kRows);
  for (int i = 0; i < kRows; ++i) rows[static_cast<size_t>(i)] = i;
  const linalg::Matrix q_batch = q.Block(rows);
  const core::UhscmLossOptions loss_options;

  double forward = 0, loss = 0, backward = 0, step = 0;
  for (auto _ : state) {
    double t0 = ProcessCpuSeconds();
    const linalg::Matrix z = net.Forward(x);
    double t1 = ProcessCpuSeconds();
    forward += t1 - t0;
    core::LossAndGrad lg = core::UhscmBatchLoss(z, q_batch, loss_options);
    t0 = ProcessCpuSeconds();
    loss += t0 - t1;
    optimizer.ZeroGrad();
    t1 = ProcessCpuSeconds();
    step += t1 - t0;
    net.Backward(std::move(lg.dz));
    t0 = ProcessCpuSeconds();
    backward += t0 - t1;
    optimizer.Step();
    step += ProcessCpuSeconds() - t0;
  }
  const auto per_step_ms = [](double s) {
    return benchmark::Counter(1e3 * s, benchmark::Counter::kAvgIterations);
  };
  state.counters["forward_ms"] = per_step_ms(forward);
  state.counters["loss_ms"] = per_step_ms(loss);
  state.counters["backward_ms"] = per_step_ms(backward);
  state.counters["step_ms"] = per_step_ms(step);
}
BENCHMARK(BM_TrainStep);

void BM_EncodeBinary(benchmark::State& state) {
  // Codes from the default 256 -> 512-256-64 network, as the ledger's
  // `build` encodes its 10000 database and 2000 query rows (the 12000
  // row), a training batch's worth (128), and one query (1). `cpu_ms` is
  // the process CPU per call, pool threads included.
  const int rows = static_cast<int>(state.range(0));
  constexpr int kInput = 256;
  Rng rng(10);
  core::HashingNetwork net(kInput, core::HashingNetworkOptions{}, &rng);
  const linalg::Matrix x = linalg::Matrix::RandomNormal(rows, kInput, &rng);
  double cpu = 0;
  for (auto _ : state) {
    const double t0 = ProcessCpuSeconds();
    benchmark::DoNotOptimize(net.EncodeBinary(x));
    cpu += ProcessCpuSeconds() - t0;
  }
  state.counters["cpu_ms"] =
      benchmark::Counter(1e3 * cpu, benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_EncodeBinary)->Arg(1)->Arg(128)->Arg(12000)->UseRealTime();

void BM_VlpScoring(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  data::SemanticWorld world(4);
  data::SyntheticOptions options;
  options.sizes = {n, n / 2, n / 10};
  Rng rng(5);
  const data::Dataset dataset = data::MakeCifar10Like(&world, options, &rng);
  const data::ConceptVocab vocab = data::MakeNusVocab(&world);
  const vlp::SimulatedVlpModel vlp(&world);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vlp.ScoreImagesAgainstConcepts(
        dataset.pixels, vocab.ids, vlp::PromptTemplate::kAPhotoOfThe));
  }
  state.SetItemsProcessed(state.iterations() * n * vocab.size());
}
BENCHMARK(BM_VlpScoring)->Arg(200)->Arg(1000);

void BM_UhscmBatchLoss(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  Rng rng(6);
  linalg::Matrix z = linalg::Matrix::RandomNormal(t, bits, &rng);
  linalg::Matrix q(t, t);
  for (int i = 0; i < t; ++i) {
    q(i, i) = 1.0f;
    for (int j = i + 1; j < t; ++j) {
      q(i, j) = q(j, i) = static_cast<float>(rng.Uniform());
    }
  }
  core::UhscmLossOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::UhscmBatchLoss(z, q, options));
  }
  state.SetItemsProcessed(state.iterations() * t * t);
}
BENCHMARK(BM_UhscmBatchLoss)->Args({128, 64})->Args({128, 128});

}  // namespace
}  // namespace uhscm

// Custom main instead of BENCHMARK_MAIN(): unless the caller passed their
// own --benchmark_out, default to a machine-readable
// BENCH_micro_perf.json next to the console report so the perf
// trajectory is recorded on every run.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag only: a bare prefix test would also match
    // --benchmark_out_format and wrongly suppress the default.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_perf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
