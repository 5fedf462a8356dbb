// Micro-performance benchmarks (google-benchmark) for the hot kernels
// behind the paper-table benches: packed Hamming scans, multi-index
// hashing lookups, GEMM, VLP scoring, the UHSCM batch loss and one whole
// training step. These are the "is the substrate fast enough" counterpart
// to the paper-shape benches; run any binary with --benchmark_filter=...
// as usual.
#include <benchmark/benchmark.h>

#include <cstring>
#include <ctime>
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
#include "linalg/ops.h"
#include "nn/sgd.h"
#include "perf_util.h"
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

void BM_BatchDistances(benchmark::State& state) {
  // The dispatched batch kernel (distances plus their minimum) against a
  // contiguous corpus run — the inner loop of the blocked scan, without
  // top-k bookkeeping.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const bool scalar = state.range(2) != 0;
  Rng rng(21);
  index::PackedCodes corpus =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
  index::PackedCodes query =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(1, bits, &rng));
  const index::BatchDistanceMinFn fn =
      scalar ? index::GetBatchDistanceMinFn(index::KernelTier::kScalar)
             : index::GetBatchDistanceMinFn();
  std::vector<int32_t> dist(static_cast<size_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(query.code(0), corpus.code(0), n,
                                corpus.words_per_code(), index::kNoThreshold,
                                dist.data()));
    benchmark::DoNotOptimize(dist.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * int64_t{n} *
                          corpus.words_per_code() * 8);
  state.SetLabel(scalar ? "scalar"
                        : index::KernelTierName(index::ActiveKernelTier()));
}
BENCHMARK(BM_BatchDistances)
    ->Args({100000, 64, 1})
    ->Args({100000, 64, 0})
    ->Args({100000, 128, 1})
    ->Args({100000, 128, 0})
    ->Args({100000, 1024, 1})
    ->Args({100000, 1024, 0});

void BM_BatchTopK(benchmark::State& state) {
  // The full batched serving scan: query-blocked x code-blocked with
  // early abandon, dispatched kernel.
  const int n = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  const int queries = static_cast<int>(state.range(2));
  Rng rng(22);
  index::LinearScanIndex scan(
      index::PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng)));
  index::PackedCodes batch =
      index::PackedCodes::FromSignMatrix(RandomSignCodes(queries, bits, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan.TopKBatch(batch, 100));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * queries);
}
BENCHMARK(BM_BatchTopK)
    ->Args({100000, 64, 32})
    ->Args({100000, 128, 32})
    ->Args({10000, 128, 256});

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
  // the variant picks the entry point — 0 the pre-packing cache-blocked
  // loop, 1 MatMul, 2 MatMulTransA (A stored k x m), 3 MatMulTransB (B
  // stored n x k). The transposed rows read their transpose in the pack.
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
      case 0: benchmark::DoNotOptimize(linalg::MatMulBlocked(a, b)); break;
      case 1: benchmark::DoNotOptimize(linalg::MatMul(a, b)); break;
      case 2: benchmark::DoNotOptimize(linalg::MatMulTransA(a, b)); break;
      default: benchmark::DoNotOptimize(linalg::MatMulTransB(a, b)); break;
    }
  }
  state.SetItemsProcessed(state.iterations() * int64_t{m} * k * n);
  state.counters["GFLOPs"] = benchmark::Counter(
      2e-9 * m * k * n, benchmark::Counter::kIsIterationInvariantRate);
  static const char* const kNames[] = {"blocked", "NN", "TN", "NT"};
  state.SetLabel(variant == 0 ? std::string(kNames[variant])
                             : std::string(kNames[variant]) + " packed/" +
                                   linalg::PackedGemmKernelName());
}
// Wall time: a product above the pool threshold runs on several threads,
// and the main thread's CPU time would count only its own share.
BENCHMARK(BM_PackedGemm)
    ->UseRealTime()
    ->Args({128, 3072, 512, 0})
    ->Args({128, 3072, 512, 1})
    ->Args({256, 256, 256, 0})
    ->Args({256, 256, 256, 1})
    ->Args({512, 512, 512, 0})
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
