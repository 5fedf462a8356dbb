// `build`: the offline half end to end — train the hashing network on a
// CIFAR-like corpus, encode and pack the codes, snapshot them, and bring
// them online — then serve the query split from what was built. Only
// here do the core, nn and linalg layers do the work.
#include <map>
#include <memory>
#include <vector>

#include "core/concept_denoiser.h"
#include "core/concept_miner.h"
#include "core/hashing_network.h"
#include "core/similarity.h"
#include "core/trainer.h"
#include "data/concept_vocab.h"
#include "data/synthetic.h"
#include "data/world.h"
#include "eval/retrieval_eval.h"
#include "linalg/ops.h"
#include "serve/snapshot.h"
#include "serving.h"
#include "workloads.h"

namespace uhscm::ledger {

namespace {

constexpr int kBits = 64;
/// The trainer's default 30 epochs never stop early on this corpus and
/// end at a lower mAP (~0.985) than a few epochs do (0.995-0.999 with
/// two); two keep the same per-epoch work at a fraction of the time.
constexpr int kEpochs = 2;
constexpr double kMinMap = 0.95;

/// What `build` works from: the dataset (train 8000 / database 10000 /
/// query 2000), the collected concept vocabulary, and the simulated VLP.
struct Inputs {
  std::unique_ptr<data::SemanticWorld> world;
  data::Dataset dataset;
  data::ConceptVocab vocab;
  std::unique_ptr<vlp::SimulatedVlpModel> vlp;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.world = std::make_unique<data::SemanticWorld>(StreamSeed(seed, "world"));
  data::SyntheticOptions options = data::DefaultOptionsFor("cifar");
  options.sizes = {10000, 8000, 2000};
  Rng rng(StreamSeed(seed, "dataset"));
  in.dataset = data::MakeCifar10Like(in.world.get(), options, &rng);
  in.vocab = data::MakeNusVocab(in.world.get());
  in.vlp = std::make_unique<vlp::SimulatedVlpModel>(in.world.get());
  return in;
}

/// One build's products and the CPU time of each stage. Products stay
/// alive in here so no timed region pays for tearing down the previous
/// build.
struct Build {
  linalg::Matrix db_codes;
  linalg::Matrix query_codes;
  io::CodesSnapshot snapshot;
  std::unique_ptr<serve::QueryEngine> engine;
  int epochs = 0;
  double train_s = 0, encode_s = 0, pack_s = 0, save_s = 0, load_s = 0,
         hydrate_s = 0;
};

/// Train -> Encode (database + query) -> pack -> SaveCodesSnapshot ->
/// LoadCodesSnapshot -> MakeQueryEngineFromSnapshot, each stage timed.
Build RunBuild(const Inputs& in, const core::UhscmConfig& config,
               const std::string& path) {
  Build b;
  const core::UhscmTrainer trainer(in.vlp.get(), config);
  const data::Split& split = in.dataset.split;
  Result<core::UhscmModel> model = core::UhscmModel{};
  b.train_s = TimeCall([&] {
    model = trainer.Train(in.dataset.pixels.SelectRows(split.train), in.vocab);
  }).cpu_s;
  if (!model.ok()) Fatal("Train: " + model.status().ToString());
  b.epochs = static_cast<int>(model->epoch_losses.size());
  b.encode_s = TimeCall([&] {
    b.db_codes = model->Encode(in.dataset.pixels.SelectRows(split.database));
    b.query_codes = model->Encode(in.dataset.pixels.SelectRows(split.query));
  }).cpu_s;
  io::CodesSnapshot snapshot;
  b.pack_s = TimeCall([&] {
    snapshot.codes = index::PackedCodes::FromSignMatrix(b.db_codes);
  }).cpu_s;
  Status saved;
  b.save_s = TimeCall([&] { saved = io::SaveCodesSnapshot(snapshot, path); }).cpu_s;
  if (!saved.ok()) Fatal("SaveCodesSnapshot: " + saved.ToString());
  Result<io::CodesSnapshot> loaded = io::CodesSnapshot{};
  b.load_s = TimeCall([&] { loaded = io::LoadCodesSnapshot(path); }).cpu_s;
  if (!loaded.ok()) Fatal("LoadCodesSnapshot: " + loaded.status().ToString());
  b.snapshot = *loaded;
  b.hydrate_s = TimeCall([&] {
    b.engine = serve::MakeQueryEngineFromSnapshot(std::move(*loaded),
                                                  ServingOptions());
  }).cpu_s;
  return b;
}

/// Times one build end to end, after releasing the previous one.
Timing TimedBuild(const Inputs& in, const core::UhscmConfig& config,
                  const std::string& path, Build* out) {
  *out = Build{};
  return TimeCall([&] { *out = RunBuild(in, config, path); });
}

double Total(const Build& b) {
  return b.train_s + b.encode_s + b.pack_s + b.save_s + b.load_s + b.hydrate_s;
}

/// Per-layer attribution of one build: the CPU time of its stages, and of
/// the similarity stages Train runs first, called through their public
/// functions and timed from outside.
void ReportTrainLayers(const Inputs& in, const core::UhscmConfig& config,
                       const Build& staged, Report* report) {
  const linalg::Matrix train = in.dataset.pixels.SelectRows(in.dataset.split.train);
  core::ConceptMinerOptions miner_options;
  miner_options.tau_multiplier = config.tau_multiplier;
  miner_options.prompt = config.prompt;
  linalg::Matrix d;
  double mine_s = TimeCall([&] {
    d = core::ConceptMiner(in.vlp.get(), miner_options).MineDistributions(train, in.vocab);
  }).cpu_s;
  core::DenoiseResult denoised;
  const double denoise_s =
      TimeCall([&] { denoised = core::DenoiseConcepts(d, in.vocab); }).cpu_s;
  miner_options.tau_concepts_override = in.vocab.size();
  mine_s += TimeCall([&] {
    d = core::ConceptMiner(in.vlp.get(), miner_options)
            .MineDistributions(train, denoised.vocab);
  }).cpu_s;
  const double similarity_s =
      TimeCall([&] { core::SimilarityFromDistributions(d); }).cpu_s;

  report->Layer("core.mine_s", mine_s);
  report->Layer("core.denoise_s", denoise_s);
  report->Layer("core.similarity_s", similarity_s);
  // Derived, not measured: Train's CPU time minus the three stages
  // above, i.e. network set-up plus every SGD epoch.
  report->Layer("core.sgd_s", staged.train_s - mine_s - denoise_s - similarity_s);
  report->Layer("core.epochs", staged.epochs);
  report->Layer("core.encode_s", staged.encode_s);
  report->Layer("index.pack_s", staged.pack_s);
  report->Layer("io.save_s", staged.save_s);
  report->Layer("io.load_s", staged.load_s);
  report->Layer("serve.hydrate_s", staged.hydrate_s);

  // One SGD step of the network at the trainer's batch shape, and the
  // packed GEMM at a trainer-sized product.
  Rng rng(StreamSeed(config.seed, "micro"));
  core::HashingNetworkOptions net_options = config.network;
  net_options.bits = config.bits;
  core::HashingNetwork net(in.world->pixel_dim(), net_options, &rng);
  const linalg::Matrix x =
      linalg::Matrix::RandomNormal(config.batch_size, in.world->pixel_dim(), &rng);
  const linalg::Matrix dz =
      linalg::Matrix::RandomNormal(config.batch_size, config.bits, &rng);
  report->Layer("nn.step_ms", 1e3 * MedianSeconds(31, [&] {
                                net.Forward(x);
                                net.Backward(dz);
                              }));
  const linalg::Matrix a = linalg::Matrix::RandomNormal(128, 256, &rng);
  const linalg::Matrix b = linalg::Matrix::RandomNormal(256, 512, &rng);
  const double gemm_s = MedianSeconds(31, [&] { linalg::MatMul(a, b); });
  report->Layer("linalg.gemm_gflops", 2.0 * 128 * 256 * 512 / gemm_s / 1e9);
}

}  // namespace

void RunBuildWorkload(const RunConfig& config, Report* report) {
  const Inputs in = MakeInputs(config.seed);
  core::UhscmConfig train_config = core::DefaultConfigFor("cifar", kBits);
  train_config.max_epochs = kEpochs;
  train_config.seed = StreamSeed(config.seed, "trainer");
  const std::string path = SnapshotPath(config);

  // The first build's codes are the ones served below and scored for
  // quality; the timed builds repeat it, one per round.
  Build first;
  TimedBuild(in, train_config, path, &first);
  report->Attempt(1);
  eval::RetrievalEvalOptions eval_options;
  eval_options.map_at = 1000;
  eval_options.topn_points = {};
  const double map =
      eval::EvaluateRetrieval(in.dataset, first.db_codes, first.query_codes,
                              eval_options)
          .map;
  report->Attempt(1);
  if (map < kMinMap) report->Fail(1, "mAP@1000 below 0.95");

  Build build;
  ServingSpec spec;
  // Making the inputs is single-threaded, so one rep makes them once on
  // every CPU and counts the mean. Inputs are released after the timing.
  spec.setup = [&] {
    std::vector<Inputs> made;
    const Timing gen =
        TimeOnEachCpu([&] { made.push_back(MakeInputs(config.seed)); });
    return std::map<std::string, Timing>{{"data.gen_s", gen}};
  };
  // The build's spans are the stage stopwatches in RunBuild, present in
  // every build; a traced build runs the same code as an untraced one
  // and differs only in being attributed per layer afterwards.
  spec.job = [&](bool traced) {
    const Timing rep = TimedBuild(in, train_config, path, &build);
    report->Attempt(1);
    if (traced) {
      ReportTrainLayers(in, train_config, build, report);
      // The share of this rep's CPU time that no stage accounts for.
      report->Layer("residual_frac", 1.0 - Total(build) / rep.cpu_s);
    }
    return rep;
  };
  // Serve what was built: near-duplicates of the query split (one or two
  // bits flipped, so the result cache does not answer them) against the
  // freshly built database.
  ServingStack stack(first.snapshot, 0.0);
  const Oracle oracle(first.snapshot.codes, {});
  const index::PackedCodes query_codes =
      index::PackedCodes::FromSignMatrix(first.query_codes);
  spec.bulk_queries = query_codes.size();
  spec.window_seconds = 0.1;
  spec.fixed_rate = 3000.0;
  RunServing(config, spec, &stack,
             PerturbedStream(query_codes, 2, StreamSeed(config.seed, "queries")),
             &oracle, report);
  if (!config.trace) {
    report->E2e("map", map);
    report->Diag("core.epochs", build.epochs);
  }
}

}  // namespace uhscm::ledger
