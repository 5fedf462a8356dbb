// uhscm_cli — command-line front end over the library: train a model on
// a synthetic corpus, persist the artifacts, inspect them, and serve
// retrieval queries — the minimal ops loop of a deployment.
//
// Subcommands:
//   train  --dataset=cifar|nuswide|flickr --bits=K --seed=N --scale=F
//          --model=PATH --codes=PATH
//       Builds the synthetic corpus, trains UHSCM, writes the hashing
//       network and the packed database codes. An unknown --dataset, a
//       --bits that is not an integer >= 1, a --seed that is not an
//       integer >= 0, or a --scale that is not a finite number > 0 or
//       that leaves any split of the corpus with fewer than 2 rows is a
//       usage error for every subcommand. So is any numeric flag below
//       that is not a whole decimal number inside its range.
//   info   --file=PATH
//       Prints what an artifact file contains.
//   eval   --dataset=... --bits=K --seed=N --scale=F --model=PATH
//       Regenerates the same corpus (same seed), reloads the model, and
//       reports MAP / P@10 under the paper's protocol.
//   query  --dataset=... --seed=N --scale=F --model=PATH --codes=PATH
//          [--topk=10] [--queries=5]
//       Reloads model + codes and prints top-k results for sample
//       queries with relevance flags.
//   dedup  --codes=PATH [--k=K] [--radius=R] [--link=radius|best]
//          [--threads=N] [--tile=N] [--json-out=PATH]
//       Offline corpus×corpus self-join over a packed-codes artifact
//       (v1 or v2 snapshot; tombstoned rows never join). --k=K reports
//       each row's K nearest neighbors (throughput, prune rate, mean
//       nearest distance); --radius=R groups rows into duplicate
//       clusters — transitive closure of pairs within R by default,
//       or only reciprocal best matches with --link=best. At least one
//       of --k / --radius is required. --tile overrides the
//       cache-sized scan block (0 = auto); a negative --k, --tile or
//       --threads is a usage error. --json-out writes the full report
//       (stats + group membership) as JSON.
//   serve  --codes=PATH [--model=PATH --dataset=... --seed=N --scale=F]
//          [--shards=N] [--threads=N] [--replicas=N] [--batch-max=B]
//          [--batch-timeout-us=T] [--route=rr|least] [--topk=K]
//          [--queries=N]
//          [--append=PATH] [--delete-ids=1,5,10-20] [--compact]
//          [--compact-threshold=F] [--save-snapshot=PATH]
//       Hydrates N QueryEngine replicas from the packed codes (legacy v1
//       artifact or v2 serving snapshot) behind the async request
//       pipeline — bounded admission queue, adaptive batcher (flush at B
//       queries or T microseconds, whichever first), load-aware router —
//       and replays a query stream through it twice (cold, then
//       cache-hot), printing QPS, latency percentiles, cache hit rate,
//       queue depth, flush reasons, and time-in-queue percentiles. The
//       query stream is loaded/encoded once and its packed buffer reused
//       across all passes. Queries are encoded from the synthetic query
//       split when --model is given, otherwise sampled from the database
//       codes themselves. Each shard is a linear scan. --shards,
//       --replicas, --batch-max and --batch-timeout-us below 1, or a
//       negative --threads (0 = auto), are usage errors. So is a
//       --batch-timeout-us, --report-interval-ms or --deadline-ms longer
//       than one day.
//
//       Admin ops run after the replay passes and fan out to every
//       replica: --append=PATH appends a packed-code artifact to the
//       live corpus (routed to the least-full shard), --delete-ids
//       tombstones global ids, and each bumps the corpus epoch — a third
//       replay pass then shows the epoch-keyed caches re-filling.
//       --compact reclaims tombstoned rows (shard rebuild + locator
//       remap, global ids unchanged) on every replica;
//       --compact-threshold=F turns on auto-compaction whenever a
//       shard's dead fraction reaches F. Hydration always compacts a
//       snapshot's dead rows, so a delete-heavy snapshot reloads
//       reclaimed either way.
//       --save-snapshot persists the mutated corpus as a versioned v2
//       snapshot (epoch + tombstones) that future serve runs reload with
//       identical ids and results.
//
// The corpus is synthetic and seed-determined, so "the same dataset" is
// reproducible from (dataset, seed, scale) alone — no data files needed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/table_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/trainer.h"
#include "data/concept_vocab.h"
#include "data/synthetic.h"
#include "data/world.h"
#include "eval/retrieval_eval.h"
#include "index/hamming_kernels.h"
#include "index/linear_scan.h"
#include "index/self_join.h"
#include "io/serialize.h"
#include "serve/batcher.h"
#include "serve/replica_set.h"
#include "serve/request_queue.h"
#include "serve/router.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"
#include "vlp/simulated_vlp.h"

namespace uhscm::cli {
namespace {

struct Flags {
  std::string dataset = "cifar";
  int bits = 64;
  uint64_t seed = 2023;
  double scale = 1.0;
  std::string model;
  std::string codes;
  std::string file;
  int topk = 10;
  int queries = 5;
  // Dedup (all-pairs self-join over a packed-codes artifact).
  int join_k = 0;      // 0 = no top-k join
  int radius = -1;     // < 0 = no radius join / dedup grouping
  std::string link = "radius";  // "radius" | "best" (reciprocal best match)
  int tile = 0;        // 0 = auto (cache-sized, PickCodeBlockSize)
  std::string json_out;
  int shards = 4;
  int threads = 0;  // 0 = hardware concurrency (divided across replicas)
  int replicas = 1;
  int batch_max = 32;
  int64_t batch_timeout_us = 200;
  std::string route = "least";
  std::string append_file;
  std::string delete_ids;
  std::string save_snapshot;
  double compact_threshold = 0.0;  // 0 = auto-compaction off
  bool compact = false;
  // Observability (serve): metrics JSON dump path (periodic + on-exit),
  // Chrome trace output, 1-in-N request sampling, periodic one-line
  // stats report, and the slow-query log threshold.
  std::string metrics_json;
  std::string trace_out;
  int trace_sample = 0;  // 0 = tracing off; N traces 1 in N requests
  int64_t report_interval_ms = 0;  // 0 = no periodic report
  double slow_query_ms = 0.0;      // 0 = no slow-query log
  // Tail control (serve): per-request deadline.
  double deadline_ms = 0.0;  // 0 = no deadline
};

int Usage() {
  std::fprintf(stderr,
               "usage: uhscm_cli <train|info|eval|query|dedup|serve> "
               "[--dataset=...] [--bits=K] [--seed=N] [--scale=F] "
               "[--model=PATH] [--codes=PATH] [--file=PATH] [--topk=K] "
               "[--k=K] [--radius=R] [--link=radius|best] [--tile=N] "
               "[--json-out=PATH] "
               "[--queries=N] [--shards=N] [--threads=N] [--replicas=N] "
               "[--batch-max=B] [--batch-timeout-us=T] [--route=rr|least] "
               "[--append=PATH] "
               "[--delete-ids=1,5,10-20] [--compact] "
               "[--compact-threshold=F] [--save-snapshot=PATH] "
               "[--metrics-json=PATH] [--trace-out=PATH] "
               "[--trace-sample=1/N] [--report-interval-ms=N] "
               "[--slow-query-ms=F] [--deadline-ms=F]\n");
  return 2;
}

/// Parses "1,5,10-20" into the listed ids (ranges inclusive). Returns
/// false on malformed input — including empty range endpoints, so a
/// typo like "-5" is rejected instead of silently expanding to 0-5.
bool ParseIdList(const std::string& spec, std::vector<int>* ids) {
  // Sanity cap: a delete list bigger than this is a malformed range, not
  // an admin op.
  constexpr long kMaxIds = 1L << 24;
  // Parses one non-negative id that must also survive the int cast —
  // an overflowing value must be rejected, not wrapped onto some other
  // row's id.
  auto parse_id = [](const std::string& text, long* out) {
    if (text.empty()) return false;
    char* end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (*end != '\0' || value < 0 ||
        value > static_cast<long>(std::numeric_limits<int>::max())) {
      return false;
    }
    *out = value;
    return true;
  };
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    if (item.empty()) return false;
    const size_t dash = item.find('-');
    if (dash == std::string::npos) {
      long id = 0;
      if (!parse_id(item, &id)) return false;
      ids->push_back(static_cast<int>(id));
    } else {
      long lo = 0, hi = 0;
      if (!parse_id(item.substr(0, dash), &lo) ||
          !parse_id(item.substr(dash + 1), &hi) || hi < lo) {
        return false;
      }
      if (hi - lo + 1 > kMaxIds - static_cast<long>(ids->size())) {
        return false;
      }
      for (long id = lo; id <= hi; ++id) ids->push_back(static_cast<int>(id));
    }
    if (static_cast<long>(ids->size()) > kMaxIds) return false;
    pos = comma + 1;
  }
  return !ids->empty();
}

/// Parses all of `text` as a number in [lo, hi]: base-10 for an integral
/// T, a finite decimal for a floating T. Leading whitespace, trailing
/// characters, overflow and out-of-range values print why and return
/// false instead of reading as some other number (atoi's 0, or "-1"
/// wrapping to 2^64 - 1).
template <typename T>
bool ParseNumber(const char* flag, const char* text, T lo, T hi, T* out) {
  char* end = nullptr;
  errno = 0;
  bool ok = text[0] != '\0' &&
            !std::isspace(static_cast<unsigned char>(text[0]));
  T value{};
  if constexpr (std::is_integral_v<T>) {
    const long long v = std::strtoll(text, &end, 10);
    ok = ok && errno == 0 && v >= lo && v <= hi;
    value = static_cast<T>(v);
  } else {
    value = std::strtod(text, &end);
    ok = ok && std::isfinite(value) && value >= lo && value <= hi;
  }
  if (!ok || *end != '\0') {
    auto show = [](T v) {
      if constexpr (std::is_integral_v<T>) {
        return std::to_string(v);
      } else {
        return StrFormat("%g", v);
      }
    };
    std::fprintf(stderr, "%s must be %s in [%s, %s], got %s\n", flag,
                 std::is_integral_v<T> ? "an integer" : "a number",
                 show(lo).c_str(), show(hi).c_str(), text);
    return false;
  }
  *out = value;
  return true;
}

/// The corpus MakeEnv builds for (dataset, scale).
data::SyntheticOptions CorpusOptions(const Flags& flags) {
  data::SyntheticOptions options = data::DefaultOptionsFor(flags.dataset);
  options.sizes.database =
      static_cast<int>(options.sizes.database * 0.25 * flags.scale);
  options.sizes.train =
      static_cast<int>(options.sizes.train * 0.4 * flags.scale);
  options.sizes.query =
      static_cast<int>(options.sizes.query * 0.3 * flags.scale);
  return options;
}

/// Upper bound of the serve time flags (--batch-timeout-us,
/// --report-interval-ms, --deadline-ms): one day.
/// steady_clock::now() plus any of them stays far inside the clock's
/// int64 nanosecond range, where an unbounded value would overflow it.
constexpr int64_t kMaxWaitMs = int64_t{24} * 60 * 60 * 1000;

bool ParseFlags(int argc, char** argv, Flags* flags) {
  // A numeric value outside its range is a typo, not a request for the
  // default or for "off": --k=-5 must not silently drop the top-k join,
  // and --shards=0 must not silently serve from one shard.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMaxWaitUs = kMaxWaitMs * 1000;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--dataset=")) {
      flags->dataset = arg.substr(10);
      if (flags->dataset != "cifar" && flags->dataset != "nuswide" &&
          flags->dataset != "flickr") {
        std::fprintf(stderr,
                     "--dataset must be cifar, nuswide or flickr, got %s\n",
                     flags->dataset.c_str());
        return false;
      }
    } else if (StartsWith(arg, "--bits=")) {
      char* end = nullptr;
      const long bits = std::strtol(arg.c_str() + 7, &end, 10);
      if (end == arg.c_str() + 7 || *end != '\0' || bits < 1 ||
          bits > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "--bits must be an integer >= 1, got %s\n",
                     arg.c_str() + 7);
        return false;
      }
      flags->bits = static_cast<int>(bits);
    } else if (StartsWith(arg, "--seed=")) {
      int64_t seed = 0;
      if (!ParseNumber("--seed", arg.c_str() + 7, int64_t{0}, kInt64Max,
                       &seed)) {
        return false;
      }
      flags->seed = static_cast<uint64_t>(seed);
    } else if (StartsWith(arg, "--scale=")) {
      char* end = nullptr;
      flags->scale = std::strtod(arg.c_str() + 8, &end);
      if (end == arg.c_str() + 8 || *end != '\0' ||
          !std::isfinite(flags->scale) || flags->scale <= 0.0) {
        std::fprintf(stderr, "--scale must be a finite number > 0, got %s\n",
                     arg.c_str() + 8);
        return false;
      }
    } else if (StartsWith(arg, "--model=")) {
      flags->model = arg.substr(8);
    } else if (StartsWith(arg, "--codes=")) {
      flags->codes = arg.substr(8);
    } else if (StartsWith(arg, "--file=")) {
      flags->file = arg.substr(7);
    } else if (StartsWith(arg, "--topk=")) {
      if (!ParseNumber("--topk", arg.c_str() + 7, 1, kIntMax,
                       &flags->topk)) {
        return false;
      }
    } else if (StartsWith(arg, "--k=")) {
      if (!ParseNumber("--k", arg.c_str() + 4, 0, kIntMax,
                       &flags->join_k)) {
        return false;
      }
    } else if (StartsWith(arg, "--radius=")) {
      if (!ParseNumber("--radius", arg.c_str() + 9, 0, kIntMax,
                       &flags->radius)) {
        return false;
      }
    } else if (StartsWith(arg, "--link=")) {
      flags->link = arg.substr(7);
      if (flags->link != "radius" && flags->link != "best") {
        std::fprintf(stderr, "--link must be radius or best, got %s\n",
                     flags->link.c_str());
        return false;
      }
    } else if (StartsWith(arg, "--tile=")) {
      if (!ParseNumber("--tile", arg.c_str() + 7, 0, kIntMax,
                       &flags->tile)) {
        return false;
      }
    } else if (StartsWith(arg, "--json-out=")) {
      flags->json_out = arg.substr(11);
    } else if (StartsWith(arg, "--queries=")) {
      if (!ParseNumber("--queries", arg.c_str() + 10, 1, kIntMax,
                       &flags->queries)) {
        return false;
      }
    } else if (StartsWith(arg, "--shards=")) {
      if (!ParseNumber("--shards", arg.c_str() + 9, 1, kIntMax,
                       &flags->shards)) {
        return false;
      }
    } else if (StartsWith(arg, "--threads=")) {
      if (!ParseNumber("--threads", arg.c_str() + 10, 0, kIntMax,
                       &flags->threads)) {
        return false;
      }
    } else if (StartsWith(arg, "--replicas=")) {
      if (!ParseNumber("--replicas", arg.c_str() + 11, 1, kIntMax,
                       &flags->replicas)) {
        return false;
      }
    } else if (StartsWith(arg, "--batch-max=")) {
      if (!ParseNumber("--batch-max", arg.c_str() + 12, 1, kIntMax,
                       &flags->batch_max)) {
        return false;
      }
    } else if (StartsWith(arg, "--batch-timeout-us=")) {
      if (!ParseNumber("--batch-timeout-us", arg.c_str() + 19, int64_t{1},
                       kMaxWaitUs, &flags->batch_timeout_us)) {
        return false;
      }
    } else if (StartsWith(arg, "--route=")) {
      flags->route = arg.substr(8);
    } else if (StartsWith(arg, "--append=")) {
      flags->append_file = arg.substr(9);
    } else if (StartsWith(arg, "--delete-ids=")) {
      flags->delete_ids = arg.substr(13);
    } else if (StartsWith(arg, "--save-snapshot=")) {
      flags->save_snapshot = arg.substr(16);
    } else if (StartsWith(arg, "--compact-threshold=")) {
      // A dead *fraction* in [0, 1] — "30" meaning 30% would silently
      // never fire, so anything malformed or out of range is an error,
      // not a disabled feature.
      char* end = nullptr;
      flags->compact_threshold = std::strtod(arg.c_str() + 20, &end);
      if (end == arg.c_str() + 20 || *end != '\0' ||
          !std::isfinite(flags->compact_threshold) ||
          flags->compact_threshold < 0.0 || flags->compact_threshold > 1.0) {
        std::fprintf(stderr,
                     "--compact-threshold must be a dead fraction in "
                     "[0, 1], got %s\n",
                     arg.c_str() + 20);
        return false;
      }
    } else if (arg == "--compact") {
      flags->compact = true;
    } else if (StartsWith(arg, "--metrics-json=")) {
      flags->metrics_json = arg.substr(15);
    } else if (StartsWith(arg, "--trace-out=")) {
      flags->trace_out = arg.substr(12);
    } else if (StartsWith(arg, "--trace-sample=")) {
      // Accepts "1/N" (the documented form) or bare "N".
      const char* value = arg.c_str() + 15;
      if (value[0] == '1' && value[1] == '/') value += 2;
      if (!ParseNumber("--trace-sample", value, 0, kIntMax,
                       &flags->trace_sample)) {
        return false;
      }
    } else if (StartsWith(arg, "--report-interval-ms=")) {
      if (!ParseNumber("--report-interval-ms", arg.c_str() + 21,
                       int64_t{0}, kMaxWaitMs, &flags->report_interval_ms)) {
        return false;
      }
    } else if (StartsWith(arg, "--slow-query-ms=")) {
      if (!ParseNumber("--slow-query-ms", arg.c_str() + 16, 0.0, HUGE_VAL,
                       &flags->slow_query_ms)) {
        return false;
      }
    } else if (StartsWith(arg, "--deadline-ms=")) {
      if (!ParseNumber("--deadline-ms", arg.c_str() + 14, 0.0,
                       static_cast<double>(kMaxWaitMs), &flags->deadline_ms)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  // A scale that empties a split would only fail later, inside training
  // or evaluation.
  const data::SyntheticOptions corpus = CorpusOptions(*flags);
  const int smallest =
      std::min({corpus.sizes.database, corpus.sizes.query,
                data::TrainSplitRows(flags->dataset, corpus)});
  if (smallest < 2) {
    std::fprintf(stderr,
                 "--scale=%g leaves a %s split with %d rows; every split "
                 "needs at least 2\n",
                 flags->scale, flags->dataset.c_str(), smallest);
    return false;
  }
  return true;
}

/// The synthetic environment a (dataset, seed, scale) triple determines.
struct Env {
  std::unique_ptr<data::SemanticWorld> world;
  data::Dataset dataset;
  data::ConceptVocab vocab;
  std::unique_ptr<vlp::SimulatedVlpModel> vlp;
};

Env MakeEnv(const Flags& flags) {
  Env env;
  env.world = std::make_unique<data::SemanticWorld>(flags.seed);
  Rng rng(flags.seed + 17);
  env.dataset = data::MakeDatasetByName(flags.dataset, env.world.get(),
                                        CorpusOptions(flags), &rng);
  env.vocab = data::MakeNusVocab(env.world.get());
  env.vlp = std::make_unique<vlp::SimulatedVlpModel>(env.world.get());
  return env;
}

int CmdTrain(const Flags& flags) {
  if (flags.model.empty()) {
    std::fprintf(stderr, "train: --model=PATH is required\n");
    return 2;
  }
  Env env = MakeEnv(flags);
  std::printf("corpus: %s database=%zu train=%zu query=%zu\n",
              env.dataset.name.c_str(), env.dataset.split.database.size(),
              env.dataset.split.train.size(), env.dataset.split.query.size());

  core::UhscmConfig config = core::DefaultConfigFor(flags.dataset, flags.bits);
  config.seed = flags.seed;
  core::UhscmTrainer trainer(env.vlp.get(), config);
  Result<core::UhscmModel> model = trainer.Train(
      env.dataset.pixels.SelectRows(env.dataset.split.train), env.vocab);
  if (!model.ok()) {
    std::fprintf(stderr, "train failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("trained: %zu retained concepts, final loss %.4f\n",
              model->retained_concepts.size(), model->epoch_losses.back());

  Status st = io::SaveHashingNetwork(*model->network, flags.model);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote model -> %s\n", flags.model.c_str());

  if (!flags.codes.empty()) {
    const linalg::Matrix db_codes = model->Encode(
        env.dataset.pixels.SelectRows(env.dataset.split.database));
    st = io::SavePackedCodes(index::PackedCodes::FromSignMatrix(db_codes),
                             flags.codes);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %d database codes -> %s\n", db_codes.rows(),
                flags.codes.c_str());
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  if (flags.file.empty()) {
    std::fprintf(stderr, "info: --file=PATH is required\n");
    return 2;
  }
  if (Result<std::unique_ptr<core::HashingNetwork>> net =
          io::LoadHashingNetwork(flags.file);
      net.ok()) {
    std::printf("%s: hashing network, input_dim=%d hidden=%d/%d bits=%d\n",
                flags.file.c_str(), (*net)->input_dim(),
                (*net)->options().hidden1, (*net)->options().hidden2,
                (*net)->bits());
    return 0;
  }
  if (Result<io::CodesSnapshot> snap = io::LoadCodesSnapshot(flags.file);
      snap.ok()) {
    if (snap->version >= 2) {
      std::printf(
          "%s: serving snapshot v2, n=%d (%d live), bits=%d, epoch=%llu\n",
          flags.file.c_str(), snap->codes.size(), snap->LiveCount(),
          snap->codes.bits(),
          static_cast<unsigned long long>(snap->epoch));
    } else {
      std::printf("%s: packed codes, n=%d bits=%d (%d words/code)\n",
                  flags.file.c_str(), snap->codes.size(), snap->codes.bits(),
                  snap->codes.words_per_code());
    }
    return 0;
  }
  if (Result<linalg::Matrix> m = io::LoadMatrix(flags.file); m.ok()) {
    std::printf("%s: matrix, %dx%d\n", flags.file.c_str(), m->rows(),
                m->cols());
    return 0;
  }
  std::fprintf(stderr, "%s: not a recognized uhscm artifact\n",
               flags.file.c_str());
  return 1;
}

int CmdEval(const Flags& flags) {
  if (flags.model.empty()) {
    std::fprintf(stderr, "eval: --model=PATH is required\n");
    return 2;
  }
  Result<std::unique_ptr<core::HashingNetwork>> net =
      io::LoadHashingNetwork(flags.model);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  Env env = MakeEnv(flags);
  const linalg::Matrix db_codes = (*net)->EncodeBinary(
      env.dataset.pixels.SelectRows(env.dataset.split.database));
  const linalg::Matrix query_codes = (*net)->EncodeBinary(
      env.dataset.pixels.SelectRows(env.dataset.split.query));
  eval::RetrievalEvalOptions options;
  options.map_at = 5000;
  options.topn_points = {10};
  const eval::RetrievalEvalResult result =
      eval::EvaluateRetrieval(env.dataset, db_codes, query_codes, options);
  std::printf("%s @ %d bits: MAP=%.4f P@10=%.4f (%zu queries)\n",
              flags.dataset.c_str(), (*net)->bits(), result.map,
              result.precision_at_n[0], env.dataset.split.query.size());
  return 0;
}

int CmdQuery(const Flags& flags) {
  if (flags.model.empty() || flags.codes.empty()) {
    std::fprintf(stderr, "query: --model= and --codes= are required\n");
    return 2;
  }
  Result<std::unique_ptr<core::HashingNetwork>> net =
      io::LoadHashingNetwork(flags.model);
  Result<index::PackedCodes> codes = io::LoadPackedCodes(flags.codes);
  if (!net.ok() || !codes.ok()) {
    std::fprintf(stderr, "failed to reload artifacts\n");
    return 1;
  }
  Env env = MakeEnv(flags);
  if (codes->size() != static_cast<int>(env.dataset.split.database.size())) {
    std::fprintf(stderr,
                 "code count (%d) does not match the corpus database (%zu) "
                 "— wrong --seed/--scale/--dataset?\n",
                 codes->size(), env.dataset.split.database.size());
    return 1;
  }
  index::LinearScanIndex scan(std::move(codes.ValueOrDie()));
  const linalg::Matrix query_codes = (*net)->EncodeBinary(
      env.dataset.pixels.SelectRows(env.dataset.split.query));
  const index::PackedCodes packed =
      index::PackedCodes::FromSignMatrix(query_codes);

  const int shown = std::min(flags.queries, packed.size());
  for (int q = 0; q < shown; ++q) {
    const int query_image = env.dataset.split.query[static_cast<size_t>(q)];
    std::printf("query %d:", q);
    for (const index::Neighbor& nb : scan.TopK(packed.code(q), flags.topk)) {
      const int db_image =
          env.dataset.split.database[static_cast<size_t>(nb.id)];
      std::printf(" %c%d(d=%d)",
                  env.dataset.Relevant(query_image, db_image) ? '+' : '-',
                  nb.id, nb.distance);
    }
    std::printf("\n");
  }
  return 0;
}

/// dedup: offline all-pairs analytics over a packed-codes artifact via
/// the tiled self-join engine — k nearest neighbors for every row
/// (--k), duplicate clusters within a Hamming radius (--radius), or
/// both. Tombstones in a v2 snapshot are honored: dead rows never join.
int CmdDedup(const Flags& flags) {
  if (flags.codes.empty()) {
    std::fprintf(stderr, "dedup: --codes=PATH is required\n");
    return 2;
  }
  if (flags.join_k <= 0 && flags.radius < 0) {
    std::fprintf(stderr,
                 "dedup: at least one of --k=K (top-k join) or --radius=R "
                 "(duplicate grouping) is required\n");
    return 2;
  }
  Result<io::CodesSnapshot> snap = io::LoadCodesSnapshot(flags.codes);
  if (!snap.ok()) {
    std::fprintf(stderr, "%s\n", snap.status().ToString().c_str());
    return 1;
  }
  const index::PackedCodes& codes = snap->codes;
  index::TombstoneSet dead;
  if (snap->HasTombstones()) {
    dead = index::TombstoneSet::FromWords(codes.size(),
                                          snap->tombstone_words);
  }
  index::SelfJoinOptions options;
  options.threads = flags.threads;
  options.tile = flags.tile;
  options.tombstones = dead.any() ? &dead : nullptr;
  const int live = codes.size() - dead.dead_count();
  std::printf("%s: n=%d (%d live), bits=%d | kernel tier %s\n",
              flags.codes.c_str(), codes.size(), live, codes.bits(),
              index::KernelTierName(index::ActiveKernelTier()));

  index::SelfJoinStats topk_stats;
  std::vector<std::vector<index::Neighbor>> neighbors;
  double mean_nn = 0.0;
  if (flags.join_k > 0) {
    neighbors = index::TopKJoin(codes, flags.join_k, options, &topk_stats);
    int64_t nn_sum = 0, nn_rows = 0;
    for (const auto& row : neighbors) {
      if (!row.empty()) {
        nn_sum += row.front().distance;
        ++nn_rows;
      }
    }
    mean_nn = nn_rows > 0 ? static_cast<double>(nn_sum) / nn_rows : 0.0;
    std::printf(
        "top-%d join: %.2fs, %.1f Mpairs/s (%.1f%% pruned), mean nearest "
        "distance %.2f\n",
        flags.join_k, topk_stats.seconds,
        topk_stats.pairs_total / topk_stats.seconds / 1e6,
        topk_stats.pairs_total > 0
            ? 100.0 * topk_stats.pairs_pruned / topk_stats.pairs_total
            : 0.0,
        mean_nn);
  }

  index::DedupGroupsResult groups;
  if (flags.radius >= 0) {
    index::DedupOptions dedup;
    dedup.radius = flags.radius;
    dedup.link = flags.link == "best" ? index::DedupLink::kReciprocalBest
                                      : index::DedupLink::kRadius;
    groups = index::DedupGroups(codes, dedup, options);
    std::printf(
        "dedup radius=%d link=%s: %.2fs, %zu groups, %lld rows clustered "
        "(%zu reciprocal best pairs)\n",
        flags.radius, flags.link.c_str(), groups.join.seconds,
        groups.groups.size(),
        static_cast<long long>(groups.rows_clustered),
        groups.reciprocal_pairs.size());
    const size_t show = std::min<size_t>(groups.groups.size(), 10);
    for (size_t g = 0; g < show; ++g) {
      std::printf("  group %zu (%zu rows):", g, groups.groups[g].size());
      const size_t members = std::min<size_t>(groups.groups[g].size(), 8);
      for (size_t m = 0; m < members; ++m) {
        std::printf(" %d", groups.groups[g][m]);
      }
      if (members < groups.groups[g].size()) std::printf(" ...");
      std::printf("\n");
    }
    if (show < groups.groups.size()) {
      std::printf("  ... %zu more groups\n", groups.groups.size() - show);
    }
  }

  if (!flags.json_out.empty()) {
    std::FILE* f = std::fopen(flags.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "dedup: cannot write %s\n",
                   flags.json_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"command\": \"dedup\",\n");
    std::fprintf(f,
                 "  \"codes\": \"%s\", \"n\": %d, \"live\": %d, "
                 "\"bits\": %d,\n",
                 flags.codes.c_str(), codes.size(), live, codes.bits());
    std::fprintf(f, "  \"kernel_tier\": \"%s\",\n",
                 index::KernelTierName(index::ActiveKernelTier()));
    if (flags.join_k > 0) {
      std::fprintf(f,
                   "  \"topk\": {\"k\": %d, \"seconds\": %.6f, "
                   "\"pairs_total\": %lld, \"pairs_pruned\": %lld, "
                   "\"pairs_scored\": %lld, \"mean_nn_distance\": %.3f},\n",
                   flags.join_k, topk_stats.seconds,
                   static_cast<long long>(topk_stats.pairs_total),
                   static_cast<long long>(topk_stats.pairs_pruned),
                   static_cast<long long>(topk_stats.pairs_scored), mean_nn);
    }
    if (flags.radius >= 0) {
      std::fprintf(f,
                   "  \"dedup\": {\"radius\": %d, \"link\": \"%s\", "
                   "\"seconds\": %.6f, \"groups\": %zu, "
                   "\"rows_clustered\": %lld, \"reciprocal_pairs\": %zu},\n",
                   flags.radius, flags.link.c_str(), groups.join.seconds,
                   groups.groups.size(),
                   static_cast<long long>(groups.rows_clustered),
                   groups.reciprocal_pairs.size());
      // Group lists capped so a pathological radius cannot produce a
      // multi-GB report; the counts above are always complete.
      constexpr size_t kMaxJsonGroups = 1000;
      const size_t emit = std::min(groups.groups.size(), kMaxJsonGroups);
      std::fprintf(f, "  \"groups_truncated\": %s,\n  \"groups\": [",
                   emit < groups.groups.size() ? "true" : "false");
      for (size_t g = 0; g < emit; ++g) {
        std::fprintf(f, "%s[", g == 0 ? "" : ", ");
        for (size_t m = 0; m < groups.groups[g].size(); ++m) {
          std::fprintf(f, "%s%d", m == 0 ? "" : ", ", groups.groups[g][m]);
        }
        std::fprintf(f, "]");
      }
      std::fprintf(f, "],\n");
    }
    std::fprintf(f, "  \"ok\": true\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", flags.json_out.c_str());
  }
  return 0;
}

int CmdServe(const Flags& flags) {
  if (flags.codes.empty()) {
    std::fprintf(stderr, "serve: --codes=PATH is required\n");
    return 2;
  }
  serve::RoutePolicy route_policy;
  if (!serve::ParseRoutePolicy(flags.route, &route_policy)) {
    std::fprintf(stderr, "serve: --route must be rr or least\n");
    return 2;
  }

  serve::ReplicaSetOptions options;
  options.replicas = flags.replicas;
  options.serving.index.num_shards = flags.shards;
  options.serving.engine.num_threads = flags.threads;
  options.serving.engine.compact_dead_fraction = flags.compact_threshold;
  // One disk read handles both the legacy v1 codes artifact and the v2
  // serving snapshot; the loaded snapshot doubles as the query-sampling
  // source before the engine takes ownership of it.
  Result<io::CodesSnapshot> loaded = io::LoadCodesSnapshot(flags.codes);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  io::CodesSnapshot snapshot = std::move(loaded).ValueOrDie();

  // Build the query stream *once*: real encoded queries when a model is
  // given, otherwise surviving database codes replayed against
  // themselves. Every replay pass below submits straight out of this one
  // packed buffer — the stream is never re-read or re-encoded per pass.
  // Either way `--queries` caps the stream.
  const int max_queries = std::max(1, flags.queries);
  index::PackedCodes queries;
  if (!flags.model.empty()) {
    Result<std::unique_ptr<core::HashingNetwork>> net =
        io::LoadHashingNetwork(flags.model);
    if (!net.ok()) {
      std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
      return 1;
    }
    if ((*net)->bits() != snapshot.codes.bits()) {
      std::fprintf(stderr,
                   "serve: model emits %d-bit codes but %s holds %d-bit "
                   "codes — wrong --model/--codes pairing?\n",
                   (*net)->bits(), flags.codes.c_str(),
                   snapshot.codes.bits());
      return 1;
    }
    Env env = MakeEnv(flags);
    std::vector<int> query_rows = env.dataset.split.query;
    if (static_cast<int>(query_rows.size()) > max_queries) {
      query_rows.resize(static_cast<size_t>(max_queries));
    }
    queries = index::PackedCodes::FromSignMatrix(
        (*net)->EncodeBinary(env.dataset.pixels.SelectRows(query_rows)));
  } else {
    // First live rows of the snapshot (a v1 artifact has no tombstone
    // bitmap — every row is live).
    const int words_per_code = snapshot.codes.words_per_code();
    const int count = std::min(max_queries, snapshot.LiveCount());
    std::vector<uint64_t> words;
    words.reserve(static_cast<size_t>(count) * words_per_code);
    int taken = 0;
    for (int gid = 0; gid < snapshot.codes.size() && taken < count; ++gid) {
      if (snapshot.IsDead(gid)) continue;
      const uint64_t* src = snapshot.codes.code(gid);
      words.insert(words.end(), src, src + words_per_code);
      ++taken;
    }
    queries = index::PackedCodes::FromRawWords(
        taken, snapshot.codes.bits(), std::move(words));
  }

  // The async pipeline: N identically-hydrated replicas behind a
  // load-aware router, fed by the adaptive batcher. All query traffic
  // goes through Batcher::Submit — nothing calls Search directly.
  serve::ReplicaSet replicas(snapshot, options);
  // Each replica holds its own corpus copy now; drop the loaded
  // snapshot's buffers so the run holds N copies, not N+1.
  snapshot = io::CodesSnapshot();
  serve::Router router(&replicas, route_policy);
  serve::BatcherOptions batcher_options;
  batcher_options.max_batch = flags.batch_max;
  batcher_options.timeout_us = flags.batch_timeout_us;
  serve::Batcher batcher(&router, batcher_options);

  // Tracing: arm the sampler before any request is admitted. Asking for
  // a trace file without a rate means "trace everything".
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (flags.trace_sample > 0 || !flags.trace_out.empty()) {
    recorder.SetSampleEvery(
        flags.trace_sample > 0 ? static_cast<uint32_t>(flags.trace_sample)
                               : 1);
  }

  // Publishes a snapshot's counters into the registry and, when
  // --metrics-json is set, writes the registry there — the same payload
  // the unified dump prints at exit.
  auto export_metrics = [&](const serve::ServeStatsSnapshot& snap) {
    serve::FillRegistry(snap, &registry);
    if (flags.metrics_json.empty()) return;
    if (std::FILE* f = std::fopen(flags.metrics_json.c_str(), "w")) {
      const std::string json = registry.DumpJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "serve: cannot write --metrics-json=%s\n",
                   flags.metrics_json.c_str());
    }
  };

  // Periodic one-line stats report (plus a metrics-json refresh) on a
  // timer thread; stopped before drain.
  std::mutex report_mu;
  std::condition_variable report_cv;
  bool report_stop = false;
  std::thread reporter;
  if (flags.report_interval_ms > 0) {
    reporter = std::thread([&] {
      std::unique_lock<std::mutex> lock(report_mu);
      while (!report_cv.wait_for(
          lock, std::chrono::milliseconds(flags.report_interval_ms),
          [&] { return report_stop; })) {
        const serve::ServeStatsSnapshot s = batcher.stats();
        std::printf(
            "[serve] qps=%.1f p50=%.3fms p99=%.3fms hit=%.2f depth=%lld "
            "epoch=%llu\n",
            s.qps(), s.latency_p50_ms, s.latency_p99_ms, s.hit_rate(),
            static_cast<long long>(s.queue_depth),
            static_cast<unsigned long long>(s.epoch));
        export_metrics(s);
      }
    });
  }

  const serve::QueryEngine& engine0 = *replicas.replica(0);
  // Record the dispatch decision in the registry so every --metrics-json
  // dump says which kernel tier served the run (0=scalar 1=avx2 2=avx512,
  // matching KernelTier's enumerators).
  const index::KernelTier active_tier = index::ActiveKernelTier();
  obs::MetricsRegistry::Global().GetGauge("kernel.tier")->Set(
      static_cast<int64_t>(active_tier));
  const char* tier_detail =
      active_tier == index::KernelTier::kAvx512
          ? (index::Avx512VpopcntAvailable() ? "+vpopcntdq" : "+harley-seal")
          : "";
  std::printf(
      "serving %d live / %d total codes @ %d bits: %d replicas x %d shards, "
      "%d threads each, %s routing, batch B=%d T=%lldus, %s%s kernel, "
      "epoch %llu\n",
      engine0.index().size(), engine0.index().total_size(),
      engine0.index().bits(), replicas.num_replicas(),
      engine0.index().num_shards(),
      engine0.num_threads(), serve::RoutePolicyName(route_policy),
      batcher.options().max_batch,
      static_cast<long long>(batcher.options().timeout_us),
      index::KernelTierName(active_tier), tier_detail,
      static_cast<unsigned long long>(replicas.epoch()));

  TableWriter table({"pass", "queries", "batches", "by_size", "by_timeout",
                     "hit_rate", "tiq_p50_ms", "tiq_p99_ms", "qps", "p50_ms",
                     "p99_ms"});
  // Per-pass stats are reset between passes; the batch-size histogram is
  // accumulated across all of them for the run-wide summary line.
  std::array<int64_t, serve::kBatchSizeBuckets> hist_total{};
  auto replay_pass = [&](const char* pass) -> bool {
    // Reset at the start (not the end) so the final pass's engine and
    // pipeline counters survive for the per-replica table below.
    batcher.ResetStats();
    std::vector<std::future<serve::SearchResponse>> futures;
    futures.reserve(static_cast<size_t>(queries.size()));
    for (int q = 0; q < queries.size(); ++q) {
      // Each request's deadline starts at its own submission — what a
      // per-request client SLA would look like.
      auto deadline = std::chrono::steady_clock::time_point::max();
      if (flags.deadline_ms > 0.0) {
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::nanoseconds(
                       static_cast<int64_t>(flags.deadline_ms * 1e6));
      }
      futures.push_back(batcher.Submit(queries, q, flags.topk, deadline));
    }
    for (std::future<serve::SearchResponse>& future : futures) {
      const serve::SearchResponse response = future.get();
      if (!response.status.ok()) {
        // Deadline misses are an expected outcome of running with an
        // SLA, reported in the counters; anything else fails the pass.
        if (response.status.code() == StatusCode::kDeadlineExceeded) {
          continue;
        }
        std::fprintf(stderr, "serve: pipeline request failed: %s\n",
                     response.status.ToString().c_str());
        return false;
      }
    }
    const serve::ServeStatsSnapshot stats = batcher.stats();
    char hit_rate[32], tiq50[32], tiq99[32], qps[32], p50[32], p99[32];
    std::snprintf(hit_rate, sizeof(hit_rate), "%.2f", stats.hit_rate());
    std::snprintf(tiq50, sizeof(tiq50), "%.3f", stats.time_in_queue_p50_ms);
    std::snprintf(tiq99, sizeof(tiq99), "%.3f", stats.time_in_queue_p99_ms);
    std::snprintf(qps, sizeof(qps), "%.1f", stats.qps());
    std::snprintf(p50, sizeof(p50), "%.3f", stats.latency_p50_ms);
    std::snprintf(p99, sizeof(p99), "%.3f", stats.latency_p99_ms);
    table.AddRow({pass, std::to_string(stats.queries),
                  std::to_string(stats.batches),
                  std::to_string(stats.batches_flushed_by_size),
                  std::to_string(stats.batches_flushed_by_timeout), hit_rate,
                  tiq50, tiq99, qps, p50, p99});
    for (int b = 0; b < serve::kBatchSizeBuckets; ++b) {
      hist_total[static_cast<size_t>(b)] +=
          stats.batch_size_hist[static_cast<size_t>(b)];
    }
    return true;
  };
  if (!replay_pass("cold") || !replay_pass("cache-hot")) return 1;

  // Admin ops: mutate the live corpus (fanned to every replica so
  // epochs stay coherent), then replay once more so the post-update pass
  // shows the epoch-keyed caches re-filling (the cache-hot entries above
  // are unreachable under the new epoch).
  bool updated = false;
  if (!flags.append_file.empty()) {
    Result<index::PackedCodes> extra = io::LoadPackedCodes(flags.append_file);
    if (!extra.ok()) {
      std::fprintf(stderr, "%s\n", extra.status().ToString().c_str());
      return 1;
    }
    if (extra->bits() != engine0.index().bits()) {
      std::fprintf(stderr,
                   "serve: --append file holds %d-bit codes, corpus is "
                   "%d-bit\n",
                   extra->bits(), engine0.index().bits());
      return 1;
    }
    const std::vector<int> ids = replicas.Append(*extra);
    std::printf("appended %zu codes (global ids %d..%d) to %d replicas, "
                "epoch -> %llu\n",
                ids.size(), ids.empty() ? 0 : ids.front(),
                ids.empty() ? 0 : ids.back(), replicas.num_replicas(),
                static_cast<unsigned long long>(replicas.epoch()));
    updated = true;
  }
  if (!flags.delete_ids.empty()) {
    std::vector<int> ids;
    if (!ParseIdList(flags.delete_ids, &ids)) {
      std::fprintf(stderr, "serve: malformed --delete-ids list\n");
      return 2;
    }
    const int removed = replicas.RemoveIds(ids);
    std::printf("removed %d/%zu ids, epoch -> %llu (%d live / %d total)\n",
                removed, ids.size(),
                static_cast<unsigned long long>(replicas.epoch()),
                engine0.index().size(), engine0.index().total_size());
    updated = true;
  }
  if (flags.compact) {
    // Manual admin compaction, fanned to every replica with coherence
    // checks. Runs after the deletes above so the reclaim covers them.
    const serve::CompactionStats stats = replicas.Compact();
    std::printf(
        "compacted %d shard(s), reclaimed %d dead row(s) per replica, "
        "epoch -> %llu (%d live / %d total ids)\n",
        stats.shards_compacted, stats.rows_reclaimed,
        static_cast<unsigned long long>(replicas.epoch()),
        engine0.index().size(), engine0.index().total_size());
    updated = updated || stats.rows_reclaimed > 0;
  }
  // Capture the admin ops' mutation/compaction counters before the
  // post-update pass resets them; the unified dump below folds them back
  // in so the run's compaction work is reported exactly once.
  const serve::ServeStatsSnapshot admin_snap = batcher.stats();
  if (updated && !replay_pass("post-update")) return 1;
  table.Print(std::cout);

  // One unified registry dump replaces the old hand-formatted
  // compaction / cache / pipeline blocks: the printed counters and the
  // --metrics-json export now come from the same registry, so they
  // cannot drift apart. (The admin-op counters were reset by the
  // post-update pass; take the max so they survive into the dump.)
  serve::ServeStatsSnapshot final_snap = batcher.stats();
  final_snap.appends = std::max(final_snap.appends, admin_snap.appends);
  final_snap.removes = std::max(final_snap.removes, admin_snap.removes);
  final_snap.compactions =
      std::max(final_snap.compactions, admin_snap.compactions);
  final_snap.compact_rows_reclaimed = std::max(
      final_snap.compact_rows_reclaimed, admin_snap.compact_rows_reclaimed);
  final_snap.compaction_ms =
      std::max(final_snap.compaction_ms, admin_snap.compaction_ms);
  for (int b = 0; b < serve::kBatchSizeBuckets; ++b) {
    registry
        .GetGauge("pipeline.batch_size_" +
                  serve::BatchSizeBucketLabel(b))
        ->Set(hist_total[static_cast<size_t>(b)]);
  }
  export_metrics(final_snap);
  std::printf("--- metrics ---\n%s", registry.DumpText().c_str());
  if (replicas.num_replicas() > 1) {
    // routed_batches counts the whole run; the engine columns cover the
    // final pass (per-pass resets scope the main table above).
    TableWriter replica_table(
        {"replica", "routed_batches", "queries", "hit_rate", "p99_ms"});
    const std::vector<serve::ServeStatsSnapshot> per_replica =
        replicas.PerReplicaStats();
    for (int r = 0; r < replicas.num_replicas(); ++r) {
      char hit_rate[32], p99[32];
      std::snprintf(hit_rate, sizeof(hit_rate), "%.2f",
                    per_replica[static_cast<size_t>(r)].hit_rate());
      std::snprintf(p99, sizeof(p99), "%.3f",
                    per_replica[static_cast<size_t>(r)].latency_p99_ms);
      replica_table.AddRow(
          {std::to_string(r), std::to_string(router.routed(r)),
           std::to_string(per_replica[static_cast<size_t>(r)].queries),
           hit_rate, p99});
    }
    replica_table.Print(std::cout);
  }

  if (!flags.save_snapshot.empty()) {
    // Replicas are update-coherent, so replica 0's corpus is the corpus.
    Status st = serve::SaveServingSnapshot(engine0, flags.save_snapshot);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote serving snapshot (v2, epoch %llu, %d live / %d "
                "total) -> %s\n",
                static_cast<unsigned long long>(replicas.epoch()),
                engine0.index().size(), engine0.index().total_size(),
                flags.save_snapshot.c_str());
  }
  // Orderly exit: stop the reporter, reject new work, resolve anything
  // still queued, wait for in-flight batches — then the replicas (and
  // their pools) tear down with nothing in flight.
  if (reporter.joinable()) {
    {
      std::lock_guard<std::mutex> lock(report_mu);
      report_stop = true;
    }
    report_cv.notify_all();
    reporter.join();
  }
  batcher.Drain();

  // Trace export + slow-query log after the drain so every span of the
  // run (including in-flight batches at shutdown) is in the ring.
  if (!flags.trace_out.empty()) {
    if (Status st = recorder.WriteChromeTrace(flags.trace_out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu trace span(s) -> %s\n", recorder.size(),
                flags.trace_out.c_str());
  }
  if (flags.slow_query_ms > 0.0) {
    const std::string log = recorder.SlowQueryLog(flags.slow_query_ms, 10);
    std::printf("--- slow queries (>= %.3f ms) ---\n%s",
                flags.slow_query_ms, log.empty() ? "(none)\n" : log.c_str());
  }
  // Final metrics refresh so the on-exit JSON includes shutdown counts.
  export_metrics(final_snap);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  if (command == "train") return CmdTrain(flags);
  if (command == "info") return CmdInfo(flags);
  if (command == "eval") return CmdEval(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "dedup") return CmdDedup(flags);
  if (command == "serve") return CmdServe(flags);
  return Usage();
}

}  // namespace
}  // namespace uhscm::cli

int main(int argc, char** argv) { return uhscm::cli::Main(argc, argv); }
