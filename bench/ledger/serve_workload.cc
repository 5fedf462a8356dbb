// serve-scan, serve-hot, serve-churn: the online half over clustered
// 64-bit codes, from snapshot load to open-loop traffic.
//
//   serve-scan  1M codes, unique queries: the scan and shard fan-out
//               dominate and the result cache never hits.
//   serve-hot   100k codes, Zipf(1.1) queries over a 100k pool: most
//               requests hit the cache, so admission, flush timeout,
//               cache lookup and future handoff dominate.
//   serve-churn serve-hot's corpus and traffic plus a writer issuing 20
//               Append(64)/s and 20 RemoveIds(64)/s with auto-compaction
//               at 10% dead rows: every write voids the cache and shard
//               writer locks meet scans, so a cache or lock gain on
//               serve-hot that costs writers shows here.
#include <map>
#include <memory>

#include "corpus.h"
#include "io/serialize.h"
#include "serving.h"
#include "workloads.h"

namespace uhscm::ledger {

namespace {

constexpr int kBits = 64;
constexpr int kCentres = 1000;
constexpr double kFlipProb = 0.10;

}  // namespace

void RunServeWorkload(const RunConfig& config, Report* report) {
  const bool scan = config.workload == "serve-scan";
  const bool churn = config.workload == "serve-churn";
  const int rows = scan ? 1000000 : 100000;
  const ClusteredCodes generator(kBits, kCentres, kFlipProb,
                                 StreamSeed(config.seed, "centres"));
  io::CodesSnapshot snapshot;
  {
    Rng rng(StreamSeed(config.seed, "corpus"));
    snapshot.codes = generator.Draw(rows, &rng);
  }
  const std::string path = SnapshotPath(config);
  const Status saved = io::SaveCodesSnapshot(snapshot, path);
  if (!saved.ok()) Fatal("SaveCodesSnapshot: " + saved.ToString());

  const double compact = churn ? 0.1 : 0.0;
  Result<io::CodesSnapshot> loaded = io::LoadCodesSnapshot(path);
  if (!loaded.ok()) Fatal("LoadCodesSnapshot: " + loaded.status().ToString());
  ServingStack stack(*loaded, compact);

  const std::unique_ptr<Oracle> oracle =
      churn ? nullptr : std::make_unique<Oracle>(snapshot.codes, snapshot.tombstone_words);
  const uint64_t query_seed = StreamSeed(config.seed, "queries");
  const QueryStream stream = scan ? UniqueStream(&generator, query_seed)
                                  : ZipfStream(&generator, 100000, 1.1, query_seed);
  ServingSpec spec;
  // Set-up is what a serving process pays before its first request:
  // load the snapshot, hydrate the replica set, start the batcher.
  spec.setup = [&] {
    std::unique_ptr<ServingStack> fresh;
    Result<io::CodesSnapshot> codes = io::CodesSnapshot{};
    const Timing load = TimeCall([&] { codes = io::LoadCodesSnapshot(path); });
    if (!codes.ok()) Fatal("LoadCodesSnapshot: " + codes.status().ToString());
    const Timing hydrate =
        TimeCall([&] { fresh = std::make_unique<ServingStack>(*codes, compact); });
    return std::map<std::string, Timing>{{"io.load_s", load}, {"serve.hydrate_s", hydrate}};
  };
  spec.bulk_queries = scan ? 2048 : 8192;
  spec.window_seconds = 0.2;
  // About a tenth of each workload's closed-loop throughput: queueing
  // stays low, so latency tracks the code rather than the backlog.
  spec.fixed_rate = scan ? 300.0 : churn ? 1500.0 : 5000.0;
  spec.churn = churn;
  if (churn) spec.appends = UniqueStream(&generator, StreamSeed(config.seed, "appends"));
  const double map = RunServing(config, spec, &stack, stream, oracle.get(), report);
  if (!config.trace) report->E2e("map", map);
}

}  // namespace uhscm::ledger
