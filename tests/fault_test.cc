// Fault-tolerant serving: the fault-injection layer itself, replica
// kill -> respawn -> rehydrate recovery, deadline propagation, batch
// retries, hedged requests, and the all-replicas-dead fast-fail. The
// load-bearing invariants:
//   * every future handed out resolves — OK, Unavailable, or
//     DeadlineExceeded, never silently dropped — under any injected
//     fault schedule;
//   * a respawned replica's results are byte-identical to a replica
//     that was never killed (same base snapshot + same journaled update
//     sequence => same deterministic state);
//   * injected faults are deterministic for a fixed seed and
//     evaluation order, so every failure scenario here reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "index/packed_codes.h"
#include "serve/batcher.h"
#include "serve/fault.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace uhscm::serve {
namespace {

using index::Neighbor;
using index::PackedCodes;
using uhscm::testing::RandomSignCodes;

PackedCodes RandomCorpus(int n, int bits, uint64_t seed) {
  Rng rng(seed);
  return PackedCodes::FromSignMatrix(RandomSignCodes(n, bits, &rng));
}

void ExpectSameNeighbors(const std::vector<Neighbor>& expect,
                         const std::vector<Neighbor>& got) {
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].id, got[i].id) << "rank " << i;
    EXPECT_EQ(expect[i].distance, got[i].distance) << "rank " << i;
  }
}

/// Every test arms global state; this guard resets the injector on both
/// ends so no schedule leaks across tests (gtest runs them in one
/// process).
struct InjectorGuard {
  InjectorGuard() { FaultInjector::Global().Reset(); }
  ~InjectorGuard() { FaultInjector::Global().Reset(); }
};

struct Pipeline {
  explicit Pipeline(const PackedCodes& corpus, int replicas,
                    const BatcherOptions& batcher_options,
                    RoutePolicy policy = RoutePolicy::kLeastLoaded,
                    bool supervise = false) {
    ReplicaSetOptions options;
    options.replicas = replicas;
    options.supervise = supervise;
    replica_set = std::make_unique<ReplicaSet>(corpus, options);
    router = std::make_unique<Router>(replica_set.get(), policy);
    batcher = std::make_unique<Batcher>(router.get(), batcher_options);
  }
  std::unique_ptr<ReplicaSet> replica_set;
  std::unique_ptr<Router> router;
  std::unique_ptr<Batcher> batcher;
};

// ---------------------------------------------------------------------
// FaultInjector semantics

TEST(FaultInjectorTest, SkipHitsThenMaxFiresBoundsTheWindow) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  FaultSpec spec;
  spec.skip_hits = 2;  // eligible from the 3rd evaluation
  spec.max_fires = 2;  // ... and fires exactly twice
  injector.Arm("test.point", spec);

  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(injector.ShouldFail("test.point"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(injector.hits("test.point"), 6);
  EXPECT_EQ(injector.fires("test.point"), 2);
}

TEST(FaultInjectorTest, InstanceScopedSpecWinsOverBareName) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  FaultSpec never;
  never.probability = 0.0;
  injector.Arm("test.point", {});          // bare: always fires
  injector.Arm("test.point#1", never);     // tag 1: never fires

  EXPECT_TRUE(injector.ShouldFail("test.point", 0))
      << "tag 0 has no scoped spec — the bare point applies";
  EXPECT_FALSE(injector.ShouldFail("test.point", 1))
      << "the scoped spec must shadow the bare one";
  EXPECT_TRUE(injector.ShouldFail("test.point"))
      << "untagged evaluations only see the bare point";
}

TEST(FaultInjectorTest, ProbabilityDrawsAreSeedDeterministic) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  FaultSpec coin;
  coin.probability = 0.5;

  auto run_schedule = [&] {
    injector.Reset();
    injector.Seed(12345);
    injector.Arm("test.coin", coin);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(injector.ShouldFail("test.coin"));
    return fired;
  };
  const std::vector<bool> first = run_schedule();
  const std::vector<bool> second = run_schedule();
  EXPECT_EQ(first, second) << "same seed + same order => same schedule";
  const auto fires = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64) << "p=0.5 should neither always nor never fire";
}

TEST(FaultInjectorTest, DelayPointReturnsArmedDelayAndResetDisarms) {
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  FaultSpec slow;
  slow.delay_ns = 1234567;
  injector.Arm(std::string(kFaultSlowBatch) + "#2", slow);

  EXPECT_EQ(injector.DelayNs(kFaultSlowBatch, 2), 1234567);
  EXPECT_EQ(injector.DelayNs(kFaultSlowBatch, 0), 0)
      << "only the tagged instance is slow";
  injector.Reset();
  EXPECT_EQ(injector.DelayNs(kFaultSlowBatch, 2), 0);
  EXPECT_EQ(injector.hits(std::string(kFaultSlowBatch) + "#2"), 0);
}

// ---------------------------------------------------------------------
// Kill -> respawn -> rehydrate

TEST(RespawnTest, RespawnedReplicaIsByteIdenticalToSurvivor) {
  const PackedCodes corpus = RandomCorpus(300, 64, 101);
  const PackedCodes extra1 = RandomCorpus(40, 64, 102);
  const PackedCodes extra2 = RandomCorpus(25, 64, 103);
  const PackedCodes probes = RandomCorpus(30, 64, 104);
  ReplicaSetOptions options;
  options.replicas = 3;
  ReplicaSet replicas(corpus, options);

  // Mutate before the kill (journaled), kill replica 1, then mutate
  // more while it is dead — the journal must carry both phases.
  replicas.Append(extra1);
  ASSERT_EQ(replicas.RemoveIds({3, 17, 310}), 3);
  replicas.replica(1)->Kill();
  EXPECT_EQ(replicas.health(1), ReplicaHealth::kDead);
  replicas.Append(extra2);
  ASSERT_EQ(replicas.RemoveIds({50, 342}), 2);
  replicas.Compact();
  EXPECT_EQ(replicas.journal_size(), 5u);

  ASSERT_EQ(replicas.RespawnDeadReplicas(), 1);
  EXPECT_EQ(replicas.respawns(), 1);
  EXPECT_EQ(replicas.health(1), ReplicaHealth::kHealthy);
  EXPECT_FALSE(replicas.replica(1)->killed());
  EXPECT_EQ(replicas.replica(1)->epoch(), replicas.replica(0)->epoch());

  // Byte-identity: the respawned replica answers exactly like the
  // untouched survivors, and keeps doing so after further fan-outs.
  for (int q = 0; q < probes.size(); ++q) {
    ExpectSameNeighbors(replicas.replica(0)->SearchOne(probes.code(q), 10),
                        replicas.replica(1)->SearchOne(probes.code(q), 10));
  }
  replicas.Append(probes);
  ASSERT_EQ(replicas.RemoveIds({360}), 1);
  for (int q = 0; q < probes.size(); ++q) {
    ExpectSameNeighbors(replicas.replica(2)->SearchOne(probes.code(q), 10),
                        replicas.replica(1)->SearchOne(probes.code(q), 10));
  }
}

TEST(RespawnTest, HydrationFaultCountsFailureAndNextAttemptRecovers) {
  InjectorGuard guard;
  const PackedCodes corpus = RandomCorpus(120, 64, 111);
  ReplicaSetOptions options;
  options.replicas = 2;
  ReplicaSet replicas(corpus, options);
  replicas.replica(0)->Kill();

  FaultSpec once;
  once.max_fires = 1;
  FaultInjector::Global().Arm(kFaultHydrate, once);
  EXPECT_EQ(replicas.RespawnDeadReplicas(), 0)
      << "the injected hydration failure must not swap a replica in";
  EXPECT_EQ(replicas.respawn_failures(), 1);
  EXPECT_EQ(replicas.health(0), ReplicaHealth::kDead);

  EXPECT_EQ(replicas.RespawnDeadReplicas(), 1) << "retry succeeds";
  EXPECT_EQ(replicas.respawns(), 1);
  EXPECT_EQ(replicas.health(0), ReplicaHealth::kHealthy);
}

TEST(RespawnTest, AllReplicasDeadJournalReplayRebuildsCoherentSet) {
  // Updates landing with zero live replicas are journaled without an
  // expected outcome; respawning everything replays them coherently.
  const PackedCodes corpus = RandomCorpus(100, 64, 121);
  const PackedCodes extra = RandomCorpus(20, 64, 122);
  ReplicaSetOptions options;
  options.replicas = 2;
  ReplicaSet replicas(corpus, options);
  replicas.replica(0)->Kill();
  replicas.replica(1)->Kill();

  EXPECT_TRUE(replicas.Append(extra).empty())
      << "no live replica can assign ids";
  EXPECT_EQ(replicas.RemoveIds({5}), 0);

  ASSERT_EQ(replicas.RespawnDeadReplicas(), 2);
  EXPECT_EQ(replicas.replica(0)->epoch(), replicas.replica(1)->epoch());
  // The journaled append landed: row 100 exists and both replicas agree.
  const std::vector<Neighbor> hit0 = replicas.replica(0)->SearchOne(extra.code(0), 1);
  ASSERT_EQ(hit0.size(), 1u);
  EXPECT_EQ(hit0[0].distance, 0);
  ExpectSameNeighbors(hit0, replicas.replica(1)->SearchOne(extra.code(0), 1));
}

TEST(RespawnTest, SupervisorRespawnsWithoutManualIntervention) {
  const PackedCodes corpus = RandomCorpus(150, 64, 131);
  ReplicaSetOptions options;
  options.replicas = 2;
  options.supervise = true;
  options.supervise_interval_ms = 1;
  ReplicaSet replicas(corpus, options);

  replicas.replica(1)->Kill();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (replicas.respawns() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(replicas.respawns(), 1) << "supervisor never respawned";
  EXPECT_EQ(replicas.health(1), ReplicaHealth::kHealthy);
  EXPECT_EQ(replicas.replica(1)->epoch(), replicas.replica(0)->epoch());
  replicas.StopSupervisor();
}

// ---------------------------------------------------------------------
// Pipeline failure semantics: kill + retry, deadlines, all-dead,
// admission faults, hedging

TEST(PipelineFaultTest, KillAtBatchKRetriesOntoSurvivorByteIdentically) {
  InjectorGuard guard;
  const PackedCodes corpus = RandomCorpus(400, 64, 141);
  const PackedCodes queries = RandomCorpus(32, 64, 142);
  auto reference = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(), corpus.words()),
      {});

  // Replica 0 dies on its 2nd submitted batch. The batch (and whatever
  // lands on the corpse afterwards) must retry onto replica 1 and
  // resolve with real results.
  FaultSpec kill;
  kill.skip_hits = 1;
  kill.max_fires = 1;
  FaultInjector::Global().Arm(std::string(kFaultReplicaKill) + "#0", kill);

  BatcherOptions batcher_options;
  batcher_options.max_batch = 8;
  batcher_options.timeout_us = 500;
  Pipeline pipeline(corpus, 2, batcher_options, RoutePolicy::kRoundRobin);

  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < queries.size(); ++q) {
    futures.push_back(pipeline.batcher->Submit(queries, q, 7));
  }
  for (int q = 0; q < queries.size(); ++q) {
    SearchResponse response = futures[static_cast<size_t>(q)].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ExpectSameNeighbors(reference->SearchOne(queries.code(q), 7),
                        response.neighbors);
  }
  EXPECT_TRUE(pipeline.replica_set->replica(0)->killed());
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_GE(stats.retries, 1) << "the killed batch must have been retried";
  EXPECT_EQ(stats.rejected_requests, 0);
  EXPECT_EQ(stats.replicas_dead, 1);
  EXPECT_EQ(stats.replicas_healthy, 1);
}

TEST(PipelineFaultTest, AllReplicasDeadFailsBatchImmediately) {
  const PackedCodes corpus = RandomCorpus(100, 64, 151);
  BatcherOptions batcher_options;
  batcher_options.max_batch = 4;
  batcher_options.timeout_us = 200;
  Pipeline pipeline(corpus, 2, batcher_options);
  pipeline.replica_set->replica(0)->Kill();
  pipeline.replica_set->replica(1)->Kill();

  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 8; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5));
  }
  for (std::future<SearchResponse>& future : futures) {
    const SearchResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(response.neighbors.empty());
  }
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_EQ(stats.retries, 0)
      << "with every replica dead there is nothing to retry onto";
  EXPECT_GE(stats.rejected_requests, 8);
}

TEST(PipelineFaultTest, ExpiredDeadlineResolvesWithoutTouchingAReplica) {
  const PackedCodes corpus = RandomCorpus(100, 64, 161);
  BatcherOptions batcher_options;
  batcher_options.max_batch = 4;
  batcher_options.timeout_us = 200;
  Pipeline pipeline(corpus, 1, batcher_options);

  // Already-expired deadlines: the flush must expire them all.
  const auto past = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 6; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5, past));
  }
  for (std::future<SearchResponse>& future : futures) {
    const SearchResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.neighbors.empty());
  }
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_EQ(stats.deadline_exceeded, 6);
  EXPECT_EQ(stats.queries, 0) << "expired requests never reach an engine";

  // A comfortable deadline serves normally.
  const auto future_deadline = std::chrono::steady_clock::now() +
                               std::chrono::seconds(30);
  std::future<SearchResponse> ok =
      pipeline.batcher->Submit(corpus, 0, 5, future_deadline);
  EXPECT_TRUE(ok.get().status.ok());
}

TEST(PipelineFaultTest, AdmissionFaultShedsExactlyTheArmedWindow) {
  InjectorGuard guard;
  const PackedCodes corpus = RandomCorpus(100, 64, 171);
  BatcherOptions batcher_options;
  batcher_options.max_batch = 4;
  batcher_options.timeout_us = 200;
  Pipeline pipeline(corpus, 1, batcher_options);

  FaultSpec shed;
  shed.max_fires = 3;
  FaultInjector::Global().Arm(kFaultQueueAdmit, shed);

  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 10; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5));
  }
  int rejected = 0, served = 0;
  for (std::future<SearchResponse>& future : futures) {
    const SearchResponse response = future.get();
    if (response.status.ok()) {
      ++served;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 3) << "exactly the armed window is shed";
  EXPECT_EQ(served, 7);
  EXPECT_GE(pipeline.batcher->stats().rejected_requests, 3);
}

TEST(PipelineFaultTest, HedgeBeatsInjectedStragglerFirstCompletionWins) {
  InjectorGuard guard;
  const PackedCodes corpus = RandomCorpus(300, 64, 181);
  auto reference = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(), corpus.words()),
      {});

  // Replica 0 is a straggler: every batch it runs sleeps 200ms. With a
  // 1ms hedge delay and a full budget, the hedge lands on replica 1 and
  // must win by two orders of magnitude.
  FaultSpec slow;
  slow.delay_ns = 200LL * 1000 * 1000;
  FaultInjector::Global().Arm(std::string(kFaultSlowBatch) + "#0", slow);

  BatcherOptions batcher_options;
  batcher_options.max_batch = 4;
  batcher_options.timeout_us = 200;
  batcher_options.hedge_budget = 1.0;
  batcher_options.hedge_delay_us = 1000;
  Pipeline pipeline(corpus, 2, batcher_options, RoutePolicy::kLeastLoaded);

  // Least-loaded breaks the idle tie toward replica 0, so the first
  // batch lands on the straggler.
  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 4; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5));
  }
  for (int q = 0; q < 4; ++q) {
    SearchResponse response = futures[static_cast<size_t>(q)].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ExpectSameNeighbors(reference->SearchOne(corpus.code(q), 5),
                        response.neighbors);
  }
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_GE(stats.hedges, 1) << "the straggling batch must have hedged";
  EXPECT_GE(stats.hedge_wins, 1)
      << "a 200ms straggler cannot beat a 1ms-delayed hedge";
  // Drain before the injector guard disarms the delay so no straggling
  // batch outlives the test body.
  pipeline.batcher->Drain();
  pipeline.replica_set->DrainAll();
}

TEST(PipelineFaultTest, HedgeBudgetZeroNeverHedges) {
  const PackedCodes corpus = RandomCorpus(100, 64, 191);
  BatcherOptions batcher_options;
  batcher_options.max_batch = 4;
  batcher_options.timeout_us = 200;
  batcher_options.hedge_budget = 0.0;  // default: off
  Pipeline pipeline(corpus, 2, batcher_options);
  std::vector<std::future<SearchResponse>> futures;
  for (int q = 0; q < 16; ++q) {
    futures.push_back(pipeline.batcher->Submit(corpus, q, 5));
  }
  for (std::future<SearchResponse>& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const ServeStatsSnapshot stats = pipeline.batcher->stats();
  EXPECT_EQ(stats.hedges, 0);
  EXPECT_EQ(stats.hedge_wins, 0);
}

// ---------------------------------------------------------------------
// Randomized fault-schedule stress

TEST(PipelineFaultTest, RandomizedFaultScheduleEveryFutureResolves) {
  InjectorGuard guard;
  const int bits = 64;
  const PackedCodes corpus = RandomCorpus(250, bits, 201);
  const PackedCodes probes = RandomCorpus(20, bits, 202);
  Rng rng(2023);
  FaultInjector::Global().Seed(7);

  // Ground truth: a plain engine fed the identical update sequence.
  auto truth = MakeQueryEngine(
      PackedCodes::FromRawWords(corpus.size(), corpus.bits(), corpus.words()),
      {});

  BatcherOptions batcher_options;
  batcher_options.max_batch = 8;
  batcher_options.timeout_us = 200;
  Pipeline pipeline(corpus, 3, batcher_options);

  std::vector<std::future<SearchResponse>> futures;
  int next_gid = corpus.size();
  for (int round = 0; round < 30; ++round) {
    // Random fault action: kill a replica, shed admissions for a few
    // requests, or slow a replica briefly — all seeded.
    const double dice = rng.Uniform();
    if (dice < 0.25) {
      const int victim = static_cast<int>(rng.UniformInt(3));
      pipeline.replica_set->replica(victim)->Kill();
    } else if (dice < 0.40) {
      FaultSpec shed;
      shed.max_fires = rng.UniformInt(3) + 1;
      shed.probability = 0.5;
      FaultInjector::Global().Arm(kFaultQueueAdmit, shed);
    } else if (dice < 0.55) {
      FaultSpec slow;
      slow.delay_ns = (rng.UniformInt(3) + 1) * 100 * 1000;  // 0.1-0.3ms
      slow.max_fires = 2;
      FaultInjector::Global().Arm(
          std::string(kFaultSlowBatch) + "#" + std::to_string(rng.UniformInt(3)),
          slow);
    }

    // Random update, fanned out + journaled + mirrored on the truth
    // engine (updates are serialized against respawns by design, so the
    // sequences match even while replicas are dead).
    const double update_dice = rng.Uniform();
    if (update_dice < 0.3) {
      const PackedCodes extra =
          RandomCorpus(5, bits, 1000 + static_cast<uint64_t>(round));
      const std::vector<int> ids = pipeline.replica_set->Append(extra);
      truth->Append(extra);
      if (!ids.empty()) next_gid = ids.back() + 1;
      else next_gid += extra.size();
    } else if (update_dice < 0.5 && next_gid > 10) {
      const std::vector<int> doomed = {
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(next_gid))),
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(next_gid)))};
      pipeline.replica_set->RemoveIds(doomed);
      truth->RemoveIds(doomed);
    } else if (update_dice < 0.6) {
      pipeline.replica_set->Compact();
      truth->Compact();
    }

    // Traffic against whatever is alive right now.
    for (int q = 0; q < 12; ++q) {
      futures.push_back(
          pipeline.batcher->Submit(probes, q % probes.size(), 5));
    }
    // Recover (possibly failing: hydrate faults are NOT armed here, so
    // respawns always succeed) before the next round.
    pipeline.replica_set->RespawnDeadReplicas();
  }

  // Every future resolves with a legal status — nothing hangs, nothing
  // is dropped.
  int ok = 0, unavailable = 0;
  for (std::future<SearchResponse>& future : futures) {
    const SearchResponse response = future.get();
    if (response.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kUnavailable)
          << response.status.ToString();
      ++unavailable;
    }
  }
  EXPECT_GT(ok, 0) << "the schedule must serve some traffic";
  EXPECT_EQ(ok + unavailable, static_cast<int>(futures.size()));

  // Quiesce: drain the pipeline, then check the system returned to a
  // coherent steady state.
  pipeline.batcher->Drain();
  EXPECT_EQ(pipeline.batcher->queue_depth(), 0u);
  pipeline.replica_set->RespawnDeadReplicas();
  // Engine inflight counters decrement after the batcher's callback
  // returns; joining the dispatch threads closes that window before the
  // zero check.
  pipeline.replica_set->DrainAll();
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(pipeline.replica_set->health(r), ReplicaHealth::kHealthy);
    EXPECT_EQ(pipeline.replica_set->Inflight(r), 0)
        << "in-flight accounting must return to zero on replica " << r;
  }

  // Byte-identity against ground truth: every replica (respawned or
  // never-killed) answers exactly like the reference engine that saw
  // the same update sequence.
  EXPECT_EQ(pipeline.replica_set->epoch(), truth->epoch());
  for (int r = 0; r < 3; ++r) {
    for (int q = 0; q < probes.size(); ++q) {
      ExpectSameNeighbors(
          truth->SearchOne(probes.code(q), 10),
          pipeline.replica_set->replica(r)->SearchOne(probes.code(q), 10));
    }
  }
}

}  // namespace
}  // namespace uhscm::serve
