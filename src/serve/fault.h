#ifndef UHSCM_SERVE_FAULT_H_
#define UHSCM_SERVE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/annotated_sync.h"
#include "common/rng.h"

namespace uhscm::serve {

/// \name Named failure points threaded into the serving hot path.
///
/// A point can be armed process-wide (`Arm("replica.kill", ...)`) or
/// scoped to one tagged instance (`Arm("replica.kill#2", ...)` fires
/// only on the engine whose fault tag is 2 — how a bench makes exactly
/// one replica the straggler). Instance-scoped specs take precedence
/// over the unscoped name.
///@{
/// Kills the engine the batch was submitted to (checked at the top of
/// QueryEngine::SubmitBatch, so "fire after K hits" means "die on batch
/// K+1"). The submission then resolves Unavailable like any post-kill
/// batch — the deterministic replica-death the respawn path recovers
/// from.
inline constexpr char kFaultReplicaKill[] = "replica.kill";
/// Sleeps the engine's dispatch thread for the spec's delay before the
/// batch searches — a slow replica (straggler), not a dead one. The
/// injected latency is visible to hedging and to least-loaded routing.
inline constexpr char kFaultSlowBatch[] = "replica.slow_batch";
/// Fails a replica respawn's snapshot hydration. The supervisor counts
/// the failure, leaves the replica dead, and retries on its next tick.
inline constexpr char kFaultHydrate[] = "replica.hydrate";
/// Rejects a request at the admission queue with Unavailable —
/// injected load-shedding at the pipeline's front door.
inline constexpr char kFaultQueueAdmit[] = "queue.admit";
///@}

/// When an armed point fires. Defaults fire on every evaluation;
/// the fields carve out deterministic or probabilistic subsets.
struct FaultSpec {
  /// Skip this many evaluations before becoming eligible to fire —
  /// "kill at batch K" is skip_hits = K-1 (hits are counted from the
  /// moment the point is armed).
  int64_t skip_hits = 0;
  /// Stop firing after this many fires; -1 = unlimited. A one-shot
  /// fault (kill exactly once) is max_fires = 1.
  int64_t max_fires = -1;
  /// Probability an eligible evaluation fires, drawn from the
  /// injector's seeded generator — deterministic for a fixed seed and
  /// evaluation order.
  double probability = 1.0;
  /// Injected latency for delay points (kFaultSlowBatch); ignored by
  /// fail/kill points.
  int64_t delay_ns = 0;
};

/// \brief Seeded, process-wide registry of armed failure points.
///
/// The serving hot path asks `ShouldFail(point, tag)` / `DelayNs(point,
/// tag)` at each threaded-in failure site. With nothing armed the cost
/// is one relaxed atomic load. Arming is runtime-only — production
/// binaries carry the (idle) checks.
///
/// Determinism: all probabilistic draws come from one generator seeded
/// by Seed(), and per-point hit counters advance only while the point
/// is armed — so a fixed seed plus a deterministic evaluation order
/// reproduces the exact same fault schedule. Tests that need exactness
/// use probability 1 with skip_hits/max_fires instead.
class FaultInjector {
 public:
  /// The process-wide injector every failure point consults.
  static FaultInjector& Global();

  /// Reseeds the probability generator (does not disarm anything).
  void Seed(uint64_t seed);

  /// Arms (or re-arms, resetting its counters) a failure point. The
  /// name is either a bare point (`replica.kill`) or instance-scoped
  /// (`replica.kill#1`).
  void Arm(const std::string& point, const FaultSpec& spec);

  /// Disarms one point (no-op when not armed).
  void Disarm(const std::string& point);

  /// Disarms every point and reseeds with the default seed.
  void Reset();

  /// True when the armed (possibly instance-scoped) spec for `point`
  /// fires on this evaluation. `tag` >= 0 also consults `point#tag`,
  /// which wins over the bare name.
  bool ShouldFail(const char* point, int tag = -1) {
    if (armed_points_.load(std::memory_order_relaxed) == 0) return false;
    return Evaluate(point, tag) != nullptr;
  }

  /// The armed delay for this evaluation (0 = not firing / not a delay
  /// point). Same arming, counting, and precedence rules as ShouldFail.
  int64_t DelayNs(const char* point, int tag = -1) {
    if (armed_points_.load(std::memory_order_relaxed) == 0) return 0;
    const FaultSpec* spec = Evaluate(point, tag);
    return spec != nullptr ? spec->delay_ns : 0;
  }

  /// Evaluations of an armed point since it was armed (0 if unarmed).
  int64_t hits(const std::string& point) const;
  /// Times an armed point actually fired since it was armed.
  int64_t fires(const std::string& point) const;

 private:
  struct ArmedPoint {
    FaultSpec spec;
    int64_t hits = 0;
    int64_t fires = 0;
  };

  /// Finds the armed entry for (point, tag), counts the hit, and
  /// returns the spec when it fires (nullptr otherwise). The returned
  /// pointer stays valid until the point is disarmed — callers read
  /// delay_ns immediately.
  const FaultSpec* Evaluate(const char* point, int tag);

  /// A leaf lock: nothing is acquired beneath it.
  mutable Mutex mu_{"serve.fault", 14};
  std::map<std::string, ArmedPoint> points_ UHSCM_GUARDED_BY(mu_);
  Rng rng_ UHSCM_GUARDED_BY(mu_);
  /// Armed-point count mirrored outside mu_ so the hot path's
  /// nothing-armed check is one relaxed load. Relaxed: a stale zero at
  /// worst skips an evaluation that raced the Arm — arming is not a
  /// synchronization point for the serving threads.
  std::atomic<int64_t> armed_points_{0};
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_FAULT_H_
