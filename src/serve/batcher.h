#ifndef UHSCM_SERVE_BATCHER_H_
#define UHSCM_SERVE_BATCHER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotated_sync.h"
#include "serve/request_queue.h"
#include "serve/router.h"
#include "serve/serve_stats.h"

namespace uhscm::serve {

struct BatcherOptions {
  /// B: flush as soon as this many requests are collected.
  int max_batch = 32;
  /// T: flush whatever has been collected this many microseconds after
  /// the batch opened (first request popped), even if fewer than B.
  /// B-or-T, whichever first — small under load (B wins, big batches for
  /// the SIMD kernels), bounded-latency when idle (T wins, a lone
  /// straggler waits at most T).
  int64_t timeout_us = 200;
  /// Admission-queue bound (backpressure). 0 = auto: enough for a few
  /// batches per replica (8 * max_batch * replicas), so queue wait stays
  /// a handful of flush intervals even at saturation.
  size_t queue_capacity = 0;
  /// Batches allowed past the batcher at once, across all replicas.
  /// 0 = auto: 2 per replica (one executing + one queued keeps every
  /// engine busy without building a deep engine-side queue). This is
  /// what makes backpressure end-to-end: when the engines fall behind,
  /// the flush thread blocks here, the admission queue fills, and
  /// Submit pushes back on clients — memory stays bounded at any
  /// overload.
  int max_inflight_batches = 0;

  /// Hedging: fraction of dispatched batches allowed a duplicate
  /// dispatch (0 = off, clamped to [0,1]). A batch still in flight when
  /// the hedge delay elapses is re-submitted to a *different* replica;
  /// the first completion wins, the loser's results are discarded. Caps
  /// tail latency when one replica stalls, at a bounded duplicate-work
  /// cost.
  double hedge_budget = 0.0;
  /// When to hedge, microseconds after dispatch. 0 = auto: the live p99
  /// of the engines' stage.search_ns histogram (falls back to the
  /// replicas' completion-latency p99, then 1ms, while those are still
  /// empty) — "slower than the 99th percentile search" is the signal
  /// that this batch landed on a straggler.
  int64_t hedge_delay_us = 0;
};

/// \brief The adaptive-batching stage of the async pipeline: one flush
/// thread that turns the admission queue's single-query requests into
/// engine-shaped batches and routes each to a replica.
///
///   clients --Submit--> RequestQueue --CollectBatch(B,T)--> Batcher
///       --group by k, pack--> Router::Route() --SubmitBatch--> replica
///
/// Submit is the whole client API: hand over one packed query, get a
/// future. The flush thread collects up to B requests (or T µs), packs
/// each same-k group into one PackedCodes batch, and dispatches it
/// non-blocking on the routed engine — so the next batch is being
/// collected while earlier ones are still searching, and with N replicas
/// up to N batches execute concurrently. Results are byte-identical to
/// calling QueryEngine::Search yourself: same corpus, same epoch, same
/// (distance, id) lists.
///
/// **Deadlines and hedging.** A request may carry an absolute deadline;
/// at flush time overdue requests resolve kDeadlineExceeded without
/// touching a replica. With a hedge budget set, a batch still unresolved
/// after the hedge delay is duplicated onto a second replica, first
/// completion wins. Every path resolves every future exactly once; a
/// hedge never double-completes a promise.
///
/// Shutdown: Drain() (also run by the destructor) closes the queue so
/// new Submits are rejected with an Unavailable status, lets the flush
/// thread finish its in-hand batch, completes every request still queued
/// with a shutdown Status, drops not-yet-fired hedges, and waits for all
/// dispatched batches (including in-flight hedges) to call back — every
/// future ever handed out resolves; nothing is dropped. Drain returns
/// before the engines themselves are torn down (their own Drain joins
/// dispatch threads and pools), which is the destruction ordering that
/// makes pipeline exit race-free.
class Batcher {
 public:
  /// The router (and its replica set) must outlive the batcher.
  explicit Batcher(Router* router, const BatcherOptions& options = {});
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Admits one query (num_words must equal the corpus words-per-code;
  /// mismatches resolve immediately with InvalidArgument). Blocks while
  /// the admission queue is full — backpressure, not queue growth.
  /// `deadline` (absolute; time_point::max() = none) is enforced at
  /// flush time: an overdue request resolves kDeadlineExceeded instead
  /// of occupying a replica.
  std::future<SearchResponse> Submit(
      const uint64_t* words, int num_words, int k,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

  /// Convenience: submit query `q` of a packed block.
  std::future<SearchResponse> Submit(
      const index::PackedCodes& queries, int q, int k,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

  /// Rejects new work, flushes pending requests with a shutdown Status,
  /// and joins cleanly. Idempotent.
  void Drain();

  /// Pipeline counters + current queue depth, merged with the replica
  /// set's aggregated engine counters (cache, updates, epoch).
  ServeStatsSnapshot stats() const;

  /// Zeroes the pipeline counters and every replica's engine stats.
  void ResetStats();

  size_t queue_depth() const { return queue_.depth(); }
  const BatcherOptions& options() const { return options_; }

 private:
  /// One dispatched per-k group: the packed batch plus the resolution
  /// state that hedging and completion race over. Shared by the flush
  /// thread, engine callbacks, and the hedge timer; defined in the .cc.
  struct GroupState;

  void FlushLoop();
  /// Packs one collected batch, expires overdue requests, and
  /// dispatches per-k groups (plus their hedges).
  void FlushBatch(std::vector<PendingRequest> batch, bool by_timeout);
  /// Submits the group to replica `r` (the caller has already counted
  /// the attempt in group->outstanding).
  void DispatchGroup(const std::shared_ptr<GroupState>& group, int r,
                     bool is_hedge);
  /// The single resolution point: the first completion wins, and the
  /// group settles (releases its inflight slot) when the last
  /// outstanding attempt has called back.
  void OnGroupCompletion(const std::shared_ptr<GroupState>& group,
                         bool is_hedge,
                         std::vector<std::vector<index::Neighbor>> results);
  /// Queues the group on the hedge timer (weak — a resolved group just
  /// expires).
  void ScheduleHedge(const std::shared_ptr<GroupState>& group);
  /// Issues the hedge attempt if the group is still unresolved and the
  /// budget allows.
  void FireHedge(const std::shared_ptr<GroupState>& group);
  void HedgeLoop();
  /// Resolves the configured (or auto, p99-derived) hedge delay.
  std::chrono::nanoseconds HedgeDelay();

  Router* router_;
  BatcherOptions options_;
  int words_per_code_;
  int bits_;
  int max_inflight_batches_;
  RequestQueue queue_;
  PipelineStats pipeline_stats_;
  std::thread flush_thread_;
  /// Release/acquire: published after the full teardown completes, so a
  /// second Drain caller's early return observes every effect of the
  /// first (joined threads, failed futures, settled groups).
  std::atomic<bool> drained_{false};
  /// Serializes Drain callers; the highest-ranked batcher lock because
  /// Drain acquires the queue, hedge, and inflight locks beneath it.
  Mutex drain_mu_{"batcher.drain", 96};
  /// Per-k groups dispatched to engines that haven't settled (final
  /// callback not yet returned, hedges included). Drain waits on this so
  /// no callback can outlive the batcher. Relaxed: both wait loops load
  /// it under inflight_mu_, and every transition that matters to a
  /// waiter (add in FlushBatch, sub at settle) also happens under
  /// inflight_mu_ — the mutex orders the handoff, the atomic only lets
  /// stats() read the depth lock-free.
  std::atomic<int64_t> inflight_batches_{0};
  Mutex inflight_mu_{"batcher.inflight", 28};
  CondVar inflight_cv_;

  /// Hedge budget accounting: groups dispatched vs hedges issued, the
  /// ratio the budget bounds. Relaxed: monotonic counters; the budget
  /// check tolerates a momentarily stale ratio (it can only under-issue
  /// by one hedge, never overrun the budget unboundedly).
  std::atomic<int64_t> groups_dispatched_{0};
  std::atomic<int64_t> hedges_issued_{0};

  /// The hedge timer: a deadline-ordered queue of still-inflight groups,
  /// served by one thread (started only when hedge_budget > 0).
  Mutex hedge_mu_{"batcher.hedge", 26};
  CondVar hedge_cv_;
  std::multimap<std::chrono::steady_clock::time_point,
                std::weak_ptr<GroupState>>
      hedge_queue_ UHSCM_GUARDED_BY(hedge_mu_);
  bool hedge_stop_ UHSCM_GUARDED_BY(hedge_mu_) = false;
  std::thread hedge_thread_;
};

}  // namespace uhscm::serve

#endif  // UHSCM_SERVE_BATCHER_H_
