#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "common/status.h"
#include "obs/metrics.h"

namespace uhscm::serve {

namespace {

std::future<SearchResponse> ReadyResponse(Status status) {
  std::promise<SearchResponse> promise;
  promise.set_value(SearchResponse{std::move(status), {}});
  return promise.get_future();
}

/// Closes each sampled request's root "request" span — admission to
/// response, the latency its client actually observed.
void CloseRequestSpans(const std::vector<PendingRequest>& requests,
                       std::chrono::steady_clock::time_point now) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  for (const PendingRequest& request : requests) {
    if (request.trace) {
      recorder.RecordSpan(request.trace.trace_id, request.trace.parent_span, 0,
                          "request", recorder.ToMicros(request.admit_time),
                          recorder.ToMicros(now), {{"k", request.k}});
    }
  }
}

}  // namespace

/// One dispatched per-k group. `queries`, `k`, `trace`, `requests`, and
/// `queue_waits` are written once by the flush thread before the first
/// dispatch and read-only afterwards; the resolution state below `mu` is
/// what the primary callback, the hedge timer, and the hedge callback
/// race over.
struct Batcher::GroupState {
  index::PackedCodes queries;
  int k = 0;
  obs::TraceContext trace;
  std::vector<PendingRequest> requests;
  std::vector<double> queue_waits;

  /// One class for every group's lock; two groups' locks are never held
  /// together.
  Mutex mu{"batcher.group", 24};
  /// A completion won (promises set).
  bool resolved UHSCM_GUARDED_BY(mu) = false;
  /// Dispatch attempts (primary + hedge) whose callback hasn't returned.
  int outstanding UHSCM_GUARDED_BY(mu) = 0;
  /// Hedge already issued — at most one.
  bool hedged UHSCM_GUARDED_BY(mu) = false;
  /// The replica the primary attempt landed on — the hedge excludes it.
  int primary_replica UHSCM_GUARDED_BY(mu) = -1;
};

Batcher::Batcher(Router* router, const BatcherOptions& options)
    : router_(router),
      options_(options),
      words_per_code_((router->replicas()->replica(0)->index().bits() + 63) /
                      64),
      bits_(router->replicas()->replica(0)->index().bits()),
      max_inflight_batches_(
          options.max_inflight_batches > 0
              ? options.max_inflight_batches
              : 2 * router->replicas()->num_replicas()),
      queue_(options.queue_capacity != 0
                 ? options.queue_capacity
                 : static_cast<size_t>(std::max(1, options.max_batch)) * 8 *
                       static_cast<size_t>(
                           router->replicas()->num_replicas())) {
  options_.max_batch = std::max(1, options_.max_batch);
  options_.timeout_us = std::max<int64_t>(1, options_.timeout_us);
  options_.hedge_budget = std::clamp(options_.hedge_budget, 0.0, 1.0);
  options_.hedge_delay_us = std::max<int64_t>(0, options_.hedge_delay_us);
  flush_thread_ = std::thread([this] { FlushLoop(); });
  if (options_.hedge_budget > 0.0 &&
      router_->replicas()->num_replicas() > 1) {
    hedge_thread_ = std::thread([this] { HedgeLoop(); });
  }
}

Batcher::~Batcher() { Drain(); }

std::future<SearchResponse> Batcher::Submit(
    const uint64_t* words, int num_words, int k,
    std::chrono::steady_clock::time_point deadline) {
  if (num_words != words_per_code_) {
    return ReadyResponse(Status::InvalidArgument(
        "Batcher::Submit: query word count does not match the corpus code "
        "width"));
  }
  // A drained batcher's queue is closed, so the queue rejects (and
  // counts) the submission — no separate pre-check, which would race
  // with a concurrent Drain and miss the rejection counter.
  return queue_.Submit(words, num_words, k, deadline);
}

std::future<SearchResponse> Batcher::Submit(
    const index::PackedCodes& queries, int q, int k,
    std::chrono::steady_clock::time_point deadline) {
  return Submit(queries.code(q), queries.words_per_code(), k, deadline);
}

void Batcher::FlushLoop() {
  std::vector<PendingRequest> batch;
  const auto timeout = std::chrono::microseconds(options_.timeout_us);
  while (queue_.CollectBatch(options_.max_batch, timeout, &batch)) {
    // A full batch flushed because it hit B; anything shorter means the
    // T deadline (or a drain) cut it off.
    const bool by_timeout =
        static_cast<int>(batch.size()) < options_.max_batch;
    FlushBatch(std::move(batch), by_timeout);
    batch.clear();
  }
}

void Batcher::FlushBatch(std::vector<PendingRequest> batch, bool by_timeout) {
  if (batch.empty()) return;
  pipeline_stats_.RecordFlush(static_cast<int>(batch.size()), by_timeout);
  const auto flush_time = std::chrono::steady_clock::now();

  // Close each sampled request's "admit" span: admission to flush is the
  // time spent waiting in the queue for a batch to form.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  for (const PendingRequest& request : batch) {
    if (request.trace) {
      recorder.RecordSpan(request.trace.trace_id, recorder.NewSpanId(),
                          request.trace.parent_span, "admit",
                          recorder.ToMicros(request.admit_time),
                          recorder.ToMicros(flush_time),
                          {{"k", request.k}});
    }
  }

  // Deadline enforcement at the dispatch boundary: a request whose
  // deadline already passed resolves kDeadlineExceeded here instead of
  // occupying replica time its client has stopped waiting for.
  std::vector<PendingRequest> live;
  std::vector<PendingRequest> expired;
  live.reserve(batch.size());
  for (PendingRequest& request : batch) {
    if (request.has_deadline() && flush_time >= request.deadline) {
      if (request.trace) {
        recorder.RecordSpan(request.trace.trace_id, request.trace.parent_span,
                            0, "request", recorder.ToMicros(request.admit_time),
                            recorder.ToMicros(flush_time),
                            {{"k", request.k}});
      }
      expired.push_back(std::move(request));
      continue;
    }
    live.push_back(std::move(request));
  }
  if (!expired.empty()) {
    // Count before resolving: a client woken by the promise must see its
    // expiry already reflected in stats().
    pipeline_stats_.RecordDeadlineExceeded(static_cast<int>(expired.size()));
    for (PendingRequest& request : expired) {
      request.promise.set_value(SearchResponse{
          Status::DeadlineExceeded(
              "deadline passed while the request waited to be batched"),
          {}});
    }
  }
  if (live.empty()) return;

  // The engine API carries one k per Search call, so a mixed-k flush
  // dispatches one packed batch per distinct k (request order preserved
  // within each group; under homogeneous traffic this is one group).
  std::map<int, std::vector<size_t>> groups;
  for (size_t i = 0; i < live.size(); ++i) {
    groups[live[i].k].push_back(i);
  }

  const bool hedging = options_.hedge_budget > 0.0 &&
                       router_->replicas()->num_replicas() > 1;
  for (auto& [k, members] : groups) {
    // The group's spans (batch assembly, route, the engine's search)
    // hang under the first sampled request in the group — one traced
    // exemplar per batch keeps the trace a connected tree without
    // recording the shared stages once per member.
    obs::TraceContext group_ctx;
    for (size_t i : members) {
      if (live[i].trace) {
        group_ctx = live[i].trace;
        break;
      }
    }

    auto state = std::make_shared<GroupState>();
    state->k = k;
    state->trace = group_ctx;
    state->requests.reserve(members.size());
    state->queue_waits.reserve(members.size());
    std::vector<uint64_t> words;
    words.reserve(members.size() * static_cast<size_t>(words_per_code_));
    {
      obs::ScopedSpan batch_span(&recorder, group_ctx, "batch");
      batch_span.AddAttr("size", static_cast<int64_t>(members.size()));
      batch_span.AddAttr("k", k);
      for (size_t i : members) {
        words.insert(words.end(), live[i].words.begin(),
                     live[i].words.end());
        state->queue_waits.push_back(std::chrono::duration<double>(
                                         flush_time - live[i].admit_time)
                                         .count());
        state->requests.push_back(std::move(live[i]));
      }
      state->queries = index::PackedCodes::FromRawWords(
          static_cast<int>(state->requests.size()), bits_, std::move(words));
    }

    {
      obs::ScopedSpan route_span(&recorder, group_ctx, "route");
      // End-to-end backpressure: don't let batches pile up in the
      // engines' dispatch queues. Blocking here fills the admission
      // queue, which in turn blocks Submit — overload surfaces at the
      // front door, and the router always sees genuine (bounded)
      // per-replica load. The wait is part of the route span: time spent
      // here is time spent finding a replica with capacity. The slot is
      // held until the group *settles* (every callback, the hedge's
      // included, has returned), so a hedge rides the original slot
      // instead of multiplying inflight work.
      UniqueLock lock(inflight_mu_);
      while (inflight_batches_.load(std::memory_order_relaxed) >=
             max_inflight_batches_) {
        inflight_cv_.wait(lock);
      }
      inflight_batches_.fetch_add(1, std::memory_order_relaxed);
    }
    groups_dispatched_.fetch_add(1, std::memory_order_relaxed);
    const int r = router_->Route();
    {
      MutexLock lock(state->mu);
      state->outstanding = 1;
      state->primary_replica = r;
    }
    DispatchGroup(state, r, /*is_hedge=*/false);
    if (hedging) ScheduleHedge(state);
  }
}

void Batcher::DispatchGroup(const std::shared_ptr<GroupState>& group, int r,
                            bool is_hedge) {
  std::shared_ptr<GroupState> self = group;
  router_->replicas()->replica(r)->SubmitBatch(
      index::PackedCodes(group->queries), group->k, group->trace,
      [this, self,
       is_hedge](std::vector<std::vector<index::Neighbor>> results) {
        OnGroupCompletion(self, is_hedge, std::move(results));
      });
}

void Batcher::OnGroupCompletion(
    const std::shared_ptr<GroupState>& group, bool is_hedge,
    std::vector<std::vector<index::Neighbor>> results) {
  bool win = false;
  bool settle = false;
  {
    MutexLock lock(group->mu);
    group->outstanding -= 1;
    // First completion wins; a later one (the hedge's loser —
    // byte-identical results anyway) is discarded here.
    win = !group->resolved;
    group->resolved = true;
    // The group settles — releases its inflight slot — when the last
    // outstanding callback has returned. A resolved group never hedges,
    // so outstanding reaches zero exactly once.
    settle = group->outstanding == 0;
  }

  // Counters are recorded *before* the promises resolve: a client woken
  // by its future must already see its outcome reflected in stats().
  if (win) {
    const auto now = std::chrono::steady_clock::now();
    CloseRequestSpans(group->requests, now);
    if (is_hedge) pipeline_stats_.RecordHedgeWin();
    for (size_t i = 0; i < group->requests.size(); ++i) {
      PendingRequest& request = group->requests[i];
      pipeline_stats_.RecordRequestDone(
          group->queue_waits[i],
          std::chrono::duration<double>(now - request.admit_time).count());
      request.promise.set_value(
          SearchResponse{Status::OK(), std::move(results[i])});
    }
  }

  if (settle) {
    MutexLock lock(inflight_mu_);
    inflight_batches_.fetch_sub(1, std::memory_order_relaxed);
    // Notify under the lock: Drain destroys this cv as soon as it sees
    // zero in flight, so the signal must complete before the waiter can
    // reacquire inflight_mu_ and return.
    inflight_cv_.notify_all();
  }
}

std::chrono::nanoseconds Batcher::HedgeDelay() {
  if (options_.hedge_delay_us > 0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::microseconds(options_.hedge_delay_us));
  }
  // Auto mode: hedge when the batch has been in flight longer than the
  // 99th-percentile search — the live histogram the traced requests
  // feed. Until it has data (tracing off, or cold start), fall back to
  // the replicas' completion-latency p99, then to a fixed 1ms.
  const obs::HistogramSnapshot stage =
      obs::MetricsRegistry::Global().GetHistogram("stage.search_ns")
          ->Snapshot();
  if (!stage.empty()) {
    return std::chrono::nanoseconds(stage.ValueAtPercentile(99.0));
  }
  const ServeStatsSnapshot agg = router_->replicas()->AggregatedStats();
  if (!agg.latency_hist.empty()) {
    return std::chrono::nanoseconds(agg.latency_hist.ValueAtPercentile(99.0));
  }
  return std::chrono::milliseconds(1);
}

void Batcher::ScheduleHedge(const std::shared_ptr<GroupState>& group) {
  const auto when = std::chrono::steady_clock::now() + HedgeDelay();
  {
    MutexLock lock(hedge_mu_);
    if (hedge_stop_) return;
    hedge_queue_.emplace(when, std::weak_ptr<GroupState>(group));
  }
  hedge_cv_.notify_all();
}

void Batcher::FireHedge(const std::shared_ptr<GroupState>& group) {
  ReplicaSet* replicas = router_->replicas();
  int pick = -1;
  {
    MutexLock lock(group->mu);
    if (group->resolved || group->hedged) return;
    // The budget bounds *issued* hedges against dispatched groups, so
    // fast traffic (whose timers expire unresolved-never) consumes none
    // of it and a straggler burst cannot duplicate more than the
    // configured fraction of the stream.
    const auto dispatched = static_cast<double>(
        groups_dispatched_.load(std::memory_order_relaxed));
    const auto issued = static_cast<double>(
        hedges_issued_.load(std::memory_order_relaxed));
    if (issued + 1.0 > options_.hedge_budget * dispatched) return;
    // The hedge must land somewhere else: the least-loaded replica other
    // than the one the primary attempt is stuck on.
    int64_t best = 0;
    for (int r = 0; r < replicas->num_replicas(); ++r) {
      if (r == group->primary_replica) continue;
      const int64_t load = replicas->Inflight(r);
      if (pick < 0 || load < best) {
        best = load;
        pick = r;
      }
    }
    group->hedged = true;
    group->outstanding += 1;
  }
  hedges_issued_.fetch_add(1, std::memory_order_relaxed);
  pipeline_stats_.RecordHedge();
  DispatchGroup(group, pick, /*is_hedge=*/true);
}

void Batcher::HedgeLoop() {
  UniqueLock lock(hedge_mu_);
  while (!hedge_stop_) {
    if (hedge_queue_.empty()) {
      while (!hedge_stop_ && hedge_queue_.empty()) hedge_cv_.wait(lock);
      continue;
    }
    // Sleep until the earliest timer is due, a stop interrupts, or a
    // notify lands (a new entry re-derives `when` on the next pass).
    const auto when = hedge_queue_.begin()->first;
    bool timed_out = false;
    while (!hedge_stop_ && !timed_out) {
      timed_out =
          hedge_cv_.wait_until(lock, when) == std::cv_status::timeout;
    }
    if (hedge_stop_) return;
    const auto now = std::chrono::steady_clock::now();
    while (!hedge_queue_.empty() && hedge_queue_.begin()->first <= now) {
      std::weak_ptr<GroupState> weak = std::move(hedge_queue_.begin()->second);
      hedge_queue_.erase(hedge_queue_.begin());
      lock.unlock();
      // A group that already resolved (or settled and died) expires
      // here without firing — that is the hedge's cancellation path.
      if (std::shared_ptr<GroupState> group = weak.lock()) FireHedge(group);
      lock.lock();
      if (hedge_stop_) return;
    }
  }
}

void Batcher::Drain() {
  MutexLock drain_lock(drain_mu_);
  if (drained_.load(std::memory_order_acquire)) return;
  // Order matters: close first (rejects new work and wakes the flush
  // thread), join the flush thread (its in-hand partial batch is
  // dispatched with real results), then fail whatever never made it out
  // of the queue, drop not-yet-fired hedges (the timer thread joins so
  // no new submission can start), and finally wait for every dispatched
  // group — in-flight hedges included — to settle so no engine callback
  // can touch this batcher after Drain.
  queue_.Close();
  if (flush_thread_.joinable()) flush_thread_.join();
  const int failed = queue_.FailPending(
      Status::Unavailable("pipeline drained before the request was served"));
  pipeline_stats_.RecordRejected(failed);
  {
    MutexLock lock(hedge_mu_);
    hedge_stop_ = true;
    hedge_queue_.clear();
  }
  hedge_cv_.notify_all();
  if (hedge_thread_.joinable()) hedge_thread_.join();
  {
    UniqueLock lock(inflight_mu_);
    while (inflight_batches_.load(std::memory_order_relaxed) != 0) {
      inflight_cv_.wait(lock);
    }
  }
  drained_.store(true, std::memory_order_release);
}

ServeStatsSnapshot Batcher::stats() const {
  ServeStatsSnapshot snap = router_->replicas()->AggregatedStats();
  // Pipeline counters overwrite the engine-side queries/batches/latency:
  // what a pipeline client experiences (queue wait included) is the
  // serving truth; the engines' cache/update/epoch fields pass through.
  pipeline_stats_.FillSnapshot(&snap);
  snap.queue_depth = static_cast<int64_t>(queue_.depth());
  // Shutdown rejections live in two places: requests drained out of the
  // queue (recorded via FailPending) and submissions the closed queue
  // turned away at the door.
  snap.rejected_requests += queue_.rejected();
  return snap;
}

void Batcher::ResetStats() {
  pipeline_stats_.Reset();
  queue_.ResetRejected();
  router_->replicas()->ResetStats();
}

}  // namespace uhscm::serve
