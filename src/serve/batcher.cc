#include "serve/batcher.h"

#include <algorithm>
#include <map>
#include <memory>
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

/// One dispatched per-k group: the requests it answers, in batch order,
/// and each one's admission-to-flush wait. Written by the flush thread
/// before dispatch; the engine's one completion callback reads it.
struct Batcher::GroupState {
  std::vector<PendingRequest> requests;
  std::vector<double> queue_waits;
};

Batcher::Batcher(Router* router, const BatcherOptions& options)
    : router_(router),
      options_(options),
      words_per_code_((router->replicas()->replica(0)->index().bits() + 63) /
                      64),
      bits_(router->replicas()->replica(0)->index().bits()),
      max_inflight_batches_(2 * router->replicas()->num_replicas()),
      queue_(static_cast<size_t>(std::max(1, options.max_batch)) * 8 *
             static_cast<size_t>(router->replicas()->num_replicas())) {
  options_.max_batch = std::max(1, options_.max_batch);
  options_.timeout_us = std::max<int64_t>(1, options_.timeout_us);
  flush_thread_ = std::thread([this] { FlushLoop(); });
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
    index::PackedCodes queries;
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
      queries = index::PackedCodes::FromRawWords(
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
      // held until the group's callback has resolved every request.
      UniqueLock lock(inflight_mu_);
      while (inflight_batches_ >= max_inflight_batches_) {
        inflight_cv_.wait(lock);
      }
      ++inflight_batches_;
    }
    router_->replicas()->replica(router_->Route())->SubmitBatch(
        std::move(queries), k, group_ctx,
        [this, state](std::vector<std::vector<index::Neighbor>> results) {
          OnGroupCompletion(*state, std::move(results));
        });
  }
}

void Batcher::OnGroupCompletion(
    GroupState& group, std::vector<std::vector<index::Neighbor>> results) {
  // Counters are recorded *before* the promises resolve: a client woken
  // by its future must already see its outcome reflected in stats().
  const auto now = std::chrono::steady_clock::now();
  CloseRequestSpans(group.requests, now);
  for (size_t i = 0; i < group.requests.size(); ++i) {
    PendingRequest& request = group.requests[i];
    pipeline_stats_.RecordRequestDone(
        group.queue_waits[i],
        std::chrono::duration<double>(now - request.admit_time).count());
    request.promise.set_value(
        SearchResponse{Status::OK(), std::move(results[i])});
  }

  MutexLock lock(inflight_mu_);
  --inflight_batches_;
  // Notify under the lock: Drain destroys this cv as soon as it sees
  // zero in flight, so the signal must complete before the waiter can
  // reacquire inflight_mu_ and return.
  inflight_cv_.notify_all();
}

void Batcher::Drain() {
  MutexLock drain_lock(drain_mu_);
  if (drained_.load(std::memory_order_acquire)) return;
  // Order matters: close first (rejects new work and wakes the flush
  // thread), join the flush thread (its in-hand partial batch is
  // dispatched with real results), then fail whatever never made it out
  // of the queue, and finally wait for every dispatched group's callback
  // so no engine callback can touch this batcher after Drain.
  queue_.Close();
  if (flush_thread_.joinable()) flush_thread_.join();
  const int failed = queue_.FailPending(
      Status::Unavailable("pipeline drained before the request was served"));
  pipeline_stats_.RecordRejected(failed);
  {
    UniqueLock lock(inflight_mu_);
    while (inflight_batches_ != 0) inflight_cv_.wait(lock);
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
