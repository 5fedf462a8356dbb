#include "serve/request_queue.h"

#include <algorithm>
#include <utility>

namespace uhscm::serve {

namespace {

std::future<SearchResponse> RejectedFuture() {
  std::promise<SearchResponse> promise;
  promise.set_value(SearchResponse{
      Status::Unavailable("request queue closed — pipeline draining"), {}});
  return promise.get_future();
}

PendingRequest MakeRequest(const uint64_t* words, int num_words, int k) {
  PendingRequest request;
  request.words.assign(words, words + std::max(0, num_words));
  request.k = k;
  request.admit_time = std::chrono::steady_clock::now();
  // Sampling decision happens here, at the pipeline's front door: a
  // sampled request gets a trace id plus its root "request" span id,
  // which downstream stages parent their spans under. The batcher
  // records the root span when the response resolves.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  request.trace.trace_id = recorder.MaybeStartTrace();
  if (request.trace) request.trace.parent_span = recorder.NewSpanId();
  return request;
}

}  // namespace

RequestQueue::RequestQueue(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::future<SearchResponse> RequestQueue::Submit(
    const uint64_t* words, int num_words, int k,
    std::chrono::steady_clock::time_point deadline) {
  PendingRequest request = MakeRequest(words, num_words, k);
  request.deadline = deadline;
  std::future<SearchResponse> future = request.promise.get_future();
  {
    UniqueLock lock(mu_);
    while (!closed_ && queue_.size() >= capacity_) not_full_.wait(lock);
    if (closed_) {
      ++rejected_;
      return RejectedFuture();
    }
    queue_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return future;
}

bool RequestQueue::TrySubmit(const uint64_t* words, int num_words, int k,
                             std::future<SearchResponse>* out) {
  {
    MutexLock lock(mu_);
    if (closed_) {
      ++rejected_;
      *out = RejectedFuture();
      return true;
    }
    if (queue_.size() >= capacity_) return false;
    PendingRequest request = MakeRequest(words, num_words, k);
    *out = request.promise.get_future();
    queue_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return true;
}

bool RequestQueue::CollectBatch(int max_batch,
                                std::chrono::microseconds timeout,
                                std::vector<PendingRequest>* out) {
  out->clear();
  max_batch = std::max(1, max_batch);
  UniqueLock lock(mu_);
  while (!closed_ && queue_.empty()) not_empty_.wait(lock);
  if (closed_) return false;  // leftovers are FailPending's to complete
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    while (!queue_.empty() && static_cast<int>(out->size()) < max_batch) {
      out->push_back(std::move(queue_.front()));
      queue_.pop_front();
      not_full_.notify_one();
    }
    if (static_cast<int>(out->size()) >= max_batch || closed_) break;
    // Wait for more work, a close, or the T deadline — whichever first.
    bool collect_more = true;
    while (!closed_ && queue_.empty()) {
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout) {
        collect_more = closed_ || !queue_.empty();
        break;
      }
    }
    if (!collect_more) break;  // T elapsed first: flush what the batch holds
  }
  return true;
}

void RequestQueue::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

int RequestQueue::FailPending(const Status& status) {
  std::deque<PendingRequest> pending;
  {
    MutexLock lock(mu_);
    pending.swap(queue_);
  }
  for (PendingRequest& request : pending) {
    request.promise.set_value(SearchResponse{status, {}});
  }
  not_full_.notify_all();
  return static_cast<int>(pending.size());
}

size_t RequestQueue::depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

bool RequestQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

int64_t RequestQueue::rejected() const {
  MutexLock lock(mu_);
  return rejected_;
}

void RequestQueue::ResetRejected() {
  MutexLock lock(mu_);
  rejected_ = 0;
}

}  // namespace uhscm::serve
