#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

namespace uhscm {

namespace {

/// The pool whose worker this thread is, or null on any other thread.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 4;
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Drain(); }

void ThreadPool::Drain() {
  MutexLock drain_lock(drain_mu_);
  if (drained_) return;
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers exit only once the task queue is empty, so everything queued
  // before the drain still runs; ParallelFor callers blocked on their
  // chunks are released before the join completes.
  for (auto& w : workers_) w.join();
  drained_ = true;
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    Task task;
    {
      UniqueLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task.fn();
  }
}

void ThreadPool::ParallelFor(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  // A loop issued from one of this pool's own workers runs inline: queued
  // chunks could wait behind workers that are all blocked the same way.
  int nthreads = 0;
  if (current_pool != this) {
    MutexLock lock(mu_);
    nthreads = stop_ ? 0 : num_threads();
  }
  if (count == 1 || nthreads <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  const int chunks = std::min(count, nthreads * 4);
  // Relaxed claim counter: each fetch_add hands out a distinct chunk;
  // `done` is only ever mutated and checked under done_mu below.
  std::atomic<int> next_chunk{0};
  std::atomic<int> done{0};
  // Plain std primitives: strictly function-local completion latch, never
  // nested under another lock by the worker side.
  std::mutex done_mu;
  std::condition_variable done_cv;

  auto body = [&] {
    for (;;) {
      const int c = next_chunk.fetch_add(1);
      if (c >= chunks) break;
      const int begin = static_cast<int>(
          static_cast<int64_t>(c) * count / chunks);
      const int end = static_cast<int>(
          static_cast<int64_t>(c + 1) * count / chunks);
      for (int i = begin; i < end; ++i) fn(i);
    }
    {
      std::lock_guard<std::mutex> lock(done_mu);
      ++done;
      // Notify under the lock: the waiter owns done_cv on its stack and
      // may destroy it the moment it observes done == jobs, so the
      // signal must complete before this thread releases done_mu (the
      // waiter cannot return from wait() until it reacquires it).
      done_cv.notify_one();
    }
  };

  const int jobs = std::min(chunks, nthreads);
  {
    UniqueLock lock(mu_);
    if (stop_) {
      // Drained between the size check and the enqueue: no workers will
      // drain the queue anymore, so run the loop inline instead.
      lock.unlock();
      for (int i = 0; i < count; ++i) fn(i);
      return;
    }
    for (int j = 0; j < jobs; ++j) queue_.push(Task{body});
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == jobs; });
}

void ParallelFor(int count, const std::function<void(int)>& fn) {
  // Function-local static pointer, never deleted (static-destruction-safe).
  static ThreadPool* pool = new ThreadPool();
  pool->ParallelFor(count, fn);
}

}  // namespace uhscm
