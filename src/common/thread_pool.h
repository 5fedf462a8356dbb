#ifndef UHSCM_COMMON_THREAD_POOL_H_
#define UHSCM_COMMON_THREAD_POOL_H_

#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotated_sync.h"

namespace uhscm {

/// \brief Fixed-size worker pool used to parallelize embarrassingly
/// parallel kernels: VLP scoring of image/concept grids, pairwise
/// similarity blocks, and brute-force Hamming scans over the database.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>=1; 0 picks hardware concurrency).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// iterations finish. Iterations are chunked to limit scheduling
  /// overhead. Safe to call with count == 0. After Drain(), or when called
  /// from one of this pool's own workers (a nested loop), the loop runs
  /// inline on the calling thread — work is never dropped, and a nested
  /// loop cannot deadlock waiting for workers that are all busy.
  void ParallelFor(int count, const std::function<void(int)>& fn);

  /// Orderly shutdown: stops handing new work to the workers, lets every
  /// already-queued task finish, and joins all worker threads. Idempotent
  /// (the destructor calls it), and safe to call while other threads are
  /// inside ParallelFor — their in-flight chunks complete before the join
  /// returns. Subsequent ParallelFor calls degrade to inline execution,
  /// so callers holding a drained pool keep working, just serially. This
  /// is the seam the async serve pipeline uses to sequence "flush
  /// in-flight batches, then tear down the pool" without racing the
  /// worker threads at process exit.
  void Drain();

 private:
  struct Task {
    std::function<void()> fn;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_{"pool.queue", 36};
  CondVar cv_;
  std::queue<Task> queue_ UHSCM_GUARDED_BY(mu_);
  bool stop_ UHSCM_GUARDED_BY(mu_) = false;
  /// Serializes Drain callers so a second Drain (or the destructor)
  /// cannot return while the first is still joining workers.
  Mutex drain_mu_{"pool.drain", 40};
  bool drained_ UHSCM_GUARDED_BY(drain_mu_) = false;
};

/// Convenience wrapper over a process-wide pool (lazily created, never
/// destroyed per the static-destruction rules).
void ParallelFor(int count, const std::function<void(int)>& fn);

}  // namespace uhscm

#endif  // UHSCM_COMMON_THREAD_POOL_H_
