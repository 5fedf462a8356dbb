#ifndef UHSCM_COMMON_ANNOTATED_SYNC_H_
#define UHSCM_COMMON_ANNOTATED_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <source_location>

/// \file
/// Concurrency primitives for the serving stack: std::mutex /
/// std::shared_mutex / std::condition_variable wrappers that carry
///
///  1. Clang Thread Safety Analysis attributes, so `clang++
///     -Werror=thread-safety` proves at compile time that every
///     `UHSCM_GUARDED_BY` field is only touched under its lock and every
///     `UHSCM_REQUIRES` helper is only called with the right lock held.
///     The macros expand to nothing on GCC/MSVC, which therefore compile
///     the exact same code they always did.
///
///  2. A debug runtime lock-order checker. A mutex constructed with a
///     (name, rank) registers a process-wide lock class; every
///     acquisition is recorded in a per-thread held-set and feeds a
///     global acquired-before graph. The first acquisition that either
///     violates the declared rank order or closes a cycle in the graph
///     aborts immediately, printing both acquisition sites — turning a
///     potential deadlock that TSan needs a lucky interleaving to see
///     into a deterministic failure on any single execution of the two
///     code paths.
///
/// The global lock hierarchy (who may be acquired while holding what)
/// and the naming/ranking rules live in src/serve/README.md under
/// "Concurrency invariants".

// ---------------------------------------------------------------------------
// Thread Safety Analysis attribute macros (no-ops outside clang).
// NOLINTBEGIN(bugprone-macro-parentheses) -- attribute arguments are
// capability expressions and must be pasted unparenthesized.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define UHSCM_TSA(x) __attribute__((x))
#endif
#endif
#ifndef UHSCM_TSA
#define UHSCM_TSA(x)
#endif

#define UHSCM_CAPABILITY(x) UHSCM_TSA(capability(x))
#define UHSCM_SCOPED_CAPABILITY UHSCM_TSA(scoped_lockable)
#define UHSCM_GUARDED_BY(x) UHSCM_TSA(guarded_by(x))
#define UHSCM_PT_GUARDED_BY(x) UHSCM_TSA(pt_guarded_by(x))
#define UHSCM_ACQUIRED_BEFORE(...) UHSCM_TSA(acquired_before(__VA_ARGS__))
#define UHSCM_ACQUIRED_AFTER(...) UHSCM_TSA(acquired_after(__VA_ARGS__))
#define UHSCM_REQUIRES(...) UHSCM_TSA(requires_capability(__VA_ARGS__))
#define UHSCM_REQUIRES_SHARED(...) \
  UHSCM_TSA(requires_shared_capability(__VA_ARGS__))
#define UHSCM_ACQUIRE(...) UHSCM_TSA(acquire_capability(__VA_ARGS__))
#define UHSCM_ACQUIRE_SHARED(...) \
  UHSCM_TSA(acquire_shared_capability(__VA_ARGS__))
#define UHSCM_RELEASE(...) UHSCM_TSA(release_capability(__VA_ARGS__))
#define UHSCM_RELEASE_SHARED(...) \
  UHSCM_TSA(release_shared_capability(__VA_ARGS__))
#define UHSCM_RELEASE_GENERIC(...) \
  UHSCM_TSA(release_generic_capability(__VA_ARGS__))
#define UHSCM_TRY_ACQUIRE(...) UHSCM_TSA(try_acquire_capability(__VA_ARGS__))
#define UHSCM_EXCLUDES(...) UHSCM_TSA(locks_excluded(__VA_ARGS__))
#define UHSCM_ASSERT_CAPABILITY(x) UHSCM_TSA(assert_capability(x))
#define UHSCM_RETURN_CAPABILITY(x) UHSCM_TSA(lock_returned(x))
#define UHSCM_NO_THREAD_SAFETY_ANALYSIS UHSCM_TSA(no_thread_safety_analysis)
// NOLINTEND(bugprone-macro-parentheses)

namespace uhscm {
namespace lockorder {

/// Lock-class flag: instances of this class may nest inside each other
/// (same-name nesting), because the code always acquires them in one
/// globally consistent instance order — e.g. the per-shard rwlocks,
/// which Export() takes all at once in shard-index order.
inline constexpr unsigned kOrderedInstances = 1u << 0;

/// Acquisition site forwarded through the wrappers so a violation report
/// can name the exact file:line of both conflicting acquisitions. The
/// default argument materializes at the *call* site.
using AcquireSite = std::source_location;
#define UHSCM_ACQUIRE_SITE std::source_location::current()

struct LockClass;  // interned (name, rank, flags); defined in the .cc

/// Interns a lock class. Instances sharing a name share the class; the
/// registry aborts if the same name is re-registered with a different
/// rank or flags (a rank table typo, not a runtime condition).
/// `rank <= 0` means unranked: ordering is still enforced through the
/// acquired-before graph, just without the eager rank check.
const LockClass* RegisterLockClass(const char* name, int rank,
                                   unsigned flags = 0);

/// Records `cls` joining the calling thread's held-set. Aborts (printing
/// both acquisition sites) if the acquisition inverts the declared rank
/// order or closes a cycle in the global acquired-before graph. Called
/// *before* blocking on the underlying mutex so a real deadlock is
/// reported instead of hung.
void OnAcquire(const LockClass* cls, const void* instance,
               const AcquireSite& site);

/// Removes the most recent held-set entry for `instance` (locks may be
/// released out of LIFO order).
void OnRelease(const LockClass* cls, const void* instance);

/// Test hooks: number of violations reported so far, and whether
/// violations abort (default) or only count. Tests flip abort off to
/// assert on the report text without death-testing every case.
int ViolationCount();
void SetAbortOnViolation(bool abort_on_violation);

}  // namespace lockorder

/// std::mutex with TSA capability annotations and optional lock-order
/// checking. Default-constructed mutexes are order-unchecked (use for
/// strictly local or leaf locks that never nest); named mutexes
/// participate in the rank/graph checks.
class UHSCM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Registers under `name` in the lock-order checker. See the rank
  /// table in src/serve/README.md before picking a rank.
  explicit Mutex(const char* name, int rank = 0, unsigned flags = 0) {
    cls_ = lockorder::RegisterLockClass(name, rank, flags);
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(const lockorder::AcquireSite& site =
                UHSCM_ACQUIRE_SITE) UHSCM_ACQUIRE() {
    if (cls_ != nullptr) lockorder::OnAcquire(cls_, this, site);
    mu_.lock();
  }

  /// The checker forgets the lock before it is released: once mu_ is
  /// free another thread may destroy this mutex, so nothing here may
  /// touch `this` after the release.
  void unlock() UHSCM_RELEASE() {
    if (cls_ != nullptr) lockorder::OnRelease(cls_, this);
    mu_.unlock();
  }

  /// Never blocks, so it cannot participate in a deadlock cycle; on
  /// success the lock still joins the held-set so later nested
  /// acquisitions are checked against it.
  bool try_lock(const lockorder::AcquireSite& site =
                    UHSCM_ACQUIRE_SITE) UHSCM_TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok && cls_ != nullptr) lockorder::OnAcquire(cls_, this, site);
    return ok;
  }

  /// The wrapped native mutex, for interop that needs a std::mutex
  /// (CondVar waits route through here via UniqueLock).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
  const lockorder::LockClass* cls_ = nullptr;
};

/// std::shared_mutex with TSA capability annotations and lock-order
/// checking. Shared and exclusive acquisitions feed the same
/// acquired-before edges (an order inversion deadlocks either way once a
/// writer enters the mix).
class UHSCM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* name, int rank = 0, unsigned flags = 0) {
    cls_ = lockorder::RegisterLockClass(name, rank, flags);
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock(const lockorder::AcquireSite& site =
                UHSCM_ACQUIRE_SITE) UHSCM_ACQUIRE() {
    if (cls_ != nullptr) lockorder::OnAcquire(cls_, this, site);
    mu_.lock();
  }

  void unlock() UHSCM_RELEASE() {
    if (cls_ != nullptr) lockorder::OnRelease(cls_, this);
    mu_.unlock();
  }

  void lock_shared(const lockorder::AcquireSite& site =
                       UHSCM_ACQUIRE_SITE) UHSCM_ACQUIRE_SHARED() {
    if (cls_ != nullptr) lockorder::OnAcquire(cls_, this, site);
    mu_.lock_shared();
  }

  void unlock_shared() UHSCM_RELEASE_SHARED() {
    if (cls_ != nullptr) lockorder::OnRelease(cls_, this);
    mu_.unlock_shared();
  }

  std::shared_mutex& native() { return mu_; }

 private:
  std::shared_mutex mu_;
  const lockorder::LockClass* cls_ = nullptr;
};

/// std::lock_guard equivalent for Mutex.
class UHSCM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu, const lockorder::AcquireSite& site =
                                    UHSCM_ACQUIRE_SITE) UHSCM_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(site);
  }
  ~MutexLock() UHSCM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock equivalent for Mutex: relockable, and the handle
/// CondVar waits on. The wait itself releases/reacquires the native
/// mutex underneath without touching the held-set — the thread is
/// blocked for the whole release window, so it cannot create
/// acquired-before edges, and TSA likewise treats the capability as held
/// across the wait.
class UHSCM_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu, const lockorder::AcquireSite& site =
                                     UHSCM_ACQUIRE_SITE) UHSCM_ACQUIRE(mu)
      : mu_(&mu), site_(site) {
    mu_->lock(site);
    native_ = std::unique_lock<std::mutex>(mu_->native(), std::adopt_lock);
  }

  ~UniqueLock() UHSCM_RELEASE() {
    if (native_.owns_lock()) {
      native_.release();
      mu_->unlock();
    }
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void unlock() UHSCM_RELEASE() {
    native_.release();
    mu_->unlock();
  }

  /// Reacquires at the recorded construction site (the interesting site
  /// for order reports is where this scope first took the lock).
  void lock() UHSCM_ACQUIRE() {
    mu_->lock(site_);
    native_ = std::unique_lock<std::mutex>(mu_->native(), std::adopt_lock);
  }

  bool owns_lock() const { return native_.owns_lock(); }

 private:
  friend class CondVar;

  Mutex* mu_;
  std::unique_lock<std::mutex> native_;
  lockorder::AcquireSite site_;
};

/// std::shared_lock equivalent for SharedMutex (reader side).
class UHSCM_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu,
                      const lockorder::AcquireSite& site = UHSCM_ACQUIRE_SITE)
      UHSCM_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared(site);
  }
  ~SharedLock() UHSCM_RELEASE_GENERIC() { mu_.unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// std::unique_lock-over-shared_mutex equivalent (writer side).
class UHSCM_SCOPED_CAPABILITY ExclusiveLock {
 public:
  explicit ExclusiveLock(SharedMutex& mu,
                         const lockorder::AcquireSite& site =
                             UHSCM_ACQUIRE_SITE) UHSCM_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(site);
  }
  ~ExclusiveLock() UHSCM_RELEASE() { mu_.unlock(); }

  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// std::condition_variable wrapper operating on UniqueLock. Predicate
/// overloads are intentionally absent: TSA analyzes a predicate lambda
/// as a standalone function that does not hold the lock, so call sites
/// spell the standard `while (!pred) wait(...)` loop inline where the
/// analysis can see the capability. Keeps std::condition_variable (not
/// _any) underneath for its fast native-handle path.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) UHSCM_REQUIRES(*lock.mu_) {
    cv_.wait(lock.native_);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(UniqueLock& lock,
                            const std::chrono::time_point<Clock, Duration>& tp)
      UHSCM_REQUIRES(*lock.mu_) {
    return cv_.wait_until(lock.native_, tp);
  }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& dur)
      UHSCM_REQUIRES(*lock.mu_) {
    return cv_.wait_for(lock.native_, dur);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace uhscm

#endif  // UHSCM_COMMON_ANNOTATED_SYNC_H_
