// Tests for the runtime lock-order checker behind the annotated mutex
// wrappers (src/common/annotated_sync.h). Violations are exercised both
// ways: as death tests (the production behavior — first inversion
// aborts, naming both acquisition sites) and with aborting disabled so
// one process can count several reports. Lock-class names here all use
// a "test." prefix so they can never collide with (or re-rank) the
// production hierarchy, which is registered lazily in this same binary.

#include <gtest/gtest.h>

#include "common/annotated_sync.h"

namespace uhscm {
namespace {

/// Flips abort-on-violation off for one test and always restores it, so
/// a failing assertion cannot leak counting mode into later tests.
class CountDontAbort {
 public:
  CountDontAbort() { lockorder::SetAbortOnViolation(false); }
  ~CountDontAbort() { lockorder::SetAbortOnViolation(true); }
};

TEST(LockOrderTest, CorrectRankOrderIsSilent) {
  Mutex hi("test.clean_hi", 200);
  Mutex lo("test.clean_lo", 190);
  const int before = lockorder::ViolationCount();
  for (int i = 0; i < 100; ++i) {
    MutexLock outer(hi);
    MutexLock inner(lo);
  }
  EXPECT_EQ(lockorder::ViolationCount(), before);
}

TEST(LockOrderTest, SharedAcquisitionsFeedTheSameOrder) {
  SharedMutex hi("test.shared_hi", 200);
  Mutex lo("test.shared_lo", 190);
  const int before = lockorder::ViolationCount();
  {
    SharedLock outer(hi);
    MutexLock inner(lo);
  }
  {
    ExclusiveLock outer(hi);
    MutexLock inner(lo);
  }
  EXPECT_EQ(lockorder::ViolationCount(), before);
}

TEST(LockOrderDeathTest, RankInversionAbortsNamingBothSites) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Acquiring the higher-ranked lock while the lower-ranked one is held
  // must abort on the spot — and the report must carry this file as
  // both the held site and the acquiring site.
  EXPECT_DEATH(
      {
        Mutex hi("test.death_hi", 200);
        Mutex lo("test.death_lo", 190);
        MutexLock outer(lo);
        MutexLock inner(hi);
      },
      "rank inversion acquiring \"test\\.death_hi\".*"
      "lock_order_test\\.cc.*while holding \"test\\.death_lo\".*"
      "lock_order_test\\.cc");
}

TEST(LockOrderDeathTest, AcquiredBeforeCycleAbortsAtSecondOrder) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Unranked classes fall back to the acquired-before graph: A→B on the
  // first pass, then B→A closes the cycle and must abort even though no
  // rank was declared for either lock.
  EXPECT_DEATH(
      {
        Mutex a("test.cycle_a");
        Mutex b("test.cycle_b");
        {
          MutexLock outer(a);
          MutexLock inner(b);
        }
        MutexLock outer(b);
        MutexLock inner(a);
      },
      "acquiring \"test\\.cycle_a\".*while holding \"test\\.cycle_b\".*"
      "closes an acquired-before cycle");
}

TEST(LockOrderDeathTest, RankTableTypoIsFatal) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Re-registering a name with a different rank is a table typo, fatal
  // regardless of the abort-on-violation test hook.
  EXPECT_DEATH(
      {
        Mutex first("test.reranked", 50);
        Mutex second("test.reranked", 60);
      },
      "re-registered with rank 60");
}

TEST(LockOrderTest, InversionCountsWhenAbortDisabled) {
  CountDontAbort guard;
  Mutex hi("test.count_hi", 200);
  Mutex lo("test.count_lo", 190);
  const int before = lockorder::ViolationCount();
  {
    MutexLock outer(lo);
    MutexLock inner(hi);
  }
  EXPECT_EQ(lockorder::ViolationCount(), before + 1);
}

TEST(LockOrderTest, SameClassNestingNeedsOrderedInstances) {
  CountDontAbort guard;
  // Without the flag, nesting two instances of one class is reported...
  Mutex a("test.unordered_pair");
  Mutex b("test.unordered_pair");
  const int before = lockorder::ViolationCount();
  {
    MutexLock outer(a);
    MutexLock inner(b);
  }
  EXPECT_EQ(lockorder::ViolationCount(), before + 1);
  // ...and with it (the shard-lock pattern: Export takes every shard
  // lock in index order) the same shape is silent.
  SharedMutex c("test.ordered_pair", 0, lockorder::kOrderedInstances);
  SharedMutex d("test.ordered_pair", 0, lockorder::kOrderedInstances);
  {
    SharedLock outer(c);
    SharedLock inner(d);
  }
  EXPECT_EQ(lockorder::ViolationCount(), before + 1);
}

TEST(LockOrderTest, ReleaseOutOfLifoOrderIsHandled)  {
  // UniqueLock supports early unlock, so locks can leave the held-set
  // out of stack order; the checker must keep tracking the survivor.
  Mutex hi("test.lifo_hi", 200);
  Mutex lo("test.lifo_lo", 190);
  const int before = lockorder::ViolationCount();
  UniqueLock outer(hi);
  UniqueLock inner(lo);
  outer.unlock();
  // hi is gone from the held-set: re-acquiring it while lo is held is a
  // genuine inversion and must still be seen — twice over, in fact: as
  // a rank inversion, and as a cycle against the hi→lo edge the initial
  // correct nesting recorded in the acquired-before graph.
  CountDontAbort guard;
  outer.lock();
  EXPECT_EQ(lockorder::ViolationCount(), before + 2);
}

TEST(LockOrderTest, UncheckedMutexesStayOutOfTheGraph) {
  // Default-constructed (unnamed) mutexes are order-exempt by design —
  // the ParallelFor completion-latch pattern.
  Mutex anon_a;
  Mutex anon_b;
  Mutex ranked("test.anon_neighbor", 190);
  const int before = lockorder::ViolationCount();
  {
    MutexLock outer(anon_a);
    MutexLock inner(anon_b);
  }
  {
    MutexLock outer(ranked);
    MutexLock inner(anon_a);
  }
  EXPECT_EQ(lockorder::ViolationCount(), before);
}

}  // namespace
}  // namespace uhscm
