// Tests for the runtime lock-rank checker and the instrumented sync layer
// (common/sync.h): ordered acquisition is counted and allowed, out-of-order
// acquisition dies with both lock names, and a deliberately mis-ranked test
// lock held across a real ts::HypertableStore call proves the checker guards
// production paths, not just toy mutexes. Also covers the injectable
// contention clock (SyncInstruments::clock).
//
// The helpers below lock and unlock manually — they exercise the raw
// capability API (including deliberately unbalanced sequences that must
// die) — so they opt out of the compile-time analysis the rest of the tree
// is checked under.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/sync.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "ts/hypertable.h"

namespace hygraph {
namespace {

void LockBoth(Mutex& first, Mutex& second) HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
  first.lock();
  second.lock();
}

void UnlockBoth(Mutex& first,
                Mutex& second) HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
  second.unlock();
  first.unlock();
}

void LockUnlock(Mutex& mu) HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
  mu.lock();
  mu.unlock();
}

TEST(LockRankTest, InOrderAcquisitionIsCountedAndAllowed) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  obs::MetricsRegistry reg;
  const SyncInstruments in = SyncInstruments::ForRegistry(&reg);
  Mutex low(LockRank::kDurableAppend, in);
  Mutex high(LockRank::kColdTier, in);
  LockBoth(low, high);  // 55 after 10: strictly increasing, fine
  UnlockBoth(low, high);
  EXPECT_EQ(reg.counter("concurrency.lock_rank_checks")->value(), 2u);
}

TEST(LockRankTest, ReleaseUnwindsTheHeldStack) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  Mutex high(LockRank::kColdTier);
  Mutex low(LockRank::kDurableAppend);
  // Taking low AFTER releasing high must be legal — the checker compares
  // against locks still held, not the high-water mark.
  LockUnlock(high);
  LockUnlock(low);
  EXPECT_EQ(sync_internal::HeldRankedLocks(), 0u);
}

bool TryLockHeldCount(Mutex& mu,
                      size_t* held) HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
  if (!mu.try_lock()) return false;
  *held = sync_internal::HeldRankedLocks();
  mu.unlock();
  return true;
}

TEST(LockRankTest, TryLockRegistersTheRankOnSuccess) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  Mutex high(LockRank::kColdTier);
  size_t held_while_locked = 0;
  ASSERT_TRUE(TryLockHeldCount(high, &held_while_locked));
  EXPECT_EQ(held_while_locked, 1u);
  EXPECT_EQ(sync_internal::HeldRankedLocks(), 0u);
}

void SharedThenExclusive(SharedMutex& low,
                         SharedMutex& high) HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
  low.lock_shared();
  high.lock();
  high.unlock();
  low.unlock_shared();
}

TEST(LockRankTest, SharedAndExclusiveModesBothCheck) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  obs::MetricsRegistry reg;
  const SyncInstruments in = SyncInstruments::ForRegistry(&reg);
  SharedMutex low(LockRank::kStoreCoarse, in);
  SharedMutex high(LockRank::kSeriesShard, in);
  SharedThenExclusive(low, high);
  EXPECT_EQ(reg.counter("concurrency.lock_rank_checks")->value(), 2u);
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionDiesNamingBothLocks) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex high(LockRank::kSeriesShard);
  Mutex low(LockRank::kStoreCoarse);
  EXPECT_DEATH(
      LockBoth(high, low),  // 20 after 40: inversion
      "lock-rank inversion: acquiring store\\.coarse_guard \\(rank 20\\) "
      "while holding hypertable\\.series_shard_mu \\(rank 40\\)");
}

TEST(LockRankDeathTest, EqualRankReacquisitionDies) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a(LockRank::kSeriesMap);
  Mutex b(LockRank::kSeriesMap);
  // Same rank: the hierarchy demands STRICTLY increasing ranks.
  EXPECT_DEATH(LockBoth(a, b), "lock-rank inversion");
}

void HoldAndInsert(Mutex& poison, ts::HypertableStore& store,
                   SeriesId id) HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
  poison.lock();
  const Status st = store.Insert(id, 0, 1.0);
  (void)st;
  poison.unlock();
}

TEST(LockRankDeathTest, ChecksGuardRealProductionPaths) {
  if (!kLockRankChecksEnabled) GTEST_SKIP() << "rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A seeded inversion against real engine code: hold a lock ranked ABOVE
  // the hypertable hierarchy, then call into ts::HypertableStore — its series
  // map lock (kSeriesMap = 30) must refuse to nest under rank 55.
  ts::HypertableStore store;
  const SeriesId id = store.Create("sensor");
  Mutex poison(LockRank::kColdTier);
  EXPECT_DEATH(HoldAndInsert(poison, store, id),
               "lock-rank inversion: acquiring hypertable\\.series_map_mu");
}

TEST(SyncInstrumentsTest, ContentionHistogramUsesInjectedClock) {
  obs::MetricsRegistry reg;
  obs::ManualClock clock;
  clock.set_auto_advance(500);
  const SyncInstruments in = SyncInstruments::ForRegistry(&reg, &clock);
  // Drive the slow path directly with fakes: try_lock fails (forcing the
  // contended branch), the blocking lock is a no-op, and the two clock
  // reads around it land exactly one auto-advance apart.
  sync_internal::AcquireTimed(
      in, in.exclusive_acquisitions, []() {}, []() { return false; });
  EXPECT_EQ(reg.counter("concurrency.lock_exclusive")->value(), 1u);
  EXPECT_EQ(reg.counter("concurrency.lock_contentions")->value(), 1u);
  const obs::HistogramSnapshot h =
      reg.histogram("concurrency.lock_contention_nanos")->Snapshot();
  ASSERT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, 500u);
}

TEST(SyncInstrumentsTest, UncontendedAcquireRecordsNoContention) {
  obs::MetricsRegistry reg;
  obs::ManualClock clock;
  const SyncInstruments in = SyncInstruments::ForRegistry(&reg, &clock);
  sync_internal::AcquireTimed(
      in, in.exclusive_acquisitions, []() {}, []() { return true; });
  EXPECT_EQ(reg.counter("concurrency.lock_exclusive")->value(), 1u);
  EXPECT_EQ(reg.counter("concurrency.lock_contentions")->value(), 0u);
  EXPECT_EQ(reg.histogram("concurrency.lock_contention_nanos")->count(), 0u);
}

void HoldUntilContended(Mutex& mu, obs::MetricsRegistry& reg,
                        std::atomic<bool>& locked)
    HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
  mu.lock();
  std::thread waiter([&mu, &locked]() HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
    mu.lock();
    locked.store(true);
    mu.unlock();
  });
  // Spin until the waiter has hit the contended slow path, then release.
  while (reg.counter("concurrency.lock_contentions")->value() == 0) {
  }
  mu.unlock();
  waiter.join();
}

TEST(SyncInstrumentsTest, MutexContentionTimedWithManualClock) {
  // End-to-end through hygraph::Mutex: a second thread holds the lock so
  // the main thread takes the contended branch; the injected ManualClock
  // keeps the contention timing deterministic in source (no raw
  // steady_clock reads) even though the wait itself is real.
  obs::MetricsRegistry reg;
  obs::ManualClock clock;
  clock.set_auto_advance(1);
  const SyncInstruments in = SyncInstruments::ForRegistry(&reg, &clock);
  Mutex mu(LockRank::kDurableAppend, in);
  std::atomic<bool> locked{false};
  HoldUntilContended(mu, reg, locked);
  EXPECT_TRUE(locked.load());
  EXPECT_EQ(reg.counter("concurrency.lock_contentions")->value(), 1u);
  EXPECT_EQ(reg.histogram("concurrency.lock_contention_nanos")->count(), 1u);
}

}  // namespace
}  // namespace hygraph
