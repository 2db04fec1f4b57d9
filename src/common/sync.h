#ifndef HYGRAPH_COMMON_SYNC_H_
#define HYGRAPH_COMMON_SYNC_H_

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace hygraph {

/// Instrumented mutex wrappers — the only way library code takes a lock
/// (scripts/hygraph_lint.py forbids raw std mutexes in src/ outside this
/// header and src/obs/, which sits beneath the sync layer: the registry
/// mutex cannot be instrumented by the registry it guards).
///
/// Every wrapper optionally carries SyncInstruments, raw pointers into a
/// MetricsRegistry resolved once at construction. The uncontended path
/// costs one relaxed counter add on top of the std primitive; only when a
/// try_lock fast path fails does the wrapper read the clock twice to
/// record the wait in the contention histogram. Default-constructed
/// wrappers are uninstrumented and add no overhead at all.
///
/// Lock hierarchy (DESIGN.md §10, rank table in §12) — no longer prose:
/// it is MACHINE-CHECKED twice over. (1) Compile time: the wrappers are
/// Clang thread-safety capabilities (common/thread_annotations.h), so
/// under HYGRAPH_THREAD_SAFETY every HYGRAPH_GUARDED_BY field access is
/// proven to hold the right lock. (2) Runtime: every lock carries an
/// optional LockRank from the hierarchy below; debug builds (or any build
/// with HYGRAPH_LOCK_RANK_CHECKS=1) keep a thread-local stack of held
/// ranks and fatally report any acquisition that is not strictly
/// descending the hierarchy, naming both locks. Acquisitions must follow
/// rank order (lower rank value first); no method of a lower layer calls
/// back up while holding its lock.

/// The fixed acquisition order, top of the hierarchy first. Ranks are
/// spaced by 10 so a future layer can slot between existing ones without
/// renumbering. kUnranked locks (the default) opt out of runtime order
/// checking — every named lock in src/ must carry a rank or an explicit
/// NOLINT(hygraph-unranked-lock) (enforced by scripts/hygraph_lint.py).
enum class LockRank : int {
  kUnranked = 0,
  /// HgqlServer connection/session registry (src/server/server.cc). The
  /// server is the top entry layer, so its locks rank above (numerically
  /// below) everything it can call into.
  kServerState = 2,
  /// Group-commit ticket mutex (src/server/group_commit.cc). Never held
  /// across the WAL append or sync itself — the leader releases it before
  /// calling DurableStore::SyncWal() — but parked followers block on it,
  /// so it must sit above kDurableAppend in the hierarchy.
  kServerCommit = 4,
  /// DurableStore append mutex (serializes WAL append + apply).
  kDurableAppend = 10,
  /// DurableStore WAL fsync mutex. SyncWal acquires append_mu_ ->
  /// wal_sync_mu_, then RELEASES append_mu_ and fsyncs holding only this
  /// lock, so mutators keep appending while a group-commit leader waits on
  /// the disk. Rotation sites (checkpoint, WAL rebuild) take it while
  /// holding append_mu_ — the same acquisition order — to drain an
  /// in-flight fsync before closing the old writer.
  kDurableWalSync = 12,
  /// Store coarse guard (AllInGraphStore / PolyglotStore reader-writer
  /// lock over graph + series maps).
  kStoreCoarse = 20,
  /// PolyglotStore publication mutex: guards the published snapshot it
  /// hands out while nothing changes. Taken under the coarse guard (shared
  /// in BeginSnapshot, exclusive when the graph or the maps change), held
  /// across the hypertable's publish.
  kStorePublish = 25,
  /// Hypertable series-map lock (exclusive only in Create).
  kSeriesMap = 30,
  /// Hypertable publication mutex: serializes Fork()'s republish, which
  /// takes the shard lock of every series written since the last one.
  kSeriesPublish = 35,
  /// Per-series shard lock (one SharedMutex per series).
  kSeriesShard = 40,
  /// Hypertable written-series list: writers queue a series for the next
  /// publish on its first write since the last one, shard lock held.
  kSeriesWritten = 42,
  /// Cold-tier segment/cache state (storage/segment). Acquirable under a
  /// series shard lock (spill writes and lazy pins happen while the shard
  /// is held or while decoding pinned chunks) and under durable.append_mu_
  /// (checkpoint catalog writes); only the env leaf sits below it.
  kColdTier = 55,
  /// FaultInjectionEnv bookkeeping (leaf: taken around fault-state reads
  /// and writes, never while calling back into the engine).
  kEnvState = 60,
};

constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "unranked";
    case LockRank::kServerState:
      return "server.state_mu";
    case LockRank::kServerCommit:
      return "server.commit_mu";
    case LockRank::kDurableAppend:
      return "durable.append_mu";
    case LockRank::kDurableWalSync:
      return "durable.wal_sync_mu";
    case LockRank::kStoreCoarse:
      return "store.coarse_guard";
    case LockRank::kStorePublish:
      return "store.publish_mu";
    case LockRank::kSeriesMap:
      return "hypertable.series_map_mu";
    case LockRank::kSeriesPublish:
      return "hypertable.publish_mu";
    case LockRank::kSeriesShard:
      return "hypertable.series_shard_mu";
    case LockRank::kSeriesWritten:
      return "hypertable.written_mu";
    case LockRank::kColdTier:
      return "segment_store.state_mu";
    case LockRank::kEnvState:
      return "fault_injection_env.state_mu";
  }
  return "unknown";
}

// Runtime lock-rank checking is on in debug builds and whenever the build
// defines HYGRAPH_LOCK_RANK_CHECKS=1 (the HYGRAPH_LOCK_RANK_CHECKS CMake
// option; scripts/tier1.sh runs the full ctest suite with it on). Release
// builds without the option pay nothing.
#if defined(HYGRAPH_LOCK_RANK_CHECKS)
#define HYGRAPH_LOCK_RANK_CHECKS_ENABLED_ HYGRAPH_LOCK_RANK_CHECKS
#elif !defined(NDEBUG)
#define HYGRAPH_LOCK_RANK_CHECKS_ENABLED_ 1
#else
#define HYGRAPH_LOCK_RANK_CHECKS_ENABLED_ 0
#endif

inline constexpr bool kLockRankChecksEnabled =
    HYGRAPH_LOCK_RANK_CHECKS_ENABLED_ != 0;

/// Counter set shared by every lock of one store. Null members (the
/// default) disable instrumentation for that event.
struct SyncInstruments {
  obs::Counter* exclusive_acquisitions = nullptr;
  obs::Counter* shared_acquisitions = nullptr;
  obs::Counter* contentions = nullptr;
  obs::Histogram* contention_nanos = nullptr;
  /// Lock-rank order checks performed (see LockRank); stays 0 in builds
  /// with checking compiled out.
  obs::Counter* rank_checks = nullptr;
  /// Clock for timing contended acquisitions. Null (the default) resolves
  /// to obs::SystemClock at the point of use, so tests can inject an
  /// obs::ManualClock and assert on the contention histogram
  /// deterministically (the raw-clock rule: no direct steady_clock reads).
  const obs::Clock* clock = nullptr;

  /// Resolves the "concurrency.*" instruments in `registry` (get-or-create;
  /// stores sharing a registry share the counters). Null registry yields
  /// uninstrumented locks. `clock` overrides the contention-timing clock
  /// (null = SystemClock).
  static SyncInstruments ForRegistry(obs::MetricsRegistry* registry,
                                     const obs::Clock* clock = nullptr) {
    if (registry == nullptr) return {};
    SyncInstruments in;
    in.exclusive_acquisitions = registry->counter("concurrency.lock_exclusive");
    in.shared_acquisitions = registry->counter("concurrency.lock_shared");
    in.contentions = registry->counter("concurrency.lock_contentions");
    in.contention_nanos = registry->histogram("concurrency.lock_contention_nanos");
    in.rank_checks = registry->counter("concurrency.lock_rank_checks");
    in.clock = clock;
    return in;
  }
};

namespace sync_internal {

/// Fast path: try_lock, count nothing extra. Slow path: count the
/// contention and time the blocking acquire. The contention clock is the
/// injectable SyncInstruments::clock, falling back to the system clock.
template <typename LockFn, typename TryFn>
void AcquireTimed(const SyncInstruments& in, obs::Counter* acquisitions,
                  LockFn&& lock, TryFn&& try_lock) {
  if (acquisitions != nullptr) acquisitions->Increment();
  if (try_lock()) return;
  if (in.contentions != nullptr) in.contentions->Increment();
  if (in.contention_nanos != nullptr) {
    const obs::Clock* clock =
        in.clock != nullptr ? in.clock : obs::SystemClock::Instance();
    const uint64_t start = clock->NowNanos();
    lock();
    in.contention_nanos->Record(clock->NowNanos() - start);
    return;
  }
  lock();
}

#if HYGRAPH_LOCK_RANK_CHECKS_ENABLED_

/// Thread-local stack of ranked locks this thread currently holds. Fixed
/// capacity: the real hierarchy is under 10 deep; 64 leaves room for
/// pathological tests without ever allocating on a lock path.
struct HeldLockStack {
  static constexpr size_t kCapacity = 64;
  struct Entry {
    const void* lock;
    LockRank rank;
  };
  Entry entries[kCapacity];
  size_t size = 0;
};

inline thread_local HeldLockStack held_locks;

/// Out-of-order acquisition is a latent deadlock: report both lock names
/// and die. Not recoverable by design — the point of the checker is that
/// the full ctest suite (tier-1 runs it with checking on) cannot pass
/// while any code path acquires against the hierarchy.
[[noreturn]] inline void ReportRankInversion(LockRank held, LockRank acquiring) {
  std::fprintf(stderr,
               "hygraph lock-rank inversion: acquiring %s (rank %d) while "
               "holding %s (rank %d); the hierarchy in DESIGN.md §10 "
               "requires strictly increasing ranks\n",
               LockRankName(acquiring), static_cast<int>(acquiring),
               LockRankName(held), static_cast<int>(held));
  std::abort();
}

/// Fatal scan against every held ranked lock; counts one rank check.
inline void RankCheck(LockRank rank, obs::Counter* rank_checks) {
  if (rank == LockRank::kUnranked) return;
  if (rank_checks != nullptr) rank_checks->Increment();
  const HeldLockStack& s = held_locks;
  for (size_t i = 0; i < s.size; ++i) {
    if (s.entries[i].rank >= rank) {
      ReportRankInversion(s.entries[i].rank, rank);
    }
  }
}

inline void RankPush(const void* lock, LockRank rank) {
  if (rank == LockRank::kUnranked) return;
  HeldLockStack& s = held_locks;
  if (s.size < HeldLockStack::kCapacity) {
    s.entries[s.size++] = {lock, rank};
  }
}

inline void RankPop(const void* lock, LockRank rank) {
  if (rank == LockRank::kUnranked) return;
  HeldLockStack& s = held_locks;
  for (size_t i = s.size; i > 0; --i) {
    if (s.entries[i - 1].lock == lock) {
      for (size_t j = i - 1; j + 1 < s.size; ++j) {
        s.entries[j] = s.entries[j + 1];
      }
      --s.size;
      return;
    }
  }
}

/// Ranked locks the calling thread holds right now (tests assert it
/// returns to zero at quiescence).
inline size_t HeldRankedLocks() { return held_locks.size; }

#else  // !HYGRAPH_LOCK_RANK_CHECKS_ENABLED_

inline void RankCheck(LockRank, obs::Counter*) {}
inline void RankPush(const void*, LockRank) {}
inline void RankPop(const void*, LockRank) {}
inline size_t HeldRankedLocks() { return 0; }

#endif  // HYGRAPH_LOCK_RANK_CHECKS_ENABLED_

}  // namespace sync_internal

/// Instrumented std::mutex and a Clang thread-safety capability; lock with
/// hygraph::MutexLock. Construct with a LockRank so debug builds verify
/// the acquisition order at runtime.
class HYGRAPH_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const SyncInstruments& instruments) : in_(instruments) {}
  explicit Mutex(LockRank rank, const SyncInstruments& instruments = {})
      : in_(instruments), rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HYGRAPH_ACQUIRE() {
    sync_internal::RankCheck(rank_, in_.rank_checks);
    sync_internal::AcquireTimed(
        in_, in_.exclusive_acquisitions, [this] { mu_.lock(); },
        [this] { return mu_.try_lock(); });
    sync_internal::RankPush(this, rank_);
  }
  bool try_lock() HYGRAPH_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::RankCheck(rank_, in_.rank_checks);
    sync_internal::RankPush(this, rank_);
    if (in_.exclusive_acquisitions != nullptr) {
      in_.exclusive_acquisitions->Increment();
    }
    return true;
  }
  void unlock() HYGRAPH_RELEASE() {
    sync_internal::RankPop(this, rank_);
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  SyncInstruments in_;
  LockRank rank_ = LockRank::kUnranked;
};

/// Instrumented std::shared_mutex, capability-annotated; lock with
/// hygraph::SharedLock (shared) / hygraph::ExclusiveLock (exclusive).
/// Shared acquisitions participate in rank checking exactly like
/// exclusive ones.
class HYGRAPH_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const SyncInstruments& instruments) : in_(instruments) {}
  explicit SharedMutex(LockRank rank, const SyncInstruments& instruments = {})
      : in_(instruments), rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() HYGRAPH_ACQUIRE() {
    sync_internal::RankCheck(rank_, in_.rank_checks);
    sync_internal::AcquireTimed(
        in_, in_.exclusive_acquisitions, [this] { mu_.lock(); },
        [this] { return mu_.try_lock(); });
    sync_internal::RankPush(this, rank_);
  }
  bool try_lock() HYGRAPH_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::RankCheck(rank_, in_.rank_checks);
    sync_internal::RankPush(this, rank_);
    if (in_.exclusive_acquisitions != nullptr) {
      in_.exclusive_acquisitions->Increment();
    }
    return true;
  }
  void unlock() HYGRAPH_RELEASE() {
    sync_internal::RankPop(this, rank_);
    mu_.unlock();
  }

  void lock_shared() HYGRAPH_ACQUIRE_SHARED() {
    sync_internal::RankCheck(rank_, in_.rank_checks);
    sync_internal::AcquireTimed(
        in_, in_.shared_acquisitions, [this] { mu_.lock_shared(); },
        [this] { return mu_.try_lock_shared(); });
    sync_internal::RankPush(this, rank_);
  }
  bool try_lock_shared() HYGRAPH_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    sync_internal::RankCheck(rank_, in_.rank_checks);
    sync_internal::RankPush(this, rank_);
    if (in_.shared_acquisitions != nullptr) {
      in_.shared_acquisitions->Increment();
    }
    return true;
  }
  void unlock_shared() HYGRAPH_RELEASE_SHARED() {
    sync_internal::RankPop(this, rank_);
    mu_.unlock_shared();
  }

  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  SyncInstruments in_;
  LockRank rank_ = LockRank::kUnranked;
};

/// Scoped locks. These replace the former std::lock_guard /
/// std::shared_lock aliases with SCOPED_CAPABILITY types the analysis
/// understands: constructing one acquires the capability for the enclosing
/// scope, so guarded fields become accessible without warnings. They are
/// deliberately minimal — no defer/adopt/manual-unlock surface — because a
/// lock whose hold interval is not a lexical scope cannot be proven by the
/// analysis (and nothing in this tree needs one).
class HYGRAPH_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HYGRAPH_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() HYGRAPH_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

class HYGRAPH_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) HYGRAPH_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;
  ~SharedLock() HYGRAPH_RELEASE() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

class HYGRAPH_SCOPED_CAPABILITY ExclusiveLock {
 public:
  explicit ExclusiveLock(SharedMutex& mu) HYGRAPH_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;
  ~ExclusiveLock() HYGRAPH_RELEASE() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

}  // namespace hygraph

#endif  // HYGRAPH_COMMON_SYNC_H_
