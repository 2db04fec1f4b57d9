#ifndef HYGRAPH_STORAGE_FAULT_INJECTION_ENV_H_
#define HYGRAPH_STORAGE_FAULT_INJECTION_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "storage/env.h"

namespace hygraph::storage {

/// An Env wrapper that simulates crashes and media faults, in the style of
/// RocksDB's FaultInjectionTestEnv. It forwards every call to a base Env
/// while
///
///   * counting mutating filesystem operations (append, sync, rename,
///     remove, create, truncate);
///   * optionally "crashing" after a configured number of those operations
///     — the operation at the crash point fails with kIOError (an Append
///     may first perform a deterministic short write, modelling a torn
///     page), and every later mutating operation fails too, as if the
///     process had died;
///   * tracking, per file, how many bytes have been made durable by Sync,
///     so that DropUnsyncedData() can roll every file back to its synced
///     prefix — the state a real filesystem may present after power loss.
///
/// Two fault families, explicitly distinct:
///
///   TERMINAL (SetCrashAfter / Crash): the "device died / power lost"
///   model. Once entered, every mutating operation fails until Revive();
///   nothing written after the crash point is observed by the base env
///   (beyond the deterministic torn prefix). This is what the crash-matrix
///   recovery tests exercise.
///
///   TRANSIENT (SetTransientFailNext / SetTransientEveryN /
///   SetTransientProbability): the "I/O hiccup" model — a mutating
///   operation fails with kIOError but performs NO side effect, and the
///   env immediately heals, so a retry of the same operation can succeed.
///   This is what RetryPolicy and DurableStore's degraded-mode logic are
///   tested against. Transient faults never fire while crashed, and a
///   terminal crash scheduled for an op takes precedence over any
///   transient mode, so arming transient faults cannot shift existing
///   crash schedules.
///
/// Test protocol for terminal faults: run a workload until it hits the
/// injected crash, call DropUnsyncedData(), Revive(), then recover and
/// compare against an oracle of acknowledged writes. Transient faults need
/// no revive: assert on transient_faults() and the caller's retry
/// behavior.
class FaultInjectionEnv final : public Env {
 public:
  /// What survives of un-synced bytes when the "power" goes out.
  enum class UnsyncedLoss {
    kDropAll,      ///< un-synced bytes all vanish (fsync barrier honored)
    kKeepPrefix,   ///< a deterministic prefix survives → torn tail
  };

  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  // -- fault control ---------------------------------------------------------

  /// Crashes once `ops` more mutating operations have been attempted
  /// (the (ops+1)-th fails). Pass no limit by never calling this.
  void SetCrashAfter(uint64_t ops) {
    MutexLock lock(mu_);
    crash_after_ = op_count_ + ops;
    armed_ = true;
  }
  /// Immediately enters the crashed state.
  void Crash() {
    MutexLock lock(mu_);
    crashed_ = true;
  }
  bool crashed() const {
    MutexLock lock(mu_);
    return crashed_;
  }
  /// Mutating operations attempted so far (failed ones included).
  uint64_t op_count() const {
    MutexLock lock(mu_);
    return op_count_;
  }

  /// Rolls every tracked file back to its synced prefix (see UnsyncedLoss).
  /// Call while "crashed", before Revive(); uses the base env directly.
  Status DropUnsyncedData(UnsyncedLoss loss = UnsyncedLoss::kDropAll);

  /// Clears the crashed state — the "process restart" before recovery.
  void Revive() {
    MutexLock lock(mu_);
    crashed_ = false;
    armed_ = false;
  }

  // -- transient fault control (error once, then heal) -----------------------

  /// The next `count` mutating operations fail with kIOError and no side
  /// effect; the env then heals automatically.
  void SetTransientFailNext(uint64_t count) {
    MutexLock lock(mu_);
    transient_fail_next_ = count;
  }
  /// Every n-th mutating operation (by op_count) fails transiently.
  /// 0 disables.
  void SetTransientEveryN(uint64_t n) {
    MutexLock lock(mu_);
    transient_every_n_ = n;
  }
  /// Each mutating operation fails transiently with probability `p`,
  /// drawn from a deterministic seeded stream. p <= 0 disables.
  void SetTransientProbability(double p, uint64_t seed) {
    MutexLock lock(mu_);
    transient_p_ = p;
    transient_rng_.emplace(seed);
  }
  /// Disables all transient fault modes.
  void ClearTransientFaults() {
    MutexLock lock(mu_);
    transient_fail_next_ = 0;
    transient_every_n_ = 0;
    transient_p_ = 0.0;
  }
  /// Transient faults injected so far.
  uint64_t transient_faults() const {
    MutexLock lock(mu_);
    return transient_faults_;
  }

  // -- Env -------------------------------------------------------------------

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override;
  Status ReadFileToString(const std::string& path, std::string* out) override;
  /// Forwarded to the base env and never counted, so adding a read path
  /// does not shift crash-matrix op numbers. A handle reads the base file,
  /// so it sees DropUnsyncedData's truncation like any later read would.
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* file) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status CreateDirIfMissing(const std::string& path) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* out) override;

 private:
  friend class TrackedWritableFile;

  /// Per-file durability bookkeeping. Shared with the TrackedWritableFile
  /// that writes it; not annotated (nested value type) — each file handle
  /// has one writer, matching the base env's WritableFile contract.
  struct FileState {
    // Atomic because a WAL fsync may run concurrently with appends (see
    // DurableStore::SyncWal): Sync snapshots size before the fsync and
    // publishes synced_size after it, while Append keeps advancing size.
    std::atomic<uint64_t> size{0};         ///< bytes appended so far
    std::atomic<uint64_t> synced_size{0};  ///< bytes guaranteed durable
  };

  /// Returns OK if the operation may proceed; advances the op counter and
  /// flips into the crashed state at the configured point. When the crash
  /// lands on this very op, `*short_write` (if non-null) is set so an
  /// Append can persist a torn prefix before failing. Takes mu_ itself.
  Status BeginOp(bool* short_write = nullptr);

  Env* base_;
  /// Guards all fault bookkeeping below (rank kEnvState, a leaf):
  /// DurableStore drives this env with its append mutex held, so the env's
  /// own lock must rank at the very bottom of the hierarchy. Uninstrumented
  /// — the env predates any registry.
  mutable Mutex mu_{LockRank::kEnvState};
  bool armed_ HYGRAPH_GUARDED_BY(mu_) = false;
  bool crashed_ HYGRAPH_GUARDED_BY(mu_) = false;
  uint64_t op_count_ HYGRAPH_GUARDED_BY(mu_) = 0;
  uint64_t crash_after_ HYGRAPH_GUARDED_BY(mu_) = 0;
  uint64_t transient_fail_next_ HYGRAPH_GUARDED_BY(mu_) = 0;
  uint64_t transient_every_n_ HYGRAPH_GUARDED_BY(mu_) = 0;
  double transient_p_ HYGRAPH_GUARDED_BY(mu_) = 0.0;
  std::optional<Rng> transient_rng_ HYGRAPH_GUARDED_BY(mu_);
  uint64_t transient_faults_ HYGRAPH_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::shared_ptr<FileState>> files_
      HYGRAPH_GUARDED_BY(mu_);
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_FAULT_INJECTION_ENV_H_
