#ifndef HYGRAPH_STORAGE_DURABLE_H_
#define HYGRAPH_STORAGE_DURABLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"
#include "query/backend.h"
#include "storage/env.h"
#include "storage/retry.h"
#include "storage/segment/segment_store.h"
#include "storage/wal.h"

namespace hygraph::core {
class Cursor;
}  // namespace hygraph::core

namespace hygraph::storage {

/// Storage tiering: spill sealed chunks to a disk-backed cold tier at
/// checkpoint time, so snapshots (and therefore recovery) scale with the
/// HOT data only. Requires a backend whose series are chunk-organized
/// (series_hypertable() != nullptr — the polyglot store); on any other
/// backend the options are ignored and checkpoints stay full-state.
struct TieringOptions {
  bool enabled = false;
  /// Budget of the cold tier's in-RAM chunk cache (see SegmentStore).
  size_t cache_budget_bytes = 64u << 20;
};

/// Tuning knobs for a DurableStore.
struct DurableOptions {
  /// fsync the WAL after every logged mutation. With it, an OK status means
  /// the mutation survives any crash; without it, mutations are only
  /// durable up to the last SyncWal()/Checkpoint() (group commit — see
  /// bench_recovery for the throughput gap this buys).
  bool sync_wal = true;

  /// Automatically checkpoint after this many logged records (0 = only
  /// explicit Checkpoint() calls). Auto-checkpoint failures are reported
  /// through background_error(), not through the triggering mutation,
  /// whose WAL record is already durable.
  size_t checkpoint_every = 0;

  /// Backoff schedule for retrying transient WAL-append and checkpoint-
  /// write failures (kIOError). max_attempts = 1 disables retrying.
  RetryOptions retry;

  /// Injectable backoff sleep for tests: record the delay or advance an
  /// obs::ManualClock instead of stalling the process. Null = real sleep
  /// (RetryPolicy's default).
  RetryPolicy::SleepFn retry_sleep;

  /// Cold-tier storage tiering (DESIGN.md §15).
  TieringOptions tiering;
};

/// What Open() found and did while recovering a directory.
struct RecoveryStats {
  bool snapshot_loaded = false;
  uint64_t snapshot_seq = 0;         ///< last sequence covered by it
  size_t wal_records_salvaged = 0;   ///< intact records found in the log
  size_t wal_records_skipped = 0;    ///< already covered by the snapshot
  size_t wal_records_replayed = 0;   ///< applied onto the snapshot state
  size_t wal_replay_failures = 0;    ///< re-applications that failed (these
                                     ///< failed identically when first logged)
  uint64_t wal_bytes_dropped = 0;    ///< torn tail truncated away
  bool wal_torn_tail = false;
  size_t cold_chunks_adopted = 0;    ///< catalogued cold chunks re-bound
                                     ///< without touching their bytes
};

/// Durability wrapper for either storage architecture of Figure 1: wraps
/// any QueryBackend (AllInGraphStore, PolyglotStore) and makes its state
/// survive crashes with the classic snapshot + write-ahead-log protocol.
///
///   * Every mutation routed through this class is first appended to a
///     CRC-framed WAL (fsynced per record under DurableOptions::sync_wal),
///     then applied to the wrapped backend.
///   * Checkpoint() serializes the full backend state through
///     core::Serialize (checksum trailer included) to `snapshot.tmp`,
///     fsyncs, atomically renames to `snapshot-<seq>.hyg`, then starts a
///     fresh WAL epoch. A crash at any point leaves either the old or the
///     new snapshot installed, never a torn one.
///   * Open() = load newest snapshot + replay the WAL tail, tolerating a
///     torn final record (truncate-and-recover, reported in RecoveryStats).
///
/// Topology mutations must go through the logged AddVertex/AddEdge/
/// Set*Property/Remove* methods to be durable; `mutable_topology()` remains
/// available as a bulk-load escape hatch whose effects only become durable
/// at the next Checkpoint(). Checkpointing requires dense ids (the
/// core::Serialize precondition); after removals the store stays recoverable
/// through WAL replay alone until ids are dense again.
///
/// Fault tolerance: a transient kIOError on the WAL append/sync path is
/// retried with capped exponential backoff (DurableOptions::retry). A
/// failed sync poisons the writer — fsyncgate semantics: the kernel may
/// have dropped the dirty pages, so re-issuing the sync could falsely
/// acknowledge — therefore every retry abandons the old handle and
/// rebuilds a fresh WAL epoch from the valid on-disk prefix before
/// re-appending. When retries are exhausted the store enters DEGRADED
/// READ-ONLY mode: reads and BeginSnapshot() keep serving, every mutation
/// fails fast with kUnavailable, and the "durable.degraded" gauge flips to
/// 1. TryExitDegraded() leaves the state via a full checkpoint (the
/// in-memory state can be ahead of the poisoned WAL, so only a complete
/// snapshot restores the durability contract).
///
/// Thread safety (DESIGN.md §10): every logged mutation, Checkpoint() and
/// SyncWal() serialize on one append mutex, so concurrent writers produce a
/// totally ordered, gap-free WAL (group-commit friendly: with !sync_wal,
/// any thread's SyncWal() makes all earlier appends durable at once).
/// Reads and BeginSnapshot() bypass the append mutex entirely and rely on
/// the wrapped backend's own guards. Open() must complete before the store
/// is shared between threads.
class DurableStore final : public query::QueryBackend {
 public:
  /// Does not touch the filesystem; call Open() before use.
  DurableStore(Env* env, std::string dir,
               std::unique_ptr<query::QueryBackend> inner,
               DurableOptions options = {});
  ~DurableStore() override;

  /// Recovers whatever `dir` holds (possibly nothing) into the wrapped
  /// backend — which must still be empty — and opens a fresh WAL epoch.
  Status Open();

  const RecoveryStats& recovery() const { return recovery_; }

  /// The durability layer's own registry: "durable.*" counters, the
  /// "durable.checkpoint_nanos" histogram, "recovery.*" gauges mirroring
  /// RecoveryStats after Open(), and the WAL's "wal.*" instruments. The
  /// wrapped backend keeps its own registry (merge snapshots to combine).
  obs::MetricsRegistry* metrics() const override { return metrics_.get(); }
  /// Query-time work happens in the wrapped backend.
  query::BackendWork Work() const override { return inner_->Work(); }

  query::QueryBackend* inner() { return inner_.get(); }
  const query::QueryBackend* inner() const { return inner_.get(); }
  /// The cold tier, when tiering is enabled on a chunk-organized backend
  /// (cache stats for tests/benches); nullptr otherwise.
  SegmentStore* cold_tier() { return cold_tier_.get(); }
  /// Next WAL sequence number (exposed for tests). Analysis off: quiescent
  /// test accessor — callers read it with no writer running.
  uint64_t next_seq() const HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
    return next_seq_;
  }
  /// First error hit by an automatic background checkpoint, if any.
  /// Analysis off: quiescent test accessor, like next_seq().
  const Status& background_error() const HYGRAPH_NO_THREAD_SAFETY_ANALYSIS {
    return background_error_;
  }

  // -- logged topology mutations --------------------------------------------

  Result<graph::VertexId> AddVertex(std::vector<std::string> labels,
                                    graph::PropertyMap properties);
  Result<graph::EdgeId> AddEdge(graph::VertexId src, graph::VertexId dst,
                                std::string label,
                                graph::PropertyMap properties);
  Status SetVertexProperty(graph::VertexId v, const std::string& key,
                           Value value);
  Status SetEdgeProperty(graph::EdgeId e, const std::string& key, Value value);
  Status RemoveVertex(graph::VertexId v);
  Status RemoveEdge(graph::EdgeId e);

  // -- durability control ---------------------------------------------------

  /// Snapshot + WAL reset (see class comment).
  Status Checkpoint();
  /// Makes every logged record durable (group commit with !sync_wal).
  Status SyncWal();

  /// True once write-side retries were exhausted and the store flipped to
  /// degraded read-only mode (mutations fail fast with kUnavailable while
  /// reads keep serving). Mirrored by the "durable.degraded" gauge.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// Attempts to leave degraded mode through a full checkpoint onto a
  /// fresh WAL epoch. No-op (OK) when not degraded. Fails — and the store
  /// stays degraded — if the checkpoint cannot complete, including the
  /// dense-id precondition every checkpoint has.
  Status TryExitDegraded();

  // -- QueryBackend ---------------------------------------------------------

  std::string name() const override;
  const graph::PropertyGraph& topology() const override;
  graph::PropertyGraph* mutable_topology() override;
  /// Unlogged topology mutation under the inner store's guard — a
  /// concurrency-safe bulk-load escape hatch; effects become durable at
  /// the next Checkpoint(), like mutable_topology().
  Status MutateTopology(
      const std::function<Status(graph::PropertyGraph*)>& fn) override;
  /// Pins the wrapped backend's version; the WAL plays no part in reads.
  std::shared_ptr<const query::QueryBackend> BeginSnapshot() const override {
    return inner_->BeginSnapshot();
  }
  /// Logs an AV/AE record, then appends to the wrapped backend.
  Status AppendSample(const query::SeriesSlot& slot, Timestamp t,
                      double value) override;

  // Reads forward to the wrapped backend.
  Result<ts::Series> SeriesRange(const query::SeriesSlot& slot,
                                 const Interval& interval) const override {
    return inner_->SeriesRange(slot, interval);
  }
  Result<double> CorrelateSeriesRange(const query::SeriesSlot& slot,
                                      const Interval& interval,
                                      const ts::Series& anchor) const override {
    return inner_->CorrelateSeriesRange(slot, interval, anchor);
  }
  Result<double> SeriesAggregate(const query::SeriesSlot& slot,
                                 const Interval& interval,
                                 ts::AggKind kind) const override {
    return inner_->SeriesAggregate(slot, interval, kind);
  }
  std::vector<Result<double>> SeriesAggregateBatch(
      const std::vector<query::SeriesSlot>& slots, const Interval& interval,
      ts::AggKind kind) const override {
    return inner_->SeriesAggregateBatch(slots, interval, kind);
  }
  Result<ts::Series> SeriesWindowAggregate(const query::SeriesSlot& slot,
                                           const Interval& interval,
                                           Duration width,
                                           ts::AggKind kind) const override {
    return inner_->SeriesWindowAggregate(slot, interval, width, kind);
  }
  Result<size_t> SeriesCountInRange(const query::SeriesSlot& slot,
                                    const Interval& interval, double min_value,
                                    double max_value) const override {
    return inner_->SeriesCountInRange(slot, interval, min_value, max_value);
  }
  std::vector<query::SeriesSlot> SeriesSlots() const override {
    return inner_->SeriesSlots();
  }
  ts::HypertableStore* series_hypertable() override {
    return inner_->series_hypertable();
  }
  Result<SeriesId> EnsureSeries(const query::SeriesSlot& slot) override {
    return inner_->EnsureSeries(slot);
  }

 private:
  Status RequireOpen() const;
  /// RequireOpen plus the write-side gates: degraded mode and a live WAL.
  Status RequireWritable() const HYGRAPH_REQUIRES(append_mu_);
  /// Flips into degraded read-only mode.
  void EnterDegraded(const Status& cause) HYGRAPH_REQUIRES(append_mu_);
  /// One WAL-epoch rebuild: abandon the poisoned writer, rewrite the valid
  /// on-disk prefix to a fresh synced file, and append `record` unless the
  /// scan shows it already persisted (a sync-only failure would otherwise
  /// duplicate it, which replay rejects as corruption).
  Status RebuildWalAndAppend(const std::string& record)
      HYGRAPH_REQUIRES(append_mu_);
  /// Writes `records` to a fresh wal.tmp, syncs it and renames it over
  /// wal.log; the new file becomes the live writer.
  Status InstallWal(const std::vector<std::string>& records)
      HYGRAPH_REQUIRES(append_mu_);
  /// Checkpoint body with latency recording.
  Status TimedCheckpoint() HYGRAPH_REQUIRES(append_mu_);
  Status CheckpointImpl() HYGRAPH_REQUIRES(append_mu_);
  Status Log(const std::string& body) HYGRAPH_REQUIRES(append_mu_);
  /// The durability contract of every mutation whose record is known
  /// before it runs: under the append mutex, check writability, log
  /// `body`, then `apply()` it, then checkpoint when due. A record whose
  /// application fails replays as the same failure.
  template <typename Apply>
  Status LogThenApply(const std::string& body, Apply apply);
  /// Replays one record; `cursor` stands after its sequence number.
  Status ApplyRecord(core::Cursor* cursor);
  void MaybeAutoCheckpoint() HYGRAPH_REQUIRES(append_mu_);
  std::string WalPath() const { return dir_ + "/wal.log"; }
  std::string SnapshotPath(uint64_t seq) const {
    return dir_ + "/snapshot-" + std::to_string(seq) + ".hyg";
  }

  Env* env_;
  std::string dir_;
  std::unique_ptr<query::QueryBackend> inner_;
  DurableOptions options_;
  /// Created by Open() when tiering is enabled and the inner backend is
  /// chunk-organized; attached to the hypertable for the store's lifetime.
  /// Torn down before inner_ (declared after it) — safe because no query
  /// runs during destruction and chunk teardown never calls the tier.
  std::unique_ptr<SegmentStore> cold_tier_;
  // Heap-held so the cached instrument pointers stay valid; declared before
  // wal_ so the registry outlives the writer that registers into it.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* records_logged_ = nullptr;
  obs::Counter* checkpoints_ = nullptr;
  obs::Histogram* checkpoint_nanos_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* wal_rebuilds_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  RetryPolicy retry_policy_;
  /// Serializes Log()+apply, Checkpoint and SyncWal's writer lookup. Top
  /// of the store's lock hierarchy (rank kDurableAppend): held while
  /// calling into the inner store, never the other way around.
  Mutex append_mu_;
  /// Serializes the WAL fsync against writer ROTATION, not against
  /// appends: SyncWal acquires append_mu_ -> wal_sync_mu_, then releases
  /// append_mu_ and fsyncs holding only this lock, so concurrent mutators
  /// keep appending while a group-commit leader waits on the disk.
  /// Rotation sites (CheckpointImpl, RebuildWalAndAppend) take it while
  /// already holding append_mu_ — the same acquisition order — to drain
  /// any in-flight fsync before closing the old writer.
  mutable Mutex wal_sync_mu_{LockRank::kDurableWalSync};
  /// The WAL itself carries no lock; it is guarded externally by this
  /// annotation (the writer is only ever touched on the append path).
  /// Exception: SyncWal calls Sync() through a raw pointer pinned under
  /// wal_sync_mu_ — safe against rotation per the order above, and safe
  /// against concurrent Append because WritableFile implementations must
  /// tolerate Sync racing Append (see storage/env.h).
  std::unique_ptr<WalWriter> wal_ HYGRAPH_GUARDED_BY(append_mu_);
  /// Written once by Open() (under the mutex) before the store is shared;
  /// read lock-free afterwards. Same story for recovery_.
  bool opened_ = false;
  uint64_t next_seq_ HYGRAPH_GUARDED_BY(append_mu_) = 1;
  size_t records_since_checkpoint_ HYGRAPH_GUARDED_BY(append_mu_) = 0;
  RecoveryStats recovery_;
  Status background_error_ HYGRAPH_GUARDED_BY(append_mu_);
  /// Atomic so degraded() is readable without the append mutex; flipped
  /// only with append_mu_ held.
  std::atomic<bool> degraded_{false};
  /// The kUnavailable mutations see while degraded (carries the original
  /// cause).
  Status degraded_error_ HYGRAPH_GUARDED_BY(append_mu_);
};

/// Serializes a backend's full logical state (topology + every series)
/// through the core::Serialize text format, every series of SeriesSlots()
/// attached as a pooled series property named "__durable_series__<key>"
/// (none for a backend whose samples live in the topology). Requires dense
/// ids. Exposed for tests and for state comparison (the text is
/// canonical).
Result<std::string> BuildSnapshotText(const query::QueryBackend& backend);

/// Rebuilds backend state from BuildSnapshotText output. The backend must
/// be freshly constructed (empty). Requires the CHECKSUM trailer: a
/// snapshot that lost it (truncation) is rejected as kCorruption.
Status RestoreFromSnapshotText(const std::string& text,
                               query::QueryBackend* backend);

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_DURABLE_H_
