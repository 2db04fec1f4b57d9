#ifndef HYGRAPH_STORAGE_SEGMENT_SEGMENT_STORE_H_
#define HYGRAPH_STORAGE_SEGMENT_SEGMENT_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "ts/cold_tier.h"

namespace hygraph::storage {

/// One catalog line: where a spilled chunk lives and everything the
/// hypertable needs to adopt it without touching the bytes.
struct ColdCatalogEntry {
  std::string series;           ///< hypertable series name ("v12.temp")
  Timestamp chunk_start = 0;    ///< chunk slot (ChunkStartFor of its data)
  std::string file;             ///< segment file name, relative to the dir
  uint64_t offset = 0;          ///< payload offset inside the file
  uint32_t length = 0;          ///< payload length (== meta.encoded_size)
  ts::ColdChunkMeta meta;       ///< resident zone map + aggregate
  ts::ColdChunkId id = ts::kInvalidColdChunk;  ///< set by LoadCatalog
};

/// Serializes entries as a binary cold catalog (DESIGN.md §15.2): a magic
/// and version, tables of the distinct series and segment-file names that
/// entries refer to by index, varint integers (times as zigzag deltas from
/// the chunk start), doubles as their 64-bit patterns so reload is
/// bit-exact, and a CRC-32 trailer over everything above it.
std::string EncodeColdCatalog(const std::vector<ColdCatalogEntry>& entries);

/// Total decoder for untrusted catalog bytes (fuzzed): any malformed
/// header, field, count, index or trailer is kCorruption, never a crash or
/// an unbounded allocation — every count and length is checked against the
/// bytes that remain before anything is reserved. Entry `id`s are left
/// unset.
Result<std::vector<ColdCatalogEntry>> ParseColdCatalog(std::string_view bytes);

struct SegmentStoreOptions {
  Env* env = nullptr;                ///< null -> Env::Default()
  std::string dir;                   ///< segment directory (created if missing)
  size_t cache_budget_bytes = 64u << 20;  ///< chunk cache budget
  obs::MetricsRegistry* metrics = nullptr;  ///< null -> process-global
};

/// The cold tier: sealed Gorilla chunks appended to one segment file per
/// checkpoint through the checksummed Env layer, fronted by a fixed-budget
/// LRU cache of decoded-frame payloads.
///
/// On-disk layout inside `dir`:
///   seg-<n>.seg        append-only chunk records, WAL framing
///                      ([u32 len][u32 crc][payload]); every chunk one
///                      checkpoint spills, never rewritten
///   catalog-<seq>.cold the live-record catalog paired with snapshot
///                      <seq> (EncodeColdCatalog), written tmp+sync+rename
///
/// Durability protocol (DurableStore::Checkpoint, DESIGN.md §15): the first
/// Put after a sync creates the next segment file, SyncSegments() fsyncs it
/// once and closes it, then WriteCatalog(seq) publishes exactly the live
/// set — so any catalog on disk only ever references synced bytes, and no
/// write descriptor outlives its checkpoint. CollectGarbage removes segment
/// files that no record known to the store points into.
///
/// Reads: a segment file is opened on its first cache miss and the handle
/// is kept for later pins, so a miss costs one positioned read. At most
/// kMaxReadHandles handles are kept; past that the least recently used one
/// is dropped (a pin still reading through it keeps it open until done).
///
/// Locking: one internal mutex at LockRank::kColdTier — acquirable under
/// a series shard lock (spill, lazy pins) and under durable.append_mu_
/// (checkpoint); only the env leaf sits below. Pin drops the lock to open
/// and read, so cache hits never wait on a cold read.
class SegmentStore final : public ts::ColdTier {
 public:
  /// Read handles kept open at once, so the descriptors a store holds stay
  /// bounded however many checkpoints' files its reads touch.
  static constexpr size_t kMaxReadHandles = 64;

  /// Opens (or creates) the segment directory and scans it so fresh
  /// segment files never collide with a previous epoch's.
  static Result<std::unique_ptr<SegmentStore>> Open(
      const SegmentStoreOptions& options);

  ~SegmentStore() override;

  // --- ColdTier ---------------------------------------------------------
  Result<ts::ColdChunkId> Put(const std::string& series_name,
                              Timestamp chunk_start,
                              const ts::ColdChunkMeta& meta,
                              const std::string& encoded) override;
  Result<std::shared_ptr<const std::string>> Pin(
      ts::ColdChunkId id) const override;
  void Forget(ts::ColdChunkId id) override;

  // --- checkpoint integration ------------------------------------------
  /// Fsyncs the segment files the Puts since the last sync wrote — one,
  /// unless an Append failed — and closes them; the next Put starts a new
  /// file. A file whose fsync fails stays open and a retry syncs it again.
  Status SyncSegments();
  /// Writes catalog-<seq>.cold listing every live record (tmp+sync+rename,
  /// so a crash never leaves a half-written catalog under the final name).
  Status WriteCatalog(uint64_t seq);
  /// Reads catalog-<seq>.cold, registers each record as live and pinnable,
  /// and returns the entries with their assigned ids. A missing catalog is
  /// an empty tier (snapshots from before tiering), not an error.
  Result<std::vector<ColdCatalogEntry>> LoadCatalog(uint64_t seq);
  /// Removes every catalog except `keep_seq`'s, abandoned .tmp files, and
  /// every segment file that no record known to the store points into
  /// (live, or forgotten but still pinnable) and that is neither being
  /// written nor waiting for its fsync.
  Status CollectGarbage(uint64_t keep_seq);

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t cached_bytes = 0;
    size_t live_records = 0;
  };
  CacheStats cache_stats() const;

  const std::string& dir() const { return options_.dir; }

 private:
  struct Record {
    std::string file;         // relative segment file name
    uint64_t offset = 0;      // payload offset (frame header skipped)
    uint32_t length = 0;
    bool live = true;         // false after Forget: still pinnable,
                              // omitted from the next catalog
    std::string series;
    Timestamp chunk_start = 0;
    ts::ColdChunkMeta meta;   // re-published by WriteCatalog
  };
  struct CacheEntry {
    std::shared_ptr<const std::string> bytes;
    std::list<ts::ColdChunkId>::iterator lru_pos;
  };
  struct UnsyncedFile {
    std::string name;
    std::unique_ptr<WritableFile> file;
  };
  struct ReadHandle {
    std::string file;
    std::shared_ptr<const RandomAccessFile> handle;
    uint64_t last_use = 0;  // read_ticks_ at its latest lookup
  };

  explicit SegmentStore(const SegmentStoreOptions& options);

  std::string PathFor(const std::string& file) const;
  /// Inserts into the cache and evicts LRU tails past the budget. The
  /// evicted entries only drop the cache's reference — readers holding the
  /// shared_ptr keep the bytes.
  void CacheInsert(ts::ColdChunkId id,
                   std::shared_ptr<const std::string> bytes) const
      HYGRAPH_REQUIRES(mu_);
  void CacheTouch(ts::ColdChunkId id) const HYGRAPH_REQUIRES(mu_);
  /// The kept read handle for `file` (null if none), marked as used.
  std::shared_ptr<const RandomAccessFile> FindReader(
      const std::string& file) const HYGRAPH_REQUIRES(mu_);
  /// Keeps `opened` for `file` unless a racing miss kept one first (that
  /// one is returned and `opened` closes), evicting the least recently
  /// used handle when kMaxReadHandles are kept.
  std::shared_ptr<const RandomAccessFile> KeepReader(
      const std::string& file, std::unique_ptr<RandomAccessFile> opened) const
      HYGRAPH_REQUIRES(mu_);

  SegmentStoreOptions options_;
  Env* env_;

  struct Instruments {
    obs::Counter* put_records;
    obs::Counter* put_bytes;
    obs::Counter* segment_files;  // segment files created
    obs::Counter* segment_syncs;  // segment-file fsyncs that succeeded
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Counter* cache_evictions;
    obs::Gauge* cache_bytes;
    obs::Histogram* pin_read_nanos;  // miss path: positioned read + frame check
  };
  Instruments m_{};

  mutable Mutex mu_{LockRank::kColdTier};
  uint64_t next_id_ HYGRAPH_GUARDED_BY(mu_) = 1;
  uint64_t next_file_index_ HYGRAPH_GUARDED_BY(mu_) = 0;
  std::unordered_map<ts::ColdChunkId, Record> records_ HYGRAPH_GUARDED_BY(mu_);
  // The segment file the Puts since the last sync append to (null once
  // synced, or after a failed Append), its name and the bytes appended.
  std::unique_ptr<WritableFile> writer_ HYGRAPH_GUARDED_BY(mu_);
  std::string writer_name_ HYGRAPH_GUARDED_BY(mu_);
  uint64_t writer_bytes_ HYGRAPH_GUARDED_BY(mu_) = 0;
  // Files no Put appends to any more that SyncSegments has yet to fsync.
  std::vector<UnsyncedFile> unsynced_ HYGRAPH_GUARDED_BY(mu_);
  // Read handles, opened on a file's first miss and shared by later pins;
  // at most kMaxReadHandles.
  mutable std::vector<ReadHandle> readers_ HYGRAPH_GUARDED_BY(mu_);
  mutable uint64_t read_ticks_ HYGRAPH_GUARDED_BY(mu_) = 0;
  // LRU cache of payload bytes, most-recent at the front.
  mutable std::unordered_map<ts::ColdChunkId, CacheEntry> cache_
      HYGRAPH_GUARDED_BY(mu_);
  mutable std::list<ts::ColdChunkId> lru_ HYGRAPH_GUARDED_BY(mu_);
  mutable size_t cache_bytes_ HYGRAPH_GUARDED_BY(mu_) = 0;
  mutable uint64_t hits_ HYGRAPH_GUARDED_BY(mu_) = 0;
  mutable uint64_t misses_ HYGRAPH_GUARDED_BY(mu_) = 0;
  mutable uint64_t evictions_ HYGRAPH_GUARDED_BY(mu_) = 0;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_SEGMENT_SEGMENT_STORE_H_
