#ifndef HYGRAPH_TS_HYPERTABLE_H_
#define HYGRAPH_TS_HYPERTABLE_H_

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/time.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "ts/aggregate.h"
#include "ts/chunk_codec.h"
#include "ts/cold_tier.h"
#include "ts/series.h"

namespace hygraph::ts {

/// Configuration for HypertableStore.
struct HypertableOptions {
  /// Width of one time partition (chunk). TimescaleDB's default hypertable
  /// chunking is time-based; one day of 5-minute samples is 288 points.
  Duration chunk_duration = kDay;
  /// When true, each closed chunk keeps a decomposable aggregate (AggState)
  /// so range aggregates can skip scanning fully-covered chunks. This is the
  /// mechanism the ablation bench toggles.
  bool enable_chunk_cache = true;
  /// When true (default), only the newest chunk of each series stays hot
  /// (mutable `std::vector<Sample>`); every colder chunk is sealed into
  /// Gorilla-compressed bytes with a zone map (min/max time and value) and
  /// its cached aggregate. Out-of-order writes transparently unseal, merge
  /// and reseal. The compression ablation bench toggles this off.
  bool compress_sealed_chunks = true;
  /// Registry the store's "hypertable.*" work counters live in. When null
  /// (the default) the store creates and owns a private registry. A
  /// containing engine (PolyglotStore) passes its own registry so one
  /// snapshot covers the whole backend.
  obs::MetricsRegistry* metrics = nullptr;
  /// Cold tier sealed chunks spill to (null = everything stays in RAM).
  /// Not owned; set post-construction via AttachColdTier (single-threaded
  /// setup, before the store is shared). Lives in the options so Fork()
  /// versions keep reading the same tier.
  ColdTier* cold_tier = nullptr;
};

/// Counters describing the work a query did — used by tests and by the
/// scalability bench to show chunk pruning is effective. Assembled on
/// demand from the store's registry-backed "hypertable.*" counters (the
/// registry is the source of truth; this struct is its typed view).
struct HypertableStats {
  size_t chunks_total = 0;
  size_t chunks_scanned = 0;     ///< chunks whose samples were touched
  size_t chunks_from_cache = 0;  ///< chunks answered from their aggregate cache
  size_t samples_scanned = 0;
  /// Sealed chunks Gorilla-decoded on the read path (scans that could not
  /// be answered from zone maps or cached partials).
  size_t chunks_decoded = 0;
  // Compression lifecycle (cumulative since the last ResetStats()).
  size_t chunks_sealed = 0;    ///< seal operations performed
  size_t chunks_unsealed = 0;  ///< unseal operations (out-of-order writes)
  size_t bytes_raw = 0;         ///< raw sample bytes across those seals
  size_t bytes_compressed = 0;  ///< encoded bytes across those seals
  /// Sealed chunks skipped wholesale because their value zone map cannot
  /// intersect a pushed-down value predicate (the Q8 query shape).
  size_t chunks_zonemap_skipped = 0;
  // Cold tier (cumulative since ResetStats()).
  size_t cold_chunks_spilled = 0;  ///< sealed chunks written to the tier
  size_t cold_bytes_spilled = 0;   ///< encoded bytes across those spills
  size_t cold_chunks_adopted = 0;  ///< chunks re-attached at recovery
  size_t cold_pins = 0;            ///< scans that pinned cold bytes (hit or
                                   ///< miss — the tier counts those apart)
};

/// Current memory footprint of a HypertableStore's sample data, split by
/// chunk state. The compression acceptance metric is
/// sealed_bytes / sealed_samples.
struct HypertableMemory {
  size_t hot_samples = 0;
  size_t hot_bytes = 0;  ///< vector capacity, i.e. real footprint
  size_t sealed_samples = 0;
  size_t sealed_bytes = 0;  ///< encoded bytes resident in RAM
  size_t cold_samples = 0;  ///< samples whose bytes live only in the tier
  size_t cold_bytes = 0;    ///< their on-disk encoded size (not RAM)
  /// RAM footprint: cold bytes live in the tier's bounded cache, not here.
  size_t total_bytes() const { return hot_bytes + sealed_bytes; }
  double sealed_bytes_per_sample() const {
    return sealed_samples == 0
               ? 0.0
               : static_cast<double>(sealed_bytes) /
                     static_cast<double>(sealed_samples);
  }
};

/// A value predicate pushed down into a scan: keep samples with
/// min_value <= v <= max_value. Sealed chunks whose value zone map lies
/// entirely outside the bounds are skipped without decoding. The default
/// bounds are infinite, which matches every value (including NaN).
struct ScanPredicate {
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();

  bool unbounded() const {
    return min_value == -std::numeric_limits<double>::infinity() &&
           max_value == std::numeric_limits<double>::infinity();
  }
  /// NaN matches only an unbounded side, so bounded predicates never
  /// select NaN samples (SQL-style comparison semantics).
  bool Matches(double v) const {
    if (min_value != -std::numeric_limits<double>::infinity() &&
        !(v >= min_value)) {
      return false;
    }
    if (max_value != std::numeric_limits<double>::infinity() &&
        !(v <= max_value)) {
      return false;
    }
    return true;
  }
};

/// A time-partitioned store for univariate series, modelled on TimescaleDB's
/// hypertable: each series is split into fixed-width time chunks; within a
/// chunk, samples are kept sorted; every chunk carries min/max time bounds
/// and (optionally) a cached decomposable aggregate.
///
/// Storage follows the hot/sealed lifecycle of a real hypertable's
/// compressed columnar chunks: only the newest chunk of a series is a
/// mutable sample vector; colder chunks hold Gorilla-encoded bytes
/// (delta-of-delta timestamps + XOR values, see ts/chunk_codec.h) plus a
/// zone map and their cached aggregate. Reads stream through ScanVisit,
/// which decodes sealed chunks block-wise without materializing them;
/// range aggregates combine cached partials of fully-covered chunks with
/// streamed scans of the boundary chunks — which is why the polyglot
/// architecture wins Table 1's aggregation-heavy queries.
///
/// Concurrency (DESIGN.md §10): the store is safe for any mix of
/// concurrent readers and writers. The series map is guarded by one
/// reader-writer lock (exclusive only in Create); each series carries its
/// own shard lock, so ingest into one series never blocks scans of
/// another. Sealed chunks are immutable heap objects held by shared_ptr:
/// a reader pins the chunks it needs under a brief shared acquisition of
/// the shard lock (PinView), then decodes and streams entirely outside
/// any lock — unseal/merge/reseal swaps in a fresh object while pinned
/// readers keep the old one alive (epoch-by-refcount). Hot-chunk samples
/// overlapping the scan are copied out under the same shared hold.
/// Writers take the shard lock exclusively.
///
/// Fork() returns a published immutable version: a paged directory of
/// per-series chunk lists. It costs one shared_ptr copy when nothing was
/// written since the last publish, and otherwise copies only the
/// directory pages of the series written since. A version records how
/// many samples of each series' newest (hot) chunk it sees, so in-order
/// appends write past that prefix in place; every other write copies the
/// series' chunk list first if a version may hold it.
class HypertableStore {
  struct Directory;
  /// Constructor access for Fork() (passkey: make_shared needs a public
  /// constructor, the tag keeps it Fork()'s).
  struct VersionTag {};

 public:
  explicit HypertableStore(HypertableOptions options = {});
  /// A version view: shares the origin's options, registry and
  /// instruments, reads through `version`, and owns no series or locks.
  HypertableStore(VersionTag, const HypertableStore& origin,
                  std::shared_ptr<const Directory> version);

  HypertableStore(const HypertableStore&) = delete;
  HypertableStore& operator=(const HypertableStore&) = delete;
  HypertableStore(HypertableStore&&) = default;
  HypertableStore& operator=(HypertableStore&&) = default;

  const HypertableOptions& options() const { return options_; }

  /// Registers a new series and returns its id.
  SeriesId Create(std::string name);

  /// True if the id refers to a registered series.
  bool Exists(SeriesId id) const;

  /// Inserts one sample. Out-of-order inserts are accepted (sorted insert
  /// into the owning chunk, unsealing it first when necessary); a duplicate
  /// timestamp replaces the old value. Fails with kInvalidArgument for t
  /// outside [kMinTimestamp + chunk_duration, kMaxTimestamp -
  /// chunk_duration], where a chunk's bounds would not fit in a Timestamp.
  Status Insert(SeriesId id, Timestamp t, double value);

  /// Bulk-load an entire in-memory series. Sealing is deferred to the end
  /// of the load so an out-of-order batch does not reseal per sample; the
  /// series' shard lock is held exclusively for the whole load. Rejects a
  /// series reaching outside Insert's range before storing any sample.
  Status InsertSeries(SeriesId id, const Series& series);

  /// Deletes every sample of `id` outside `keep` — the paper's R3 staleness
  /// eviction. Whole chunks outside the interval are dropped O(1) per chunk
  /// (sealed ones without decoding); boundary chunks are unsealed, trimmed,
  /// and resealed. Readers pinned to dropped chunks keep scanning the data
  /// they pinned (snapshot semantics).
  Result<size_t> Retain(SeriesId id, const Interval& keep);

  /// Number of samples stored for `id`.
  Result<size_t> SampleCount(SeriesId id) const;

  /// Streams every sample of `id` inside `interval`, time-ordered, into
  /// `fn(const Sample&)` without materializing the range; sealed chunks are
  /// decoded block-wise. This is the zero-copy read path Scan/Materialize/
  /// Aggregate/WindowAggregate ride on. The shard lock is held shared only
  /// while pinning the overlapping chunks; decoding and visiting run
  /// without any lock.
  template <typename Fn>
  Status ScanVisit(SeriesId id, const Interval& interval, Fn&& fn) const {
    return ScanVisit(id, interval, ScanPredicate{}, std::forward<Fn>(fn));
  }

  /// ScanVisit with a pushed-down value predicate: only matching samples
  /// are visited, and sealed chunks whose value zone map cannot intersect
  /// the bounds are skipped without decoding (stats().chunks_zonemap_skipped).
  template <typename Fn>
  Status ScanVisit(SeriesId id, const Interval& interval,
                   const ScanPredicate& predicate, Fn&& fn) const {
    auto view = PinView(id, interval, /*want_aggregates=*/false);
    if (!view.ok()) return view.status();
    m_.chunks_total->Add(view->chunk_count);
    std::vector<Sample> scratch;
    for (const PinnedChunk& chunk : view->chunks) {
      if (ZoneMapExcludes(chunk, predicate)) {
        m_.chunks_zonemap_skipped->Increment();
        continue;
      }
      m_.chunks_scanned->Increment();
      HYGRAPH_RETURN_IF_ERROR(
          VisitChunk(chunk, interval, predicate, &scratch, fn));
    }
    return Status::OK();
  }

  /// Number of samples of `id` in `interval` matching `predicate` — the
  /// pushed-down series-predicate primitive (HGQL's ts_count_between).
  /// Zone-map assisted twice over: non-intersecting sealed chunks are
  /// skipped, and sealed chunks whose whole value range satisfies the
  /// predicate are counted without decoding.
  Result<size_t> CountMatching(SeriesId id, const Interval& interval,
                               const ScanPredicate& predicate) const;

  /// All samples of `id` inside `interval`, time-ordered.
  Result<std::vector<Sample>> Scan(SeriesId id, const Interval& interval) const;

  /// Materializes `id`'s samples inside `interval` as a Series.
  Result<Series> Materialize(SeriesId id, const Interval& interval) const;

  /// Pearson correlation of `id`'s samples inside `interval` against
  /// `anchor`: bit for bit what Correlation(anchor, Materialize(id,
  /// interval)) returns, without materializing the range. Only chunks
  /// overlapping the anchor's time span are pinned, since nothing outside
  /// it can align, and their samples stream through VisitChunk into an
  /// AlignedPairs. The pair buffers are reserved against the calling
  /// thread's QueryContext for the call only.
  Result<double> Correlate(SeriesId id, const Interval& interval,
                           const Series& anchor) const;

  /// Range aggregate using chunk pruning + the per-chunk aggregate cache.
  /// The reduction order is fixed: one AggState per chunk (its cached
  /// partial, or its clipped samples folded into a chunk-local partial)
  /// merged in chunk order, so the double that comes back does not depend
  /// on which chunks the cache answered.
  Result<double> Aggregate(SeriesId id, const Interval& interval,
                           AggKind kind) const;

  /// Batch form of Aggregate for multi-entity queries: one result slot per
  /// id, in input order (per-series failures — e.g. an unknown id — land
  /// in their slot without failing the batch). Each slot is what
  /// Aggregate(ids[i], ...) returns. Returns non-OK only for batch-wide
  /// governance violations (deadline, cancel, budget).
  Status AggregateMany(const std::vector<SeriesId>& ids,
                       const Interval& interval, AggKind kind,
                       std::vector<Result<double>>* out) const;

  /// Native tumbling-window aggregation (TimescaleDB's time_bucket): one
  /// output sample per non-empty window of `width` ms anchored at
  /// interval.start, stamped at the window start. Runs in a single pass
  /// over the overlapping chunks without materializing the range; when a
  /// window exactly covers one chunk, the chunk's cached partial answers
  /// it without touching its samples. Each chunk folds into chunk-local
  /// bucket partials that merge into the open window, so a window spanning
  /// a chunk boundary is Merge(partial_a, partial_b), like Aggregate.
  Result<Series> WindowAggregate(SeriesId id, const Interval& interval,
                                 Duration width, AggKind kind) const;

  /// Name given at Create().
  Result<std::string> Name(SeriesId id) const;

  /// Ids of all registered series.
  std::vector<SeriesId> Ids() const;
  size_t series_count() const;

  /// Current sample-data footprint (hot vectors vs sealed encoded bytes).
  HypertableMemory MemoryUsage() const;

  /// An immutable view of every series as of the call: the store's
  /// published version (see the class comment), republished first when a
  /// series was created or written since. Its reads run the same code as
  /// live reads; they take only the shard lock, to copy the visible prefix
  /// of a newest chunk that may still be growing. The version shares this
  /// store's metrics registry, so work done reading it still attributes to
  /// the origin; it must not outlive the origin. The store keeps its last
  /// version, so chunks it references are freed at the next republish.
  std::shared_ptr<const HypertableStore> Fork() const;

  /// Work counters accumulated since the last ResetStats(), assembled
  /// from the registry. Returned by value; binding to a const reference
  /// (lifetime extension) keeps old call sites source-compatible but the
  /// struct is a snapshot, not a live view.
  HypertableStats stats() const;
  void ResetStats();

  /// The registry holding this store's "hypertable.*" instruments (the
  /// injected one, or the privately owned default). Never null.
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // -- cold tier (DESIGN.md §15) ---------------------------------------------

  /// Injects the cold tier sealed chunks spill to. Single-threaded setup:
  /// call before the store is shared (the pointer is read lock-free by
  /// every reader thereafter). Later Fork() versions see the same tier.
  void AttachColdTier(ColdTier* tier) { options_.cold_tier = tier; }

  /// Writes every RAM-resident sealed chunk to the attached tier and drops
  /// its encoded bytes (the zone map + aggregate stay resident, so pruning
  /// and covered aggregates never touch disk). Returns the number of
  /// chunks spilled. Holds each series' shard lock exclusively across that
  /// series' tier writes — acceptable because spilling happens at
  /// checkpoint frequency, not on the ingest path. No-op without a tier
  /// (or with compression off: nothing is ever sealed then).
  Result<size_t> SpillSealed();

  /// Re-attaches one spilled chunk at recovery: inserts a cold chunk with
  /// the given handle + metadata into `id`'s chunk list. Fails with
  /// kCorruption when a chunk with the same start already exists (the
  /// catalog and the snapshot disagree about who owns the range) or when
  /// `chunk_start` lies below the first or above the last chunk Insert
  /// can create.
  Status AdoptColdChunk(SeriesId id, Timestamp chunk_start, ColdChunkId cold,
                        const ColdChunkMeta& meta);

  /// All samples of `id` that are NOT covered by a cold chunk (hot vectors
  /// plus RAM-resident sealed chunks), time-ordered. This is what a tiered
  /// checkpoint persists in the snapshot — cold chunks are persisted by
  /// the tier's segment files + catalog instead, which is what makes
  /// recovery O(hot data). Call after SpillSealed() for a minimal result.
  Result<std::vector<Sample>> MaterializeResident(SeriesId id) const;

 private:
  /// The immutable sealed form of a chunk. Published via shared_ptr and
  /// never mutated afterwards: readers that pinned it decode without locks
  /// while the owning series may have already unsealed, merged or dropped
  /// it (the pin keeps this object alive — the epoch is the refcount).
  struct SealedChunk {
    std::string encoded;  // chunk_codec bytes
    size_t count = 0;     // samples inside `encoded`
    // Zone map: exact first/last sample time and min/max finite value
    // (+inf/-inf when every value is NaN).
    Timestamp min_t = 0;
    Timestamp max_t = 0;
    double min_v = 0.0;
    double max_v = 0.0;
    bool all_finite = false;  // no NaN/±inf: [min_v, max_v] covers every value
    AggState agg;  // whole-chunk aggregate, computed at seal time
  };

  /// The mutable form of a chunk: sorted samples and their running
  /// aggregate, which every write keeps equal, bit for bit, to a fold of
  /// the samples in time order. Read and written under the owning series'
  /// shard lock (shared / exclusive). Shared by refcount between the live
  /// chunk list and the versions that captured it: an in-order append
  /// writes past the prefix every version recorded, in place; any other
  /// write first copies a hot chunk a version may hold (PrivateHot).
  struct HotChunk {
    std::vector<Sample> samples;
    AggState agg;
    uint64_t born = 0;  // StoredSeries::publishes when created or copied

    /// Sorted insert; a duplicate timestamp replaces the old value.
    void Insert(Timestamp t, double value);
    /// Recomputes `agg` from the samples (after edits other than appends).
    void Refold();
  };

  /// Chunk lifecycle: hot (mutable samples) -> sealed (immutable Gorilla
  /// bytes in RAM) -> cold (bytes only in the tier; RAM keeps the zone map
  /// + aggregate in cold_meta). Out-of-order writes walk the whole ladder
  /// back down: a cold chunk is pinned, decoded hot, and its tier record
  /// forgotten (the next checkpoint spills the merged result as a fresh
  /// record). Exactly one of {hot, sealed, cold} describes the data. A
  /// Chunk is a handful of pointers, so copying a chunk list never copies
  /// samples or bytes.
  struct Chunk {
    Timestamp start = 0;  // covers [start, start + chunk_duration)
    std::shared_ptr<HotChunk> hot;              // hot form
    std::shared_ptr<const SealedChunk> sealed;  // sealed form (resident)
    ColdChunkId cold = kInvalidColdChunk;       // cold form (spilled)
    std::shared_ptr<const ColdChunkMeta> cold_meta;  // set exactly when cold

    bool is_cold() const { return cold != kInvalidColdChunk; }
    bool is_sealed() const { return sealed != nullptr || is_cold(); }
    /// All samples, as the live store sees them (see VisibleSize).
    size_t size() const {
      if (sealed != nullptr) return sealed->count;
      if (is_cold()) return cold_meta->count;
      return hot->samples.size();
    }
  };
  /// Sorted by start, non-overlapping.
  using ChunkList = std::vector<Chunk>;

  struct StoredSeries {
    StoredSeries(SeriesId series_id, std::string series_name,
                 const SyncInstruments& instruments)
        : id(series_id),
          name(std::move(series_name)),
          mu(LockRank::kSeriesShard, instruments),
          chunks(std::make_shared<ChunkList>()) {}

    const SeriesId id;
    const std::string name;  // immutable after Create — readable lock-free
    mutable SharedMutex mu;  // shard lock (rank kSeriesShard)
    // Edited in place until a version captures it; from then on a writer
    // changing the list (not the newest hot chunk's tail) edits a copy
    // (MutableChunks). A version may hold it when chunks_born differs from
    // publishes. This is deliberately not shared_ptr::use_count(): its
    // relaxed load gives a writer that sees a version die no happens-before
    // edge over that version's reads.
    std::shared_ptr<ChunkList> chunks HYGRAPH_GUARDED_BY(mu);
    uint64_t publishes HYGRAPH_GUARDED_BY(mu) = 0;   // versions captured
    uint64_t chunks_born HYGRAPH_GUARDED_BY(mu) = 0;  // publishes at copy
    // Queued on the store's written list for the next publish; true from
    // Create so a new series enters the next version.
    bool written HYGRAPH_GUARDED_BY(mu) = true;
  };

  /// One series as a reader sees it: its chunk list, and — when the newest
  /// chunk is hot — how many of that chunk's samples are visible and their
  /// aggregate. Older hot chunks (compression off) are frozen in any list
  /// a version holds, so all of their samples are visible. A directory
  /// entry of a published version; live reads build one under the shard
  /// lock.
  struct SeriesVersion {
    const StoredSeries* series = nullptr;  // null: no such series
    std::shared_ptr<const ChunkList> chunks;
    size_t hot_count = 0;
    AggState hot_agg;
  };

  /// A published version's series directory, indexed by SeriesId in pages
  /// of kDirectoryPage entries. Pages are immutable and shared between
  /// consecutive versions; a republish copies the pages of written series.
  static constexpr size_t kDirectoryPage = 64;
  using DirectoryPage = std::array<SeriesVersion, kDirectoryPage>;
  struct Directory {
    std::vector<std::shared_ptr<const DirectoryPage>> pages;

    const SeriesVersion* Find(SeriesId id) const {
      const size_t page = static_cast<size_t>(id / kDirectoryPage);
      if (page >= pages.size() || pages[page] == nullptr) return nullptr;
      const SeriesVersion& entry = (*pages[page])[id % kDirectoryPage];
      return entry.series == nullptr ? nullptr : &entry;
    }
  };

  /// One chunk as pinned by a reader: a refcounted reference to the
  /// immutable sealed object, a cold handle + metadata (the bytes are
  /// pinned lazily, only if the scan actually decodes — zone-map skips and
  /// covered-aggregate answers never touch the tier), or a copy of the hot
  /// samples overlapping the pin interval. Safe to read with no lock held.
  struct PinnedChunk {
    Timestamp start = 0;
    std::shared_ptr<const SealedChunk> sealed_ref;  // null unless sealed
    ColdChunkId cold_id = kInvalidColdChunk;        // non-zero when cold
    std::shared_ptr<const ColdChunkMeta> cold_meta; // set when cold
    const ColdTier* tier = nullptr;                 // for the lazy pin
    std::vector<Sample> hot;  // hot samples inside the pin interval
    size_t size = 0;          // total samples in the chunk
    Timestamp first_t = 0;    // true first/last sample time of the chunk
    Timestamp last_t = 0;
    // Value zone map, unified across sealed and cold (has_zone false for
    // hot chunks, whose samples are already materialized anyway).
    double min_v = 0.0;
    double max_v = 0.0;
    bool all_finite = false;
    bool has_zone = false;
    AggState agg;             // whole-chunk aggregate (when requested)
    bool agg_valid = false;

    bool sealed() const {
      return sealed_ref != nullptr || cold_id != kInvalidColdChunk;
    }
  };

  /// A consistent view of one series' chunks overlapping an interval,
  /// assembled under a shared hold of the shard lock and consumed with no
  /// lock at all.
  struct SeriesReadView {
    std::string name;
    size_t chunk_count = 0;  // all chunks in the series (for chunks_total)
    std::vector<PinnedChunk> chunks;  // overlapping, time-ordered
    size_t overlap_estimate = 0;      // sum of pinned chunk sizes
  };

  static Status NoSuchSeries(SeriesId id);

  /// Looks the series up under a shared hold of the map lock. The pointer
  /// stays valid for the store's lifetime (series are never destroyed, and
  /// the map stores stable heap nodes). Live stores only.
  StoredSeries* FindSeries(SeriesId id) const;

  /// The one read path of live stores and versions: calls fn(version) for
  /// `id` under a shared hold of its shard lock — with the version's
  /// directory entry, or with the live state (two shared acquisitions:
  /// series map, then shard). NotFound for an unknown id.
  template <typename Fn>
  Status VisitSeries(SeriesId id, Fn&& fn) const;

  /// Pins the chunks of `id` overlapping `interval` (see class comment).
  /// With `want_aggregates`, each pinned chunk also carries its whole-chunk
  /// AggState (sealed: precomputed at seal; hot: the running aggregate).
  Result<SeriesReadView> PinView(SeriesId id, const Interval& interval,
                                 bool want_aggregates) const;
  /// PinView's body over one series as `version` sees it.
  void PinChunks(const SeriesVersion& version, const Interval& interval,
                 bool want_aggregates, SeriesReadView* view) const;

  /// Samples of chunk `i` of `version` visible to it.
  static size_t VisibleSize(const SeriesVersion& version, size_t i);
  /// The newest chunk's hot form, or null when it is sealed or cold.
  static HotChunk* NewestHot(const ChunkList& chunks);

  /// Queues `s` for the next publish on its first write since the last.
  void MarkWritten(StoredSeries& s) HYGRAPH_REQUIRES(s.mu);
  /// The series' chunk list for editing: a copy first when a version may
  /// hold it (counted in concurrency.series_cow_copies).
  ChunkList& MutableChunks(StoredSeries& s) const HYGRAPH_REQUIRES(s.mu);
  /// The hot form of `chunk` (of a list MutableChunks returned) for
  /// editing: a copy first when a version may hold it.
  static HotChunk& PrivateHot(Chunk& chunk, uint64_t publishes);

  Interval ChunkSpan(const Chunk& chunk) const {
    return Interval{chunk.start, chunk.start + options_.chunk_duration};
  }
  Timestamp ChunkStartFor(Timestamp t) const;
  /// True when ChunkStartFor(t) and the span of its chunk fit in a
  /// Timestamp: t lies at least one chunk away from both ends of the axis.
  bool InChunkRange(Timestamp t) const {
    return t >= kMinTimestamp + options_.chunk_duration &&
           t <= kMaxTimestamp - options_.chunk_duration;
  }
  static Status OutOfChunkRange(Timestamp t);
  /// Index of the chunk owning `t`, inserting a fresh one if needed.
  size_t ChunkIndexFor(ChunkList& chunks, Timestamp t,
                       uint64_t publishes) const;
  /// Unseal-if-needed + sorted insert; performs no sealing and returns the
  /// chunk's index. Requires the shard lock held exclusively and `chunks`
  /// from MutableChunks.
  Result<size_t> InsertRaw(StoredSeries& s, ChunkList& chunks, Timestamp t,
                           double value) HYGRAPH_REQUIRES(s.mu);

  /// Encodes a hot chunk into a fresh immutable SealedChunk (aggregate +
  /// zone map + Gorilla bytes) and drops its hot form.
  void Seal(Chunk& chunk) const;
  /// Decodes a sealed chunk back into a fresh hot form. The old
  /// SealedChunk is released, not mutated — readers pinned to it are
  /// unaffected.
  Status Unseal(Chunk& chunk, uint64_t publishes) const;
  /// Seals every chunk except the newest (when compression is on).
  void SealColdChunks(ChunkList& chunks) const;

  /// True when `chunk`'s value zone map proves no sample can match
  /// `predicate` (hot chunks carry no zone map and never qualify).
  static bool ZoneMapExcludes(const PinnedChunk& chunk,
                              const ScanPredicate& predicate) {
    return chunk.has_zone && !predicate.unbounded() &&
           !(chunk.min_v <= predicate.max_value &&
             chunk.max_v >= predicate.min_value);
  }

  /// The one per-chunk read primitive every read path rides on: decodes a
  /// sealed chunk through the wide columnar decoder (DecodeChunkWide) into
  /// the caller's `scratch` buffer — or takes the hot samples as they are —
  /// clips to `interval` by binary search, and calls `fn` for each sample
  /// matching `predicate`. The chunk's work (samples decoded, or hot
  /// samples visited) is then charged to the calling thread's
  /// QueryContext, so a read cut by a deadline, Cancel() or the points
  /// budget unwinds at chunk granularity. `scratch` belongs to one read
  /// call, so a callback may re-enter the store.
  template <typename Fn>
  Status VisitChunk(const PinnedChunk& chunk, const Interval& interval,
                    const ScanPredicate& predicate,
                    std::vector<Sample>* scratch, Fn&& fn) const {
    const Sample* begin = chunk.hot.data();
    const Sample* end = begin + chunk.hot.size();
    if (chunk.sealed()) {
      // Cold chunks pin their bytes here — at decode time, not at PinView
      // time — so chunks answered from zone maps or cached aggregates
      // never touch the tier. Eviction only drops the cache's own
      // reference; the shared_ptr below keeps the bytes alive.
      std::shared_ptr<const std::string> cold_bytes;
      const std::string* encoded = nullptr;
      if (chunk.sealed_ref != nullptr) {
        encoded = &chunk.sealed_ref->encoded;
      } else {
        m_.cold_pins->Increment();
        auto pinned = chunk.tier->Pin(chunk.cold_id);
        if (!pinned.ok()) {
          // Propagate unwrapped: the tier's status carries the chunk id
          // and the failure class (kCorruption for CRC/frame damage).
          return pinned.status();
        }
        cold_bytes = std::move(*pinned);
        encoded = cold_bytes.get();
      }
      m_.chunks_decoded->Increment();
      Status decode = DecodeChunkWide(*encoded, scratch);
      if (!decode.ok()) {
        return Status::Internal("sealed chunk failed to decode: " +
                                decode.message());
      }
      begin = scratch->data();
      end = begin + scratch->size();
    }
    // Hot samples were already clipped to the pin interval; `interval` is
    // the same or narrower (WindowAggregate passes the clamped span).
    const Sample* lo = std::lower_bound(
        begin, end, interval.start,
        [](const Sample& s, Timestamp t) { return s.t < t; });
    const Sample* hi = std::lower_bound(
        lo, end, interval.end,
        [](const Sample& s, Timestamp t) { return s.t < t; });
    m_.samples_scanned->Add(static_cast<size_t>(hi - lo));
    for (const Sample* s = lo; s != hi; ++s) {
      if (predicate.Matches(s->value)) fn(*s);
    }
    const uint64_t work = chunk.sealed() ? static_cast<uint64_t>(end - begin)
                                         : static_cast<uint64_t>(hi - lo);
    QueryContext* ctx = QueryContext::Current();
    if (ctx != nullptr && work > 0) return ctx->Charge(work);
    return Status::OK();
  }

  /// Registry-backed work instruments, resolved once at construction and
  /// cached as raw pointers so the hot scan templates above pay only a
  /// relaxed atomic add per increment. All point into `*metrics_`.
  struct Instruments {
    obs::Counter* chunks_total = nullptr;
    obs::Counter* chunks_scanned = nullptr;
    obs::Counter* chunks_from_cache = nullptr;
    obs::Counter* samples_scanned = nullptr;
    obs::Counter* chunks_decoded = nullptr;
    obs::Counter* chunks_sealed = nullptr;
    obs::Counter* chunks_unsealed = nullptr;
    obs::Counter* bytes_raw = nullptr;
    obs::Counter* bytes_compressed = nullptr;
    obs::Counter* chunks_zonemap_skipped = nullptr;
    // Concurrency layer (shared "concurrency.*" namespace with the lock
    // wrappers' SyncInstruments).
    obs::Counter* chunk_pins = nullptr;         ///< sealed chunks pinned by reads
    obs::Counter* snapshot_pins = nullptr;      ///< Fork() calls
    obs::Counter* unseal_conflicts = nullptr;   ///< unseals while readers pinned
    obs::Counter* series_cow_copies = nullptr;  ///< chunk-list copies
    // Cold tier.
    obs::Counter* cold_chunks_spilled = nullptr;  ///< chunks written to tier
    obs::Counter* cold_bytes_spilled = nullptr;   ///< encoded bytes spilled
    obs::Counter* cold_chunks_adopted = nullptr;  ///< recovery re-attachments
    obs::Counter* cold_pins = nullptr;            ///< lazy pins on scan paths
  };

  HypertableOptions options_;
  // Set exactly for a version view (Fork()'s result): its reads resolve
  // series through this directory, and it owns no series or locks.
  std::shared_ptr<const Directory> version_;
  // Guards series_ and next_id_; exclusive only in Create(). Heap-held so
  // the store stays movable (single-threaded construction pattern; moving
  // a store with live readers is undefined, like any std container).
  // Rank kSeriesMap.
  std::unique_ptr<SharedMutex> map_mu_;
  // Heap nodes so StoredSeries (non-movable: owns a mutex) has a stable
  // address readers can hold across the map lock release.
  std::unordered_map<SeriesId, std::unique_ptr<StoredSeries>> series_
      HYGRAPH_GUARDED_BY(*map_mu_);
  SeriesId next_id_ HYGRAPH_GUARDED_BY(*map_mu_) = 0;
  // Serializes Fork()'s republish (rank kSeriesPublish).
  std::unique_ptr<Mutex> publish_mu_;
  // The last published version, handed out while nothing is written.
  mutable std::shared_ptr<const HypertableStore> published_
      HYGRAPH_GUARDED_BY(*publish_mu_);
  // Series created or written since the last publish (rank kSeriesWritten).
  std::unique_ptr<Mutex> written_mu_;
  mutable std::vector<StoredSeries*> written_ HYGRAPH_GUARDED_BY(*written_mu_);
  // Owned when options.metrics was null; metrics_ and the cached
  // instrument pointers stay valid across moves because the registry is
  // heap-allocated.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments m_;
  SyncInstruments sync_;  // shared by every lock this store creates
};

}  // namespace hygraph::ts

#endif  // HYGRAPH_TS_HYPERTABLE_H_
