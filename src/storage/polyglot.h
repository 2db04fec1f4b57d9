#ifndef HYGRAPH_STORAGE_POLYGLOT_H_
#define HYGRAPH_STORAGE_POLYGLOT_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "common/sync.h"
#include "query/backend.h"
#include "storage/cow_graph.h"
#include "ts/hypertable.h"

namespace hygraph::storage {

/// The "Polyglot persistence" architecture of Figure 1 (the green path) —
/// a simulation of the paper's TimeTravelDB prototype (Neo4j +
/// TimescaleDB): topology, labels and static properties live in a property
/// graph; every series lives in a chunked hypertable, joined to its owning
/// vertex/edge by an internal series slot → SeriesId mapping.
///
/// Series reads prune to the chunks overlapping the requested range, and
/// range aggregates combine cached per-chunk partials — which is why this
/// engine wins Table 1's aggregation-heavy queries by orders of magnitude.
/// The small per-query cost of resolving the cross-store mapping is the
/// polyglot glue overhead that makes TTDB slightly *slower* than Neo4j on
/// the trivial Q1.
///
/// Thread safety (DESIGN.md §10): the graph and the slot → SeriesId map
/// sit behind one coarse reader-writer guard, held only while touching
/// them — sample data is read and written through the hypertable's own
/// per-series locks, so ingest on one series never blocks scans of
/// another. Series creation requires the exclusive guard; BeginSnapshot()
/// therefore captures a consistent (graph, map, hypertable version) triple
/// under the shared guard. topology()/mutable_topology() hand out
/// references that outlive the guard — single-threaded use only;
/// concurrent code goes through BeginSnapshot()/MutateTopology().
///
/// BeginSnapshot() returns the same class bound to a version: the pinned
/// graph, map and hypertable version, read with no lock, sharing the
/// origin's registry and instruments through the hypertable version.
class PolyglotStore final : public query::QueryBackend {
  /// Constructor access for BeginSnapshot() (passkey: make_shared needs a
  /// public constructor, the tag keeps it BeginSnapshot()'s).
  struct VersionTag {};
  struct SlotHash {
    size_t operator()(const query::SeriesSlot& slot) const {
      return std::hash<uint64_t>()(slot.entity * 2 + slot.vertex) *
                 1315423911u ^
             std::hash<std::string>()(slot.key);
    }
  };
  /// The cross-store glue: each slot's hypertable series.
  using SeriesMap = std::unordered_map<query::SeriesSlot, SeriesId, SlotHash>;

 public:
  explicit PolyglotStore(ts::HypertableOptions ts_options = {});
  /// A version: reads the pinned graph, map and hypertable version, and
  /// owns no graph, map, hypertable, registry or lock.
  PolyglotStore(VersionTag, std::shared_ptr<const graph::PropertyGraph> graph,
                std::shared_ptr<const SeriesMap> map,
                std::shared_ptr<const ts::HypertableStore> series);

  std::string name() const override { return "polyglot"; }
  const graph::PropertyGraph& topology() const override;

  /// Single-threaded bulk-load escape hatch; see AllInGraphStore. Null on
  /// a version.
  graph::PropertyGraph* mutable_topology() override;

  /// Runs `fn` under the store's exclusive guard after a copy-on-write
  /// detach — the concurrency-safe mutation path.
  Status MutateTopology(
      const std::function<Status(graph::PropertyGraph*)>& fn) override;

  /// The published version: graph, series map and the hypertable's
  /// version (HypertableStore::Fork()), all by pointer. One shared_ptr
  /// copy while nothing changed since it was published; otherwise
  /// republished at the cost of the series written since. Null on a
  /// version, which is immutable already.
  std::shared_ptr<const query::QueryBackend> BeginSnapshot() const override;

  /// One registry for the whole backend; the embedded hypertable's
  /// "hypertable.*" instruments live in it too (unless the caller injected
  /// a registry of their own via HypertableOptions::metrics).
  obs::MetricsRegistry* metrics() const override {
    return series_store().metrics();
  }
  query::BackendWork Work() const override;

  Status AppendSample(const query::SeriesSlot& slot, Timestamp t,
                      double value) override;

  Result<ts::Series> SeriesRange(const query::SeriesSlot& slot,
                                 const Interval& interval) const override;

  /// Streamed correlation: the hypertable merge-joins the slot's chunks
  /// against the anchor (HypertableStore::Correlate), so the slot's range
  /// is never materialized.
  Result<double> CorrelateSeriesRange(const query::SeriesSlot& slot,
                                      const Interval& interval,
                                      const ts::Series& anchor) const override;

  /// Native aggregation: answered by the hypertable's chunk-pruned,
  /// cache-assisted aggregate instead of materializing the range.
  Result<double> SeriesAggregate(const query::SeriesSlot& slot,
                                 const Interval& interval,
                                 ts::AggKind kind) const override;

  /// Batch aggregates resolve every slot's series under one hold of the
  /// guard, then run them through HypertableStore::AggregateMany, one
  /// series after another (the multi-entity Table 1 query shape: one
  /// aggregate per matched station/account).
  std::vector<Result<double>> SeriesAggregateBatch(
      const std::vector<query::SeriesSlot>& slots, const Interval& interval,
      ts::AggKind kind) const override;

  /// Native tumbling windows: the hypertable's single-pass time_bucket,
  /// chunk-cache assisted when windows align with chunks.
  Result<ts::Series> SeriesWindowAggregate(const query::SeriesSlot& slot,
                                           const Interval& interval,
                                           Duration width,
                                           ts::AggKind kind) const override;

  /// Pushed-down series predicate: answered by the hypertable's
  /// zone-map-assisted CountMatching, which skips (or counts) whole
  /// compressed chunks without decoding them.
  Result<size_t> SeriesCountInRange(const query::SeriesSlot& slot,
                                    const Interval& interval, double min_value,
                                    double max_value) const override;

  /// Every slot of the series map, sorted — the polyglot glue knows its
  /// schema, unlike the all-in-graph layout.
  std::vector<query::SeriesSlot> SeriesSlots() const override;

  /// Sample-data footprint of the hypertable this store reads (hot vectors
  /// vs sealed compressed bytes).
  ts::HypertableMemory SeriesMemoryUsage() const {
    return series_store().MemoryUsage();
  }

  /// The hypertable this store reads: its own, or a version's (work
  /// counters for tests/benches).
  const ts::HypertableStore& series_store() const {
    return pinned_series_ != nullptr ? *pinned_series_ : *series_;
  }
  /// The live hypertable; null on a version.
  ts::HypertableStore* mutable_series_store() { return series_.get(); }

  /// Storage tiering hooks (see query/backend.h): the durability layer
  /// spills this hypertable's sealed chunks cold at checkpoint and
  /// re-binds catalogued chunks through EnsureSeries on recovery.
  ts::HypertableStore* series_hypertable() override { return series_.get(); }
  Result<SeriesId> EnsureSeries(const query::SeriesSlot& slot) override;

 private:
  /// The one read path: `fn(graph, map)` on a version's pinned graph and
  /// map with no lock, or on the live ones under a shared hold of the
  /// guard. Series data is then read from series_store() outside it.
  template <typename Fn>
  decltype(auto) Read(Fn&& fn) const;
  /// `slot`'s series id, through Read.
  Result<SeriesId> Resolve(const query::SeriesSlot& slot) const;
  /// Creates the hypertable series on first use; call under the exclusive
  /// guard.
  SeriesId ResolveOrCreate(const query::SeriesSlot& slot)
      HYGRAPH_REQUIRES(*store_mu_);
  /// The map for editing, and the graph for mutation: both drop the
  /// published version first. A map a version captured is copied, never
  /// edited; the graph is copied while a version still pins it. Call
  /// under the exclusive guard.
  SeriesMap* MutableMap() HYGRAPH_REQUIRES(*store_mu_);
  graph::PropertyGraph* Detach() HYGRAPH_REQUIRES(*store_mu_);

  // Set exactly on a version: what it reads.
  std::shared_ptr<const graph::PropertyGraph> pinned_graph_;
  std::shared_ptr<const SeriesMap> pinned_map_;
  std::shared_ptr<const ts::HypertableStore> pinned_series_;

  CowGraph graph_ HYGRAPH_GUARDED_BY(*store_mu_);
  // Declared before series_ so the hypertable can adopt it at
  // construction (when the caller did not inject a registry of their own).
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<ts::HypertableStore> series_;
  std::shared_ptr<SeriesMap> map_ HYGRAPH_GUARDED_BY(*store_mu_);
  // "concurrency.snapshot_pins" is incremented by series_->Fork() on the
  // shared registry — one pin event per snapshot, not counted twice here.
  obs::Counter* topology_cow_copies_ = nullptr;
  SyncInstruments sync_;
  // Heap-held: SharedMutex is not movable, the store is. Rank kStoreCoarse.
  std::unique_ptr<SharedMutex> store_mu_;
  // Guards the published version (rank kStorePublish).
  std::unique_ptr<Mutex> publish_mu_;
  mutable std::shared_ptr<const PolyglotStore> published_
      HYGRAPH_GUARDED_BY(*publish_mu_);
  // Set while a published version holds map_ (MutableMap copies it).
  mutable bool map_published_ HYGRAPH_GUARDED_BY(*publish_mu_) = false;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_POLYGLOT_H_
