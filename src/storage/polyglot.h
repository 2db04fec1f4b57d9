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

class PolyglotSnapshot;

/// The "Polyglot persistence" architecture of Figure 1 (the green path) —
/// a simulation of the paper's TimeTravelDB prototype (Neo4j +
/// TimescaleDB): topology, labels and static properties live in a property
/// graph; every series lives in a chunked hypertable, joined to its owning
/// vertex/edge by an internal (entity, key) → SeriesId mapping.
///
/// Series reads prune to the chunks overlapping the requested range, and
/// range aggregates combine cached per-chunk partials — which is why this
/// engine wins Table 1's aggregation-heavy queries by orders of magnitude.
/// The small per-query cost of resolving the cross-store mapping is the
/// polyglot glue overhead that makes TTDB slightly *slower* than Neo4j on
/// the trivial Q1.
///
/// Thread safety (DESIGN.md §10): the graph and the (entity, key) maps sit
/// behind one coarse reader-writer guard, held only while touching them —
/// sample data is read and written through the hypertable's own per-series
/// locks, so ingest on one series never blocks scans of another. Series
/// creation requires the exclusive guard; BeginSnapshot() therefore
/// captures a consistent (graph, maps, hypertable version) triple under
/// the shared guard. topology()/mutable_topology() hand out references
/// that outlive the guard — single-threaded use only; concurrent code goes
/// through BeginSnapshot()/MutateTopology().
class PolyglotStore final : public query::QueryBackend {
 public:
  explicit PolyglotStore(ts::HypertableOptions ts_options = {});

  std::string name() const override { return "polyglot"; }
  const graph::PropertyGraph& topology() const override;

  /// Single-threaded bulk-load escape hatch; see AllInGraphStore.
  graph::PropertyGraph* mutable_topology() override;

  /// Runs `fn` under the store's exclusive guard after a copy-on-write
  /// detach — the concurrency-safe mutation path.
  Status MutateTopology(
      const std::function<Status(graph::PropertyGraph*)>& fn) override;

  /// The published immutable version: graph, series maps and the
  /// hypertable's version (HypertableStore::Fork()), all by pointer. One
  /// shared_ptr copy while nothing changed since it was published;
  /// otherwise republished at the cost of the series written since.
  std::shared_ptr<const query::QueryBackend> BeginSnapshot() const override;

  /// One registry for the whole backend; the embedded hypertable's
  /// "hypertable.*" instruments live in it too (unless the caller injected
  /// a registry of their own via HypertableOptions::metrics).
  obs::MetricsRegistry* metrics() const override { return series_.metrics(); }
  query::BackendWork Work() const override;

  Status AppendVertexSample(graph::VertexId v, const std::string& key,
                            Timestamp t, double value) override;
  Status AppendEdgeSample(graph::EdgeId e, const std::string& key,
                          Timestamp t, double value) override;

  Result<ts::Series> VertexSeriesRange(graph::VertexId v,
                                       const std::string& key,
                                       const Interval& interval) const override;
  Result<ts::Series> EdgeSeriesRange(graph::EdgeId e, const std::string& key,
                                     const Interval& interval) const override;

  /// Streamed correlation: the hypertable merge-joins the slot's chunks
  /// against the anchor (HypertableStore::Correlate), so the slot's range
  /// is never materialized.
  Result<double> CorrelateSeriesRange(const query::SeriesSlot& slot,
                                      const Interval& interval,
                                      const ts::Series& anchor) const override;

  /// Native aggregation: answered by the hypertable's chunk-pruned,
  /// cache-assisted aggregate instead of materializing the range.
  Result<double> VertexSeriesAggregate(graph::VertexId v,
                                       const std::string& key,
                                       const Interval& interval,
                                       ts::AggKind kind) const override;
  Result<double> EdgeSeriesAggregate(graph::EdgeId e, const std::string& key,
                                     const Interval& interval,
                                     ts::AggKind kind) const override;

  /// Batch aggregates resolve every entity's series, then run them through
  /// HypertableStore::AggregateMany, one series after another (the
  /// multi-entity Table 1 query shape: one aggregate per matched
  /// station/account).
  std::vector<Result<double>> VertexSeriesAggregateBatch(
      const std::vector<graph::VertexId>& vertices, const std::string& key,
      const Interval& interval, ts::AggKind kind) const override;
  std::vector<Result<double>> EdgeSeriesAggregateBatch(
      const std::vector<graph::EdgeId>& edges, const std::string& key,
      const Interval& interval, ts::AggKind kind) const override;

  /// Native tumbling windows: the hypertable's single-pass time_bucket,
  /// chunk-cache assisted when windows align with chunks.
  Result<ts::Series> VertexSeriesWindowAggregate(
      graph::VertexId v, const std::string& key, const Interval& interval,
      Duration width, ts::AggKind kind) const override;
  Result<ts::Series> EdgeSeriesWindowAggregate(
      graph::EdgeId e, const std::string& key, const Interval& interval,
      Duration width, ts::AggKind kind) const override;

  /// Pushed-down series predicate: answered by the hypertable's
  /// zone-map-assisted CountMatching, which skips (or counts) whole
  /// compressed chunks without decoding them.
  Result<size_t> VertexSeriesCountInRange(graph::VertexId v,
                                          const std::string& key,
                                          const Interval& interval,
                                          double min_value,
                                          double max_value) const override;
  Result<size_t> EdgeSeriesCountInRange(graph::EdgeId e,
                                        const std::string& key,
                                        const Interval& interval,
                                        double min_value,
                                        double max_value) const override;

  /// Series keys come straight from the (entity, key) → SeriesId mapping —
  /// the polyglot glue knows its schema, unlike the all-in-graph layout.
  std::vector<std::string> VertexSeriesKeys(graph::VertexId v) const override;
  std::vector<std::string> EdgeSeriesKeys(graph::EdgeId e) const override;

  /// Sample-data footprint of the underlying hypertable (hot vectors vs
  /// sealed compressed bytes).
  ts::HypertableMemory SeriesMemoryUsage() const {
    return series_.MemoryUsage();
  }

  /// The underlying time-series store (work counters for tests/benches).
  const ts::HypertableStore& series_store() const { return series_; }
  ts::HypertableStore* mutable_series_store() { return &series_; }

  /// Storage tiering hooks (see query/backend.h): the durability layer
  /// spills this hypertable's sealed chunks cold at checkpoint and
  /// re-binds catalogued chunks through EnsureSeries on recovery.
  ts::HypertableStore* series_hypertable() override { return &series_; }
  Result<SeriesId> EnsureSeries(bool vertex, uint64_t entity,
                                const std::string& key) override;

  // Cross-store glue types. Internal, but public so the snapshot
  // implementation (in polyglot.cc) can read the maps it holds.
  struct EntityKey {
    uint64_t id;
    std::string key;
    bool operator==(const EntityKey&) const = default;
  };
  struct EntityKeyHash {
    size_t operator()(const EntityKey& k) const {
      return std::hash<uint64_t>()(k.id) * 1315423911u ^
             std::hash<std::string>()(k.key);
    }
  };
  using SeriesMap = std::unordered_map<EntityKey, SeriesId, EntityKeyHash>;
  struct SeriesMaps {
    SeriesMap vertex;
    SeriesMap edge;
    const SeriesMap& of(bool is_vertex) const {
      return is_vertex ? vertex : edge;
    }
  };

 private:
  /// Looks (id, key) up in the vertex or edge series map under a shared
  /// hold of the guard (a selector rather than a map reference so callers
  /// never touch the guarded maps outside the lock).
  Result<SeriesId> ResolveLocked(bool vertex, uint64_t id,
                                 const std::string& key) const;
  /// Creates the hypertable series on first use; call under the exclusive
  /// guard.
  SeriesId ResolveOrCreate(bool vertex, uint64_t id, const std::string& key)
      HYGRAPH_REQUIRES(*store_mu_);
  /// The maps for editing, and the graph for mutation: both drop the
  /// published version first. Maps a version captured are copied, never
  /// edited; the graph is copied while a snapshot still pins it. Call
  /// under the exclusive guard.
  SeriesMaps* MutableMaps() HYGRAPH_REQUIRES(*store_mu_);
  graph::PropertyGraph* Detach() HYGRAPH_REQUIRES(*store_mu_);

  CowGraph graph_ HYGRAPH_GUARDED_BY(*store_mu_);
  // Declared before series_ so the hypertable can adopt it at
  // construction (when the caller did not inject a registry of their own).
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  ts::HypertableStore series_;
  std::shared_ptr<SeriesMaps> maps_ HYGRAPH_GUARDED_BY(*store_mu_);
  // "concurrency.snapshot_pins" is incremented by series_.Fork() on the
  // shared registry — one pin event per snapshot, not counted twice here.
  obs::Counter* topology_cow_copies_ = nullptr;
  SyncInstruments sync_;
  // Heap-held: SharedMutex is not movable, the store is. Rank kStoreCoarse.
  std::unique_ptr<SharedMutex> store_mu_;
  // Guards the published version (rank kStorePublish).
  std::unique_ptr<Mutex> publish_mu_;
  mutable std::shared_ptr<const PolyglotSnapshot> published_
      HYGRAPH_GUARDED_BY(*publish_mu_);
  // Set while a published version holds maps_ (MutableMaps copies them).
  mutable bool maps_published_ HYGRAPH_GUARDED_BY(*publish_mu_) = false;
};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_POLYGLOT_H_
