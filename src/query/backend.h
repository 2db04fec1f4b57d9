#ifndef HYGRAPH_QUERY_BACKEND_H_
#define HYGRAPH_QUERY_BACKEND_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "graph/property_graph.h"
#include "obs/metrics.h"
#include "ts/aggregate.h"
#include "ts/series.h"

namespace hygraph::ts {
class HypertableStore;
}  // namespace hygraph::ts

namespace hygraph::query {

/// A cheap snapshot of a backend's cumulative work counters, used by
/// PROFILE to attribute storage-layer work (points scanned, chunks decoded
/// vs. skipped, cache hits) to individual query operators by differencing
/// before/after each evaluation. All counters are monotone; Delta() never
/// underflows on a well-behaved backend.
struct BackendWork {
  uint64_t series_points_scanned = 0;  ///< samples materialized or folded
  uint64_t chunks_decoded = 0;         ///< sealed chunks Gorilla-decoded
  uint64_t chunks_cache_hits = 0;      ///< chunks answered from AggState cache
  uint64_t chunks_zonemap_skipped = 0; ///< chunks skipped via zone maps
  uint64_t cold_chunks_loaded = 0;     ///< chunk payloads pinned from the
                                       ///< cold tier (SPILL in PROFILE)
  uint64_t properties_scanned = 0;     ///< property-map entries examined

  BackendWork Delta(const BackendWork& earlier) const {
    auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
    BackendWork d;
    d.series_points_scanned = sub(series_points_scanned,
                                  earlier.series_points_scanned);
    d.chunks_decoded = sub(chunks_decoded, earlier.chunks_decoded);
    d.chunks_cache_hits = sub(chunks_cache_hits, earlier.chunks_cache_hits);
    d.chunks_zonemap_skipped =
        sub(chunks_zonemap_skipped, earlier.chunks_zonemap_skipped);
    d.cold_chunks_loaded = sub(cold_chunks_loaded, earlier.cold_chunks_loaded);
    d.properties_scanned = sub(properties_scanned, earlier.properties_scanned);
    return d;
  }
};

/// The canonical hypertable series name for (entity, key): "v12.temp" for
/// vertex 12's "temp", "e3.load" for edge 3's. This is the contract between
/// the polyglot backend (which names series this way) and the cold-tier
/// catalog (which persists series by name and must map them back to
/// entities on recovery).
std::string SeriesSlotName(bool vertex, uint64_t entity,
                           const std::string& key);
/// Inverse of SeriesSlotName. False when `name` is not of that shape (the
/// key may itself contain dots; the split is at the FIRST dot).
bool ParseSeriesSlotName(const std::string& name, bool* vertex,
                         uint64_t* entity, std::string* key);

/// The storage abstraction HGQL executes against. Both architectures of
/// Figure 1 implement it:
///
///   * AllInGraphStore (red path)  — series samples live inside the graph's
///     property maps; every series operation degenerates to a property scan.
///   * PolyglotStore   (green path) — series live in a chunked hypertable
///     keyed by (entity, property); series operations prune to chunks.
///
/// The interface is deliberately narrow: topology for structural matching,
/// plus range-scan and range-aggregate on a named series of a vertex or
/// edge. The executor never sees which architecture it runs on — that is
/// the paper's "users interact with hybrid data as if stored in a single
/// system".
class QueryBackend {
 public:
  virtual ~QueryBackend();

  /// Human-readable engine name for benchmark output ("all-in-graph",
  /// "polyglot").
  virtual std::string name() const = 0;

  // -- observability ----------------------------------------------------------

  /// The backend's metrics registry, or nullptr when it has none (the
  /// default). Non-const because read paths count work too; the registry
  /// is logically metadata, not state.
  virtual obs::MetricsRegistry* metrics() const { return nullptr; }

  /// Snapshot of cumulative work counters for PROFILE attribution. The
  /// default (all zeros) is valid for backends without instrumentation —
  /// deltas are then zero and PROFILE simply omits storage-work counters.
  virtual BackendWork Work() const { return {}; }

  /// The structural graph used for label scans, adjacency, and pattern
  /// matching. Static (non-series) properties are readable directly from
  /// the returned graph.
  virtual const graph::PropertyGraph& topology() const = 0;

  // -- ingestion --------------------------------------------------------------

  /// Mutable access to the structural graph for loading vertices, edges,
  /// labels, and static properties. Series samples must go through the
  /// Append*Sample methods so each engine stores them its own way.
  virtual graph::PropertyGraph* mutable_topology() = 0;

  /// Appends one sample to the series stored under (vertex, key).
  /// Creates the series on first use.
  virtual Status AppendVertexSample(graph::VertexId v, const std::string& key,
                                    Timestamp t, double value) = 0;
  /// Appends one sample to the series stored under (edge, key).
  virtual Status AppendEdgeSample(graph::EdgeId e, const std::string& key,
                                  Timestamp t, double value) = 0;

  /// Runs `fn` on the mutable topology under the backend's write guard,
  /// performing any copy-on-write detach first so pinned snapshots keep
  /// the pre-mutation graph. Thread-safe backends override this; the
  /// default just forwards to mutable_topology() (single-threaded bulk
  /// load). Concurrent mutators must use this, never mutable_topology().
  virtual Status MutateTopology(
      const std::function<Status(graph::PropertyGraph*)>& fn);

  // -- snapshots --------------------------------------------------------------

  /// Pins a cheap, immutable read view of the whole backend: topology and
  /// every series as of the call. The view answers all const methods with
  /// the pinned state regardless of concurrent mutation; its mutators fail
  /// with FailedPrecondition and mutable_topology() returns nullptr. The
  /// snapshot must not outlive the origin backend (it shares the origin's
  /// metrics registry, so Work()/PROFILE attribution keeps working).
  /// Returns nullptr when the backend has no snapshot support (the
  /// default) — callers then evaluate against the live backend.
  virtual std::shared_ptr<const QueryBackend> BeginSnapshot() const {
    return nullptr;
  }

  // -- introspection (durability / snapshotting) ----------------------------

  /// The series keys stored on a vertex / edge, sorted. Backends must
  /// implement these so a snapshotter can enumerate state it would
  /// otherwise not know exists; the defaults return nothing.
  virtual std::vector<std::string> VertexSeriesKeys(graph::VertexId v) const;
  virtual std::vector<std::string> EdgeSeriesKeys(graph::EdgeId e) const;

  /// True when series samples physically live inside the topology's
  /// property maps (the all-in-graph layout): persisting the topology then
  /// already persists every sample, and a snapshotter must not duplicate
  /// them as separate series records.
  virtual bool SeriesEmbeddedInTopology() const { return false; }

  /// The chunked hypertable holding this backend's series, or nullptr when
  /// series are not chunk-organized (the default; true for all-in-graph).
  /// The durability layer uses it for storage tiering — spilling sealed
  /// chunks cold at checkpoint and adopting catalogued chunks on recovery.
  virtual ts::HypertableStore* series_hypertable() { return nullptr; }

  /// Resolves (or creates empty) the series stored under the entity slot,
  /// returning its hypertable id. Recovery uses this to re-bind catalogued
  /// cold chunks to their (entity, key) before WAL replay. Unimplemented
  /// by default — only meaningful for backends with a series_hypertable().
  virtual Result<SeriesId> EnsureSeries(bool vertex, uint64_t entity,
                                        const std::string& key);

  // -- series access ------------------------------------------------------------

  /// Materializes the samples of (vertex, key) inside `interval`.
  virtual Result<ts::Series> VertexSeriesRange(
      graph::VertexId v, const std::string& key,
      const Interval& interval) const = 0;
  virtual Result<ts::Series> EdgeSeriesRange(
      graph::EdgeId e, const std::string& key,
      const Interval& interval) const = 0;

  /// Range aggregate over (vertex, key). The default implementation
  /// materializes the range and folds it; engines with native aggregation
  /// (the hypertable) override this.
  virtual Result<double> VertexSeriesAggregate(graph::VertexId v,
                                               const std::string& key,
                                               const Interval& interval,
                                               ts::AggKind kind) const;
  virtual Result<double> EdgeSeriesAggregate(graph::EdgeId e,
                                             const std::string& key,
                                             const Interval& interval,
                                             ts::AggKind kind) const;

  /// Batch range aggregate: one result per entity, all over the same
  /// (key, interval, kind). Multi-entity HGQL aggregate queries funnel
  /// through here, so an engine can resolve every entity's series in one
  /// pass (the hypertable then aggregates them one after another on the
  /// calling thread). Per-entity failures are reported in that entity's
  /// slot; the call itself only fails on batch-wide conditions
  /// (cancellation, deadline, budget). The default loops over the
  /// single-entity virtuals.
  virtual std::vector<Result<double>> VertexSeriesAggregateBatch(
      const std::vector<graph::VertexId>& vertices, const std::string& key,
      const Interval& interval, ts::AggKind kind) const;
  virtual std::vector<Result<double>> EdgeSeriesAggregateBatch(
      const std::vector<graph::EdgeId>& edges, const std::string& key,
      const Interval& interval, ts::AggKind kind) const;

  /// Tumbling-window aggregate series over (vertex, key): one sample per
  /// non-empty window of `width` ms. Default materializes then windows;
  /// the hypertable overrides with its native single-pass time_bucket.
  virtual Result<ts::Series> VertexSeriesWindowAggregate(
      graph::VertexId v, const std::string& key, const Interval& interval,
      Duration width, ts::AggKind kind) const;
  virtual Result<ts::Series> EdgeSeriesWindowAggregate(
      graph::EdgeId e, const std::string& key, const Interval& interval,
      Duration width, ts::AggKind kind) const;

  /// Number of samples of (vertex, key) inside `interval` whose value lies
  /// in [min_value, max_value] — the pushed-down series-predicate primitive
  /// behind HGQL's ts_count_between (the Q8 query shape). The default
  /// materializes the range and counts; the hypertable overrides with
  /// zone-map-assisted counting that can skip or count whole compressed
  /// chunks without decoding them.
  virtual Result<size_t> VertexSeriesCountInRange(graph::VertexId v,
                                                  const std::string& key,
                                                  const Interval& interval,
                                                  double min_value,
                                                  double max_value) const;
  virtual Result<size_t> EdgeSeriesCountInRange(graph::EdgeId e,
                                                const std::string& key,
                                                const Interval& interval,
                                                double min_value,
                                                double max_value) const;
};

}  // namespace hygraph::query

#endif  // HYGRAPH_QUERY_BACKEND_H_
