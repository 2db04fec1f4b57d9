#include "storage/polyglot.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "ts/correlate.h"

namespace hygraph::storage {

namespace {

ts::HypertableOptions WithDefaultMetrics(ts::HypertableOptions options,
                                         obs::MetricsRegistry* registry) {
  if (options.metrics == nullptr) options.metrics = registry;
  return options;
}

Result<SeriesId> ResolveIn(const PolyglotStore::SeriesMap& map, uint64_t id,
                           const std::string& key) {
  auto it = map.find(PolyglotStore::EntityKey{id, key});
  if (it == map.end()) {
    return Status::NotFound("no series '" + key + "' on entity " +
                            std::to_string(id));
  }
  return it->second;
}

std::vector<std::string> KeysOf(const PolyglotStore::SeriesMap& map,
                                uint64_t id) {
  std::vector<std::string> keys;
  for (const auto& [entity_key, sid] : map) {
    (void)sid;
    if (entity_key.id == id) keys.push_back(entity_key.key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// An entity without a series under `key` behaves like an entity with an
// empty series, matching AllInGraphStore (whose generic property scan
// cannot distinguish the two). Aggregates over nothing fold the same way
// as AggState::Finalize on an empty range.
Result<double> EmptyAggregate(ts::AggKind kind) {
  if (kind == ts::AggKind::kCount) return 0.0;
  return Status::NotFound("aggregate over empty range");
}

// Resolves each entity's series under `key` and pre-fills the answer
// vector with EmptyAggregate placeholders; absent entities keep the
// placeholder (matching the single-entity overrides). Present entities are
// recorded as (series, output slot) pairs for the batch call.
std::vector<Result<double>> PlanAggregateBatch(
    const PolyglotStore::SeriesMap& map, const std::vector<uint64_t>& ids,
    const std::string& key, ts::AggKind kind, std::vector<SeriesId>* present,
    std::vector<size_t>* slot) {
  std::vector<Result<double>> out;
  out.reserve(ids.size());
  present->reserve(ids.size());
  slot->reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto sid = ResolveIn(map, ids[i], key);
    if (sid.ok()) {
      present->push_back(*sid);
      slot->push_back(i);
    }
    out.push_back(EmptyAggregate(kind));
  }
  return out;
}

// Runs the resolved series through the hypertable's batch aggregate (one
// series after another) and scatters the answers into their slots. A
// batch-wide failure (cancellation, deadline, budget) overwrites every
// slot; per-series errors come back inside the results themselves.
void ScatterAggregateBatch(const ts::HypertableStore& store,
                           const Interval& interval, ts::AggKind kind,
                           const std::vector<SeriesId>& present,
                           const std::vector<size_t>& slot,
                           std::vector<Result<double>>* out) {
  if (present.empty()) return;
  std::vector<Result<double>> results;
  const Status batch = store.AggregateMany(present, interval, kind, &results);
  if (!batch.ok()) {
    for (auto& r : *out) r = batch;
    return;
  }
  for (size_t i = 0; i < present.size(); ++i) {
    (*out)[slot[i]] = std::move(results[i]);
  }
}

query::BackendWork WorkFromStats(const ts::HypertableStats& stats) {
  query::BackendWork w;
  w.series_points_scanned = stats.samples_scanned;
  w.chunks_decoded = stats.chunks_decoded;
  w.chunks_cache_hits = stats.chunks_from_cache;
  w.chunks_zonemap_skipped = stats.chunks_zonemap_skipped;
  w.cold_chunks_loaded = stats.cold_pins;
  return w;
}

}  // namespace

/// A published version: the graph, the (entity, key) maps and the
/// hypertable's version, all immutable and held by pointer. The hypertable
/// version shares the origin's registry, so Work()/PROFILE attribution
/// keeps working across a snapshot.
class PolyglotSnapshot final : public query::QueryBackend {
 public:
  PolyglotSnapshot(std::shared_ptr<const graph::PropertyGraph> graph,
                   std::shared_ptr<const PolyglotStore::SeriesMaps> maps,
                   std::shared_ptr<const ts::HypertableStore> series)
      : graph_(std::move(graph)),
        maps_(std::move(maps)),
        series_(std::move(series)) {}

  /// The hypertable version this snapshot reads.
  const ts::HypertableStore* series() const { return series_.get(); }

  std::string name() const override { return "polyglot"; }
  const graph::PropertyGraph& topology() const override { return *graph_; }
  graph::PropertyGraph* mutable_topology() override { return nullptr; }

  obs::MetricsRegistry* metrics() const override { return series_->metrics(); }
  query::BackendWork Work() const override {
    return WorkFromStats(series_->stats());
  }

  Status AppendVertexSample(graph::VertexId, const std::string&, Timestamp,
                            double) override {
    return Status::FailedPrecondition("snapshot is read-only");
  }
  Status AppendEdgeSample(graph::EdgeId, const std::string&, Timestamp,
                          double) override {
    return Status::FailedPrecondition("snapshot is read-only");
  }

  Result<ts::Series> VertexSeriesRange(
      graph::VertexId v, const std::string& key,
      const Interval& interval) const override {
    auto sid = ResolveIn(maps_->vertex, v, key);
    if (!sid.ok()) return ts::Series(key);
    return series_->Materialize(*sid, interval);
  }
  Result<ts::Series> EdgeSeriesRange(graph::EdgeId e, const std::string& key,
                                     const Interval& interval) const override {
    auto sid = ResolveIn(maps_->edge, e, key);
    if (!sid.ok()) return ts::Series(key);
    return series_->Materialize(*sid, interval);
  }

  Result<double> CorrelateSeriesRange(
      const query::SeriesSlot& slot, const Interval& interval,
      const ts::Series& anchor) const override {
    auto sid = ResolveIn(maps_->of(slot.vertex), slot.entity, slot.key);
    if (!sid.ok()) return ts::Correlation(anchor, ts::Series(slot.key));
    return series_->Correlate(*sid, interval, anchor);
  }

  Result<double> VertexSeriesAggregate(graph::VertexId v,
                                       const std::string& key,
                                       const Interval& interval,
                                       ts::AggKind kind) const override {
    auto sid = ResolveIn(maps_->vertex, v, key);
    if (!sid.ok()) return EmptyAggregate(kind);
    return series_->Aggregate(*sid, interval, kind);
  }
  Result<double> EdgeSeriesAggregate(graph::EdgeId e, const std::string& key,
                                     const Interval& interval,
                                     ts::AggKind kind) const override {
    auto sid = ResolveIn(maps_->edge, e, key);
    if (!sid.ok()) return EmptyAggregate(kind);
    return series_->Aggregate(*sid, interval, kind);
  }

  std::vector<Result<double>> VertexSeriesAggregateBatch(
      const std::vector<graph::VertexId>& vertices, const std::string& key,
      const Interval& interval, ts::AggKind kind) const override {
    std::vector<SeriesId> present;
    std::vector<size_t> slot;
    auto out = PlanAggregateBatch(maps_->vertex, vertices, key, kind,
                                  &present, &slot);
    ScatterAggregateBatch(*series_, interval, kind, present, slot, &out);
    return out;
  }
  std::vector<Result<double>> EdgeSeriesAggregateBatch(
      const std::vector<graph::EdgeId>& edges, const std::string& key,
      const Interval& interval, ts::AggKind kind) const override {
    std::vector<SeriesId> present;
    std::vector<size_t> slot;
    auto out = PlanAggregateBatch(maps_->edge, edges, key, kind, &present,
                                  &slot);
    ScatterAggregateBatch(*series_, interval, kind, present, slot, &out);
    return out;
  }

  Result<ts::Series> VertexSeriesWindowAggregate(
      graph::VertexId v, const std::string& key, const Interval& interval,
      Duration width, ts::AggKind kind) const override {
    auto sid = ResolveIn(maps_->vertex, v, key);
    if (!sid.ok()) return ts::Series(key);
    return series_->WindowAggregate(*sid, interval, width, kind);
  }
  Result<ts::Series> EdgeSeriesWindowAggregate(
      graph::EdgeId e, const std::string& key, const Interval& interval,
      Duration width, ts::AggKind kind) const override {
    auto sid = ResolveIn(maps_->edge, e, key);
    if (!sid.ok()) return ts::Series(key);
    return series_->WindowAggregate(*sid, interval, width, kind);
  }

  Result<size_t> VertexSeriesCountInRange(graph::VertexId v,
                                          const std::string& key,
                                          const Interval& interval,
                                          double min_value,
                                          double max_value) const override {
    auto sid = ResolveIn(maps_->vertex, v, key);
    if (!sid.ok()) return size_t{0};
    return series_->CountMatching(*sid, interval,
                                  ts::ScanPredicate{min_value, max_value});
  }
  Result<size_t> EdgeSeriesCountInRange(graph::EdgeId e,
                                        const std::string& key,
                                        const Interval& interval,
                                        double min_value,
                                        double max_value) const override {
    auto sid = ResolveIn(maps_->edge, e, key);
    if (!sid.ok()) return size_t{0};
    return series_->CountMatching(*sid, interval,
                                  ts::ScanPredicate{min_value, max_value});
  }

  std::vector<std::string> VertexSeriesKeys(graph::VertexId v) const override {
    return KeysOf(maps_->vertex, v);
  }
  std::vector<std::string> EdgeSeriesKeys(graph::EdgeId e) const override {
    return KeysOf(maps_->edge, e);
  }

 private:
  std::shared_ptr<const graph::PropertyGraph> graph_;
  std::shared_ptr<const PolyglotStore::SeriesMaps> maps_;
  std::shared_ptr<const ts::HypertableStore> series_;
};

PolyglotStore::PolyglotStore(ts::HypertableOptions ts_options)
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      series_(WithDefaultMetrics(std::move(ts_options), metrics_.get())),
      maps_(std::make_shared<SeriesMaps>()),
      topology_cow_copies_(
          series_.metrics()->counter("concurrency.topology_cow_copies")),
      sync_(SyncInstruments::ForRegistry(series_.metrics())),
      store_mu_(std::make_unique<SharedMutex>(LockRank::kStoreCoarse, sync_)),
      publish_mu_(std::make_unique<Mutex>(LockRank::kStorePublish, sync_)) {}

query::BackendWork PolyglotStore::Work() const {
  return WorkFromStats(series_.stats());
}

const graph::PropertyGraph& PolyglotStore::topology() const {
  SharedLock lock(*store_mu_);
  return *graph_;  // reference outlives the guard; see header contract
}

graph::PropertyGraph* PolyglotStore::Detach() {
  {
    // Dropped first, or the published version's pin would make every
    // mutation copy the graph.
    MutexLock lock(*publish_mu_);
    published_.reset();
  }
  return graph_.Mutable(topology_cow_copies_);
}

graph::PropertyGraph* PolyglotStore::mutable_topology() {
  ExclusiveLock lock(*store_mu_);
  return Detach();
}

Status PolyglotStore::MutateTopology(
    const std::function<Status(graph::PropertyGraph*)>& fn) {
  ExclusiveLock lock(*store_mu_);
  return fn(Detach());
}

PolyglotStore::SeriesMaps* PolyglotStore::MutableMaps() {
  MutexLock lock(*publish_mu_);
  published_.reset();
  if (maps_published_) {
    maps_ = std::make_shared<SeriesMaps>(*maps_);
    maps_published_ = false;
  }
  return maps_.get();
}

std::shared_ptr<const query::QueryBackend> PolyglotStore::BeginSnapshot()
    const {
  // Writers of the graph and the maps hold the guard exclusively and drop
  // the published version; sample writes only mark their series written,
  // and Fork() republishes just those. Under the shared guard the maps and
  // the hypertable's series set cannot drift apart.
  SharedLock lock(*store_mu_);
  MutexLock publish(*publish_mu_);
  std::shared_ptr<const ts::HypertableStore> series = series_.Fork();
  if (published_ == nullptr || published_->series() != series.get()) {
    published_ = std::make_shared<const PolyglotSnapshot>(
        graph_.Pin(), maps_, std::move(series));
    maps_published_ = true;
  }
  return published_;
}

Result<SeriesId> PolyglotStore::ResolveLocked(bool vertex, uint64_t id,
                                              const std::string& key) const {
  SharedLock lock(*store_mu_);
  return ResolveIn(maps_->of(vertex), id, key);
}

SeriesId PolyglotStore::ResolveOrCreate(bool vertex, uint64_t id,
                                        const std::string& key) {
  auto found = ResolveIn(maps_->of(vertex), id, key);
  if (found.ok()) return *found;
  // The slot-name contract (query::SeriesSlotName) is what lets the cold
  // tier's catalog map persisted series back to (entity, key) on recovery.
  const SeriesId sid = series_.Create(query::SeriesSlotName(vertex, id, key));
  SeriesMaps* maps = MutableMaps();
  (vertex ? maps->vertex : maps->edge).emplace(EntityKey{id, key}, sid);
  return sid;
}

Result<SeriesId> PolyglotStore::EnsureSeries(bool vertex, uint64_t entity,
                                             const std::string& key) {
  ExclusiveLock lock(*store_mu_);
  return ResolveOrCreate(vertex, entity, key);
}

Status PolyglotStore::AppendVertexSample(graph::VertexId v,
                                         const std::string& key, Timestamp t,
                                         double value) {
  SeriesId sid = 0;
  bool found = false;
  {
    // Fast path: existing series resolve under the shared guard, so
    // steady-state ingest on different series runs concurrently.
    SharedLock lock(*store_mu_);
    if (!graph_->HasVertex(v)) {
      return Status::NotFound("no vertex with id " + std::to_string(v));
    }
    auto it = maps_->vertex.find(EntityKey{v, key});
    if (it != maps_->vertex.end()) {
      sid = it->second;
      found = true;
    }
  }
  if (!found) {
    ExclusiveLock lock(*store_mu_);
    if (!graph_->HasVertex(v)) {  // recheck: guard was dropped
      return Status::NotFound("no vertex with id " + std::to_string(v));
    }
    sid = ResolveOrCreate(/*vertex=*/true, v, key);
  }
  return series_.Insert(sid, t, value);
}

Status PolyglotStore::AppendEdgeSample(graph::EdgeId e, const std::string& key,
                                       Timestamp t, double value) {
  SeriesId sid = 0;
  bool found = false;
  {
    SharedLock lock(*store_mu_);
    if (!graph_->HasEdge(e)) {
      return Status::NotFound("no edge with id " + std::to_string(e));
    }
    auto it = maps_->edge.find(EntityKey{e, key});
    if (it != maps_->edge.end()) {
      sid = it->second;
      found = true;
    }
  }
  if (!found) {
    ExclusiveLock lock(*store_mu_);
    if (!graph_->HasEdge(e)) {  // recheck: guard was dropped
      return Status::NotFound("no edge with id " + std::to_string(e));
    }
    sid = ResolveOrCreate(/*vertex=*/false, e, key);
  }
  return series_.Insert(sid, t, value);
}

std::vector<std::string> PolyglotStore::VertexSeriesKeys(
    graph::VertexId v) const {
  SharedLock lock(*store_mu_);
  return KeysOf(maps_->vertex, v);
}

std::vector<std::string> PolyglotStore::EdgeSeriesKeys(graph::EdgeId e) const {
  SharedLock lock(*store_mu_);
  return KeysOf(maps_->edge, e);
}

Result<ts::Series> PolyglotStore::VertexSeriesRange(
    graph::VertexId v, const std::string& key,
    const Interval& interval) const {
  auto sid = ResolveLocked(/*vertex=*/true, v, key);
  if (!sid.ok()) return ts::Series(key);
  return series_.Materialize(*sid, interval);
}

Result<ts::Series> PolyglotStore::EdgeSeriesRange(
    graph::EdgeId e, const std::string& key, const Interval& interval) const {
  auto sid = ResolveLocked(/*vertex=*/false, e, key);
  if (!sid.ok()) return ts::Series(key);
  return series_.Materialize(*sid, interval);
}

Result<double> PolyglotStore::CorrelateSeriesRange(
    const query::SeriesSlot& slot, const Interval& interval,
    const ts::Series& anchor) const {
  auto sid = ResolveLocked(slot.vertex, slot.entity, slot.key);
  if (!sid.ok()) return ts::Correlation(anchor, ts::Series(slot.key));
  return series_.Correlate(*sid, interval, anchor);
}

Result<double> PolyglotStore::VertexSeriesAggregate(graph::VertexId v,
                                                    const std::string& key,
                                                    const Interval& interval,
                                                    ts::AggKind kind) const {
  auto sid = ResolveLocked(/*vertex=*/true, v, key);
  if (!sid.ok()) return EmptyAggregate(kind);
  return series_.Aggregate(*sid, interval, kind);
}

Result<double> PolyglotStore::EdgeSeriesAggregate(graph::EdgeId e,
                                                  const std::string& key,
                                                  const Interval& interval,
                                                  ts::AggKind kind) const {
  auto sid = ResolveLocked(/*vertex=*/false, e, key);
  if (!sid.ok()) return EmptyAggregate(kind);
  return series_.Aggregate(*sid, interval, kind);
}

std::vector<Result<double>> PolyglotStore::VertexSeriesAggregateBatch(
    const std::vector<graph::VertexId>& vertices, const std::string& key,
    const Interval& interval, ts::AggKind kind) const {
  std::vector<SeriesId> present;
  std::vector<size_t> slot;
  std::vector<Result<double>> out;
  {
    // Resolve under one brief shared hold instead of per-entity locking;
    // the aggregate itself runs unlocked against the per-series shards.
    SharedLock lock(*store_mu_);
    out = PlanAggregateBatch(maps_->vertex, vertices, key, kind, &present,
                             &slot);
  }
  ScatterAggregateBatch(series_, interval, kind, present, slot, &out);
  return out;
}

std::vector<Result<double>> PolyglotStore::EdgeSeriesAggregateBatch(
    const std::vector<graph::EdgeId>& edges, const std::string& key,
    const Interval& interval, ts::AggKind kind) const {
  std::vector<SeriesId> present;
  std::vector<size_t> slot;
  std::vector<Result<double>> out;
  {
    SharedLock lock(*store_mu_);
    out = PlanAggregateBatch(maps_->edge, edges, key, kind, &present, &slot);
  }
  ScatterAggregateBatch(series_, interval, kind, present, slot, &out);
  return out;
}

Result<size_t> PolyglotStore::VertexSeriesCountInRange(
    graph::VertexId v, const std::string& key, const Interval& interval,
    double min_value, double max_value) const {
  auto sid = ResolveLocked(/*vertex=*/true, v, key);
  if (!sid.ok()) return size_t{0};  // missing series counts like an empty one
  return series_.CountMatching(*sid, interval,
                               ts::ScanPredicate{min_value, max_value});
}

Result<size_t> PolyglotStore::EdgeSeriesCountInRange(
    graph::EdgeId e, const std::string& key, const Interval& interval,
    double min_value, double max_value) const {
  auto sid = ResolveLocked(/*vertex=*/false, e, key);
  if (!sid.ok()) return size_t{0};
  return series_.CountMatching(*sid, interval,
                               ts::ScanPredicate{min_value, max_value});
}

Result<ts::Series> PolyglotStore::VertexSeriesWindowAggregate(
    graph::VertexId v, const std::string& key, const Interval& interval,
    Duration width, ts::AggKind kind) const {
  auto sid = ResolveLocked(/*vertex=*/true, v, key);
  if (!sid.ok()) return ts::Series(key);
  return series_.WindowAggregate(*sid, interval, width, kind);
}

Result<ts::Series> PolyglotStore::EdgeSeriesWindowAggregate(
    graph::EdgeId e, const std::string& key, const Interval& interval,
    Duration width, ts::AggKind kind) const {
  auto sid = ResolveLocked(/*vertex=*/false, e, key);
  if (!sid.ok()) return ts::Series(key);
  return series_.WindowAggregate(*sid, interval, width, kind);
}

}  // namespace hygraph::storage
