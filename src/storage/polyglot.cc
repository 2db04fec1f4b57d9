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

template <typename Map>
Result<SeriesId> ResolveIn(const Map& map, const query::SeriesSlot& slot) {
  auto it = map.find(slot);
  if (it == map.end()) {
    return Status::NotFound("no series '" + slot.key + "' on entity " +
                            std::to_string(slot.entity));
  }
  return it->second;
}

// An entity without a series under `key` behaves like an entity with an
// empty series, matching AllInGraphStore (whose generic property scan
// cannot distinguish the two). Aggregates over nothing fold the same way
// as AggState::Finalize on an empty range.
Result<double> EmptyAggregate(ts::AggKind kind) {
  if (kind == ts::AggKind::kCount) return 0.0;
  return Status::NotFound("aggregate over empty range");
}

Status ReadOnly() {
  return Status::FailedPrecondition("snapshot is read-only");
}

// The entity must exist before a series is created under it.
Status CheckEntity(const graph::PropertyGraph& g,
                   const query::SeriesSlot& slot) {
  if (slot.vertex ? g.HasVertex(slot.entity) : g.HasEdge(slot.entity)) {
    return Status::OK();
  }
  return Status::NotFound(std::string(slot.vertex ? "no vertex" : "no edge") +
                          " with id " + std::to_string(slot.entity));
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

PolyglotStore::PolyglotStore(ts::HypertableOptions ts_options)
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      series_(std::make_unique<ts::HypertableStore>(
          WithDefaultMetrics(std::move(ts_options), metrics_.get()))),
      map_(std::make_shared<SeriesMap>()),
      topology_cow_copies_(
          series_->metrics()->counter("concurrency.topology_cow_copies")),
      sync_(SyncInstruments::ForRegistry(series_->metrics())),
      store_mu_(std::make_unique<SharedMutex>(LockRank::kStoreCoarse, sync_)),
      publish_mu_(std::make_unique<Mutex>(LockRank::kStorePublish, sync_)) {}

PolyglotStore::PolyglotStore(VersionTag,
                             std::shared_ptr<const graph::PropertyGraph> graph,
                             std::shared_ptr<const SeriesMap> map,
                             std::shared_ptr<const ts::HypertableStore> series)
    : pinned_graph_(std::move(graph)),
      pinned_map_(std::move(map)),
      pinned_series_(std::move(series)),
      graph_(nullptr) {}

template <typename Fn>
decltype(auto) PolyglotStore::Read(Fn&& fn) const {
  if (pinned_series_ != nullptr) return fn(*pinned_graph_, *pinned_map_);
  SharedLock lock(*store_mu_);
  return fn(*graph_, *map_);
}

Result<SeriesId> PolyglotStore::Resolve(const query::SeriesSlot& slot) const {
  return Read([&](const graph::PropertyGraph&, const SeriesMap& map) {
    return ResolveIn(map, slot);
  });
}

query::BackendWork PolyglotStore::Work() const {
  return WorkFromStats(series_store().stats());
}

const graph::PropertyGraph& PolyglotStore::topology() const {
  // The reference outlives the guard; see the header contract.
  return Read([](const graph::PropertyGraph& g,
                 const SeriesMap&) -> const graph::PropertyGraph& {
    return g;
  });
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
  if (pinned_series_ != nullptr) return nullptr;
  ExclusiveLock lock(*store_mu_);
  return Detach();
}

Status PolyglotStore::MutateTopology(
    const std::function<Status(graph::PropertyGraph*)>& fn) {
  if (pinned_series_ != nullptr) return ReadOnly();
  ExclusiveLock lock(*store_mu_);
  return fn(Detach());
}

PolyglotStore::SeriesMap* PolyglotStore::MutableMap() {
  MutexLock lock(*publish_mu_);
  published_.reset();
  if (map_published_) {
    map_ = std::make_shared<SeriesMap>(*map_);
    map_published_ = false;
  }
  return map_.get();
}

std::shared_ptr<const query::QueryBackend> PolyglotStore::BeginSnapshot()
    const {
  if (pinned_series_ != nullptr) return nullptr;
  // Writers of the graph and the map hold the guard exclusively and drop
  // the published version; sample writes only mark their series written,
  // and Fork() republishes just those. Under the shared guard the map and
  // the hypertable's series set cannot drift apart.
  SharedLock lock(*store_mu_);
  MutexLock publish(*publish_mu_);
  std::shared_ptr<const ts::HypertableStore> series = series_->Fork();
  if (published_ == nullptr || published_->pinned_series_ != series) {
    published_ = std::make_shared<const PolyglotStore>(
        VersionTag{}, graph_.Pin(), map_, std::move(series));
    map_published_ = true;
  }
  return published_;
}

SeriesId PolyglotStore::ResolveOrCreate(const query::SeriesSlot& slot) {
  auto found = ResolveIn(*map_, slot);
  if (found.ok()) return *found;
  // The slot-name contract (query::SeriesSlotName) is what lets the cold
  // tier's catalog map persisted series back to their slot on recovery.
  const SeriesId sid = series_->Create(query::SeriesSlotName(slot));
  MutableMap()->emplace(slot, sid);
  return sid;
}

Result<SeriesId> PolyglotStore::EnsureSeries(const query::SeriesSlot& slot) {
  if (pinned_series_ != nullptr) return ReadOnly();
  ExclusiveLock lock(*store_mu_);
  return ResolveOrCreate(slot);
}

Status PolyglotStore::AppendSample(const query::SeriesSlot& slot, Timestamp t,
                                   double value) {
  if (pinned_series_ != nullptr) return ReadOnly();
  SeriesId sid = 0;
  bool found = false;
  {
    // Fast path: existing series resolve under the shared guard, so
    // steady-state ingest on different series runs concurrently.
    SharedLock lock(*store_mu_);
    HYGRAPH_RETURN_IF_ERROR(CheckEntity(*graph_, slot));
    auto it = map_->find(slot);
    if (it != map_->end()) {
      sid = it->second;
      found = true;
    }
  }
  if (!found) {
    ExclusiveLock lock(*store_mu_);
    // Recheck: the guard was dropped.
    HYGRAPH_RETURN_IF_ERROR(CheckEntity(*graph_, slot));
    sid = ResolveOrCreate(slot);
  }
  return series_->Insert(sid, t, value);
}

std::vector<query::SeriesSlot> PolyglotStore::SeriesSlots() const {
  std::vector<query::SeriesSlot> slots =
      Read([](const graph::PropertyGraph&, const SeriesMap& map) {
        std::vector<query::SeriesSlot> out;
        out.reserve(map.size());
        for (const auto& entry : map) out.push_back(entry.first);
        return out;
      });
  std::sort(slots.begin(), slots.end());
  return slots;
}

Result<ts::Series> PolyglotStore::SeriesRange(const query::SeriesSlot& slot,
                                              const Interval& interval) const {
  auto sid = Resolve(slot);
  if (!sid.ok()) return ts::Series(slot.key);
  return series_store().Materialize(*sid, interval);
}

Result<double> PolyglotStore::CorrelateSeriesRange(
    const query::SeriesSlot& slot, const Interval& interval,
    const ts::Series& anchor) const {
  auto sid = Resolve(slot);
  if (!sid.ok()) return ts::Correlation(anchor, ts::Series(slot.key));
  return series_store().Correlate(*sid, interval, anchor);
}

Result<double> PolyglotStore::SeriesAggregate(const query::SeriesSlot& slot,
                                              const Interval& interval,
                                              ts::AggKind kind) const {
  auto sid = Resolve(slot);
  if (!sid.ok()) return EmptyAggregate(kind);
  return series_store().Aggregate(*sid, interval, kind);
}

std::vector<Result<double>> PolyglotStore::SeriesAggregateBatch(
    const std::vector<query::SeriesSlot>& slots, const Interval& interval,
    ts::AggKind kind) const {
  // Absent slots keep the EmptyAggregate placeholder (matching
  // SeriesAggregate); present ones are recorded as (series, answer index)
  // pairs, all resolved under one hold of the guard.
  std::vector<Result<double>> out(slots.size(), EmptyAggregate(kind));
  std::vector<SeriesId> present;
  std::vector<size_t> at;
  present.reserve(slots.size());
  at.reserve(slots.size());
  Read([&](const graph::PropertyGraph&, const SeriesMap& map) {
    for (size_t i = 0; i < slots.size(); ++i) {
      auto sid = ResolveIn(map, slots[i]);
      if (!sid.ok()) continue;
      present.push_back(*sid);
      at.push_back(i);
    }
  });
  if (present.empty()) return out;
  // The hypertable aggregates the series one after another, unlocked
  // against the per-series shards. A batch-wide failure (cancellation,
  // deadline, budget) overwrites every answer; per-series errors come back
  // inside the results themselves.
  std::vector<Result<double>> results;
  const Status batch =
      series_store().AggregateMany(present, interval, kind, &results);
  if (!batch.ok()) {
    for (auto& r : out) r = batch;
    return out;
  }
  for (size_t i = 0; i < present.size(); ++i) {
    out[at[i]] = std::move(results[i]);
  }
  return out;
}

Result<ts::Series> PolyglotStore::SeriesWindowAggregate(
    const query::SeriesSlot& slot, const Interval& interval, Duration width,
    ts::AggKind kind) const {
  auto sid = Resolve(slot);
  if (!sid.ok()) return ts::Series(slot.key);
  return series_store().WindowAggregate(*sid, interval, width, kind);
}

Result<size_t> PolyglotStore::SeriesCountInRange(
    const query::SeriesSlot& slot, const Interval& interval, double min_value,
    double max_value) const {
  auto sid = Resolve(slot);
  if (!sid.ok()) return size_t{0};  // missing series counts like an empty one
  return series_store().CountMatching(*sid, interval,
                                      ts::ScanPredicate{min_value, max_value});
}

}  // namespace hygraph::storage
