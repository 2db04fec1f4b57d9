#include "storage/all_in_graph.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/context.h"

namespace hygraph::storage {

namespace {
constexpr char kPrefix[] = "__ts__";
// The sign-offset value spans the full uint64 range, whose decimal form
// needs up to 20 digits.
constexpr size_t kTimestampDigits = 20;

// The generic-property-store access path: enumerate every property of the
// entity, match the prefix textually, parse the timestamp, filter. No
// index, no ordering assumption — this is what Table 1 measures.
Result<ts::Series> ScanSampleProperties(const graph::PropertyMap& props,
                                        const std::string& key,
                                        const Interval& interval,
                                        obs::Counter* properties_scanned,
                                        obs::Counter* samples_parsed) {
  std::vector<ts::Sample> samples;
  properties_scanned->Add(props.size());
  // Governance checkpoint: the property sweep is this architecture's scan
  // loop, so a deadline/cancel cuts here (mirrors the hypertable decode
  // loop on the polyglot side).
  if (QueryContext* ctx = QueryContext::Current()) {
    HYGRAPH_RETURN_IF_ERROR(ctx->Charge(props.size()));
  }
  for (const auto& [property_key, value] : props) {
    Timestamp t = 0;
    if (!AllInGraphStore::DecodeSampleKey(property_key, key, &t)) continue;
    if (!interval.Contains(t)) continue;
    auto d = value.ToDouble();
    if (!d.ok()) {
      return Status::Corruption("sample property '" + property_key +
                                "' is not numeric");
    }
    samples.push_back(ts::Sample{t, *d});
  }
  samples_parsed->Add(samples.size());
  std::sort(samples.begin(), samples.end(),
            [](const ts::Sample& a, const ts::Sample& b) { return a.t < b.t; });
  ts::Series out(key);
  for (const ts::Sample& s : samples) {
    HYGRAPH_RETURN_IF_ERROR(out.Append(s.t, s.value));
  }
  return out;
}

// The slot's entity's property map, where its samples live.
Result<const graph::PropertyMap*> PropertiesOf(const graph::PropertyGraph& g,
                                               const query::SeriesSlot& slot) {
  if (slot.vertex) {
    auto vertex = g.GetVertex(slot.entity);
    if (!vertex.ok()) return vertex.status();
    return &(*vertex)->properties;
  }
  auto edge = g.GetEdge(slot.entity);
  if (!edge.ok()) return edge.status();
  return &(*edge)->properties;
}

Status ReadOnly() {
  return Status::FailedPrecondition("snapshot is read-only");
}

}  // namespace

AllInGraphStore::AllInGraphStore()
    : owned_metrics_(std::make_unique<obs::MetricsRegistry>()),
      metrics_(owned_metrics_.get()),
      properties_scanned_(metrics_->counter("allingraph.properties_scanned")),
      samples_parsed_(metrics_->counter("allingraph.samples_parsed")),
      snapshot_pins_(metrics_->counter("concurrency.snapshot_pins")),
      topology_cow_copies_(
          metrics_->counter("concurrency.topology_cow_copies")),
      sync_(SyncInstruments::ForRegistry(metrics_)),
      topo_mu_(std::make_unique<SharedMutex>(LockRank::kStoreCoarse, sync_)) {}

AllInGraphStore::AllInGraphStore(
    VersionTag, const AllInGraphStore& origin,
    std::shared_ptr<const graph::PropertyGraph> graph)
    : version_(std::move(graph)),
      graph_(nullptr),
      metrics_(origin.metrics_),
      properties_scanned_(origin.properties_scanned_),
      samples_parsed_(origin.samples_parsed_) {}

template <typename Fn>
decltype(auto) AllInGraphStore::Read(Fn&& fn) const {
  if (version_ != nullptr) return fn(*version_);
  SharedLock lock(*topo_mu_);
  return fn(*graph_);
}

query::BackendWork AllInGraphStore::Work() const {
  query::BackendWork w;
  w.properties_scanned = properties_scanned_->value();
  w.series_points_scanned = samples_parsed_->value();
  return w;
}

const graph::PropertyGraph& AllInGraphStore::topology() const {
  // The reference outlives the guard; see the header contract.
  return Read([](const graph::PropertyGraph& g) -> const graph::PropertyGraph& {
    return g;
  });
}

graph::PropertyGraph* AllInGraphStore::Detach() {
  return graph_.Mutable(topology_cow_copies_);
}

graph::PropertyGraph* AllInGraphStore::mutable_topology() {
  if (version_ != nullptr) return nullptr;
  ExclusiveLock lock(*topo_mu_);
  return Detach();
}

Status AllInGraphStore::MutateTopology(
    const std::function<Status(graph::PropertyGraph*)>& fn) {
  if (version_ != nullptr) return ReadOnly();
  ExclusiveLock lock(*topo_mu_);
  return fn(Detach());
}

std::shared_ptr<const query::QueryBackend> AllInGraphStore::BeginSnapshot()
    const {
  if (version_ != nullptr) return nullptr;
  SharedLock lock(*topo_mu_);
  snapshot_pins_->Increment();
  return std::make_shared<const AllInGraphStore>(VersionTag{}, *this,
                                                 graph_.Pin());
}

std::string AllInGraphStore::EncodeSampleKey(const std::string& key,
                                             Timestamp t) {
  char digits[kTimestampDigits + 1];
  // Negative timestamps are offset so the textual form stays fixed-width;
  // generators use the Unix epoch onwards, so this is a corner-case guard.
  unsigned long long shifted =
      static_cast<unsigned long long>(t) + (1ULL << 63);
  std::snprintf(digits, sizeof(digits), "%020llu", shifted);
  return std::string(kPrefix) + key + "__" + digits;
}

bool AllInGraphStore::DecodeSampleKey(const std::string& property_key,
                                      const std::string& key, Timestamp* t) {
  const std::string expected = std::string(kPrefix) + key + "__";
  if (property_key.size() != expected.size() + kTimestampDigits) return false;
  if (property_key.compare(0, expected.size(), expected) != 0) return false;
  const char* digits = property_key.c_str() + expected.size();
  char* end = nullptr;
  const unsigned long long shifted = std::strtoull(digits, &end, 10);
  if (end != digits + kTimestampDigits) return false;
  *t = static_cast<Timestamp>(shifted - (1ULL << 63));
  return true;
}

Status AllInGraphStore::AppendSample(const query::SeriesSlot& slot,
                                     Timestamp t, double value) {
  if (version_ != nullptr) return ReadOnly();
  ExclusiveLock lock(*topo_mu_);
  graph::PropertyGraph* g = Detach();
  const std::string property = EncodeSampleKey(slot.key, t);
  return slot.vertex ? g->SetVertexProperty(slot.entity, property, Value(value))
                     : g->SetEdgeProperty(slot.entity, property, Value(value));
}

Result<ts::Series> AllInGraphStore::SeriesRange(
    const query::SeriesSlot& slot, const Interval& interval) const {
  return Read([&](const graph::PropertyGraph& g) -> Result<ts::Series> {
    auto props = PropertiesOf(g, slot);
    if (!props.ok()) return props.status();
    return ScanSampleProperties(**props, slot.key, interval,
                                properties_scanned_, samples_parsed_);
  });
}

}  // namespace hygraph::storage
