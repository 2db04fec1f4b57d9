#include "query/backend.h"

#include "ts/correlate.h"
#include "ts/hypertable.h"

namespace hygraph::query {

QueryBackend::~QueryBackend() = default;

std::string SeriesSlotName(bool vertex, uint64_t entity,
                           const std::string& key) {
  return (vertex ? "v" : "e") + std::to_string(entity) + "." + key;
}

bool ParseSeriesSlotName(const std::string& name, bool* vertex,
                         uint64_t* entity, std::string* key) {
  if (name.size() < 3 || (name[0] != 'v' && name[0] != 'e')) return false;
  const size_t dot = name.find('.');
  if (dot == std::string::npos || dot < 2 || dot + 1 >= name.size()) {
    return false;
  }
  uint64_t id = 0;
  for (size_t i = 1; i < dot; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    if (id > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) return false;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  *vertex = name[0] == 'v';
  *entity = id;
  *key = name.substr(dot + 1);
  return true;
}

Result<SeriesId> QueryBackend::EnsureSeries(bool /*vertex*/,
                                            uint64_t /*entity*/,
                                            const std::string& /*key*/) {
  return Status::Unimplemented(name() + " does not bind catalogued series");
}

Status QueryBackend::MutateTopology(
    const std::function<Status(graph::PropertyGraph*)>& fn) {
  graph::PropertyGraph* g = mutable_topology();
  if (g == nullptr) {
    return Status::FailedPrecondition("backend topology is read-only");
  }
  return fn(g);
}

Result<double> QueryBackend::CorrelateSeriesRange(
    const SeriesSlot& slot, const Interval& interval,
    const ts::Series& anchor) const {
  auto range = slot.vertex
                   ? VertexSeriesRange(slot.entity, slot.key, interval)
                   : EdgeSeriesRange(slot.entity, slot.key, interval);
  if (!range.ok()) return range.status();
  return ts::Correlation(anchor, *range);
}

Result<double> QueryBackend::VertexSeriesAggregate(graph::VertexId v,
                                                   const std::string& key,
                                                   const Interval& interval,
                                                   ts::AggKind kind) const {
  auto series = VertexSeriesRange(v, key, interval);
  if (!series.ok()) return series.status();
  return ts::Aggregate(*series, Interval::All(), kind);
}

Result<double> QueryBackend::EdgeSeriesAggregate(graph::EdgeId e,
                                                 const std::string& key,
                                                 const Interval& interval,
                                                 ts::AggKind kind) const {
  auto series = EdgeSeriesRange(e, key, interval);
  if (!series.ok()) return series.status();
  return ts::Aggregate(*series, Interval::All(), kind);
}

std::vector<Result<double>> QueryBackend::VertexSeriesAggregateBatch(
    const std::vector<graph::VertexId>& vertices, const std::string& key,
    const Interval& interval, ts::AggKind kind) const {
  std::vector<Result<double>> out;
  out.reserve(vertices.size());
  for (graph::VertexId v : vertices) {
    out.push_back(VertexSeriesAggregate(v, key, interval, kind));
  }
  return out;
}

std::vector<Result<double>> QueryBackend::EdgeSeriesAggregateBatch(
    const std::vector<graph::EdgeId>& edges, const std::string& key,
    const Interval& interval, ts::AggKind kind) const {
  std::vector<Result<double>> out;
  out.reserve(edges.size());
  for (graph::EdgeId e : edges) {
    out.push_back(EdgeSeriesAggregate(e, key, interval, kind));
  }
  return out;
}

Result<ts::Series> QueryBackend::VertexSeriesWindowAggregate(
    graph::VertexId v, const std::string& key, const Interval& interval,
    Duration width, ts::AggKind kind) const {
  auto series = VertexSeriesRange(v, key, interval);
  if (!series.ok()) return series.status();
  return ts::WindowAggregate(*series, interval.Intersect(series->TimeSpan()),
                             width, kind);
}

Result<ts::Series> QueryBackend::EdgeSeriesWindowAggregate(
    graph::EdgeId e, const std::string& key, const Interval& interval,
    Duration width, ts::AggKind kind) const {
  auto series = EdgeSeriesRange(e, key, interval);
  if (!series.ok()) return series.status();
  return ts::WindowAggregate(*series, interval.Intersect(series->TimeSpan()),
                             width, kind);
}

namespace {

// Shares ScanPredicate's comparison semantics so every engine counts the
// same samples (bounded predicates never select NaN).
size_t CountInRange(const ts::Series& series, double min_value,
                    double max_value) {
  const ts::ScanPredicate predicate{min_value, max_value};
  size_t n = 0;
  for (const ts::Sample& s : series.samples()) {
    if (predicate.Matches(s.value)) ++n;
  }
  return n;
}

}  // namespace

Result<size_t> QueryBackend::VertexSeriesCountInRange(
    graph::VertexId v, const std::string& key, const Interval& interval,
    double min_value, double max_value) const {
  auto series = VertexSeriesRange(v, key, interval);
  if (!series.ok()) return series.status();
  return CountInRange(*series, min_value, max_value);
}

Result<size_t> QueryBackend::EdgeSeriesCountInRange(
    graph::EdgeId e, const std::string& key, const Interval& interval,
    double min_value, double max_value) const {
  auto series = EdgeSeriesRange(e, key, interval);
  if (!series.ok()) return series.status();
  return CountInRange(*series, min_value, max_value);
}

std::vector<std::string> QueryBackend::VertexSeriesKeys(
    graph::VertexId /*v*/) const {
  return {};
}

std::vector<std::string> QueryBackend::EdgeSeriesKeys(
    graph::EdgeId /*e*/) const {
  return {};
}

}  // namespace hygraph::query
