#include "query/backend.h"

#include "ts/correlate.h"
#include "ts/hypertable.h"

namespace hygraph::query {

QueryBackend::~QueryBackend() = default;

std::string SeriesSlotName(const SeriesSlot& slot) {
  return (slot.vertex ? "v" : "e") + std::to_string(slot.entity) + "." +
         slot.key;
}

bool ParseSeriesSlotName(const std::string& name, SeriesSlot* slot) {
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
  slot->vertex = name[0] == 'v';
  slot->entity = id;
  slot->key = name.substr(dot + 1);
  return true;
}

Result<SeriesId> QueryBackend::EnsureSeries(const SeriesSlot& /*slot*/) {
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
  auto range = SeriesRange(slot, interval);
  if (!range.ok()) return range.status();
  return ts::Correlation(anchor, *range);
}

Result<double> QueryBackend::SeriesAggregate(const SeriesSlot& slot,
                                             const Interval& interval,
                                             ts::AggKind kind) const {
  auto series = SeriesRange(slot, interval);
  if (!series.ok()) return series.status();
  return ts::Aggregate(*series, Interval::All(), kind);
}

std::vector<Result<double>> QueryBackend::SeriesAggregateBatch(
    const std::vector<SeriesSlot>& slots, const Interval& interval,
    ts::AggKind kind) const {
  std::vector<Result<double>> out;
  out.reserve(slots.size());
  for (const SeriesSlot& slot : slots) {
    out.push_back(SeriesAggregate(slot, interval, kind));
  }
  return out;
}

Result<ts::Series> QueryBackend::SeriesWindowAggregate(
    const SeriesSlot& slot, const Interval& interval, Duration width,
    ts::AggKind kind) const {
  auto series = SeriesRange(slot, interval);
  if (!series.ok()) return series.status();
  return ts::WindowAggregate(*series, interval, width, kind);
}

Result<size_t> QueryBackend::SeriesCountInRange(const SeriesSlot& slot,
                                                const Interval& interval,
                                                double min_value,
                                                double max_value) const {
  auto series = SeriesRange(slot, interval);
  if (!series.ok()) return series.status();
  // ScanPredicate's comparison semantics, so every engine counts the same
  // samples (bounded predicates never select NaN).
  const ts::ScanPredicate predicate{min_value, max_value};
  size_t n = 0;
  for (const ts::Sample& s : series->samples()) {
    if (predicate.Matches(s.value)) ++n;
  }
  return n;
}

}  // namespace hygraph::query
