#ifndef HYGRAPH_TS_AGGREGATE_H_
#define HYGRAPH_TS_AGGREGATE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/time.h"
#include "ts/series.h"

namespace hygraph::ts {

/// Aggregation kinds supported by range and window aggregation (and by the
/// hypertable's chunk-level aggregate cache).
enum class AggKind : uint8_t {
  kCount = 0,
  kSum,
  kAvg,
  kMin,
  kMax,
  kStdDev,
  kFirst,
  kLast,
};

const char* AggKindName(AggKind kind);
/// Parses "count"/"sum"/"avg"/"min"/"max"/"stddev"/"first"/"last".
Result<AggKind> ParseAggKind(const std::string& name);

/// Decomposable partial aggregate: sum/min/max/count/sum-of-squares plus
/// first/last sample. Partials merge associatively, which is what lets the
/// hypertable answer range aggregates from cached per-chunk partials.
struct AggState {
  size_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;
  Sample first{};
  Sample last{};

  void Add(const Sample& s);
  void Merge(const AggState& other);
  /// Final value for `kind`; error for kCount==0 on value-kinds.
  Result<double> Finalize(AggKind kind) const;
};

/// Aggregates the samples of `series` inside `interval`.
Result<double> Aggregate(const Series& series, const Interval& interval,
                         AggKind kind);

/// Tumbling-window aggregation: partitions `interval` into windows of
/// `width` ms anchored at interval.start and emits one output sample per
/// non-empty window, timestamped at the window start. This is the engine
/// behind downsampling-by-average and the paper's Q2 hybrid operator.
Result<Series> WindowAggregate(const Series& series, const Interval& interval,
                               Duration width, AggKind kind);

/// Start of the window holding `t` on the grid of `step`-wide windows
/// anchored at `anchor` <= t. Exact even when t - anchor exceeds INT64_MAX
/// (an interval opening far below the data).
inline Timestamp GridFloor(Timestamp anchor, Timestamp t, Duration step) {
  const uint64_t offset =
      static_cast<uint64_t>(t) - static_cast<uint64_t>(anchor);
  return t - static_cast<Timestamp>(offset % static_cast<uint64_t>(step));
}

/// Sliding-window aggregation with window `width` and step `step`; windows
/// are [t, t+width) for t = interval.start, start+step, ... Output samples
/// are stamped at the window start.
Result<Series> SlidingAggregate(const Series& series, const Interval& interval,
                                Duration width, Duration step, AggKind kind);

}  // namespace hygraph::ts

#endif  // HYGRAPH_TS_AGGREGATE_H_
