#include "ts/aggregate.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace hygraph::ts {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kStdDev:
      return "stddev";
    case AggKind::kFirst:
      return "first";
    case AggKind::kLast:
      return "last";
  }
  return "?";
}

Result<AggKind> ParseAggKind(const std::string& name) {
  const std::string n = ToLower(name);
  if (n == "count") return AggKind::kCount;
  if (n == "sum") return AggKind::kSum;
  if (n == "avg" || n == "mean") return AggKind::kAvg;
  if (n == "min") return AggKind::kMin;
  if (n == "max") return AggKind::kMax;
  if (n == "stddev" || n == "std") return AggKind::kStdDev;
  if (n == "first") return AggKind::kFirst;
  if (n == "last") return AggKind::kLast;
  return Status::InvalidArgument("unknown aggregate '" + name + "'");
}

void AggState::Add(const Sample& s) {
  if (count == 0) {
    min = max = s.value;
    first = last = s;
  } else {
    min = std::min(min, s.value);
    max = std::max(max, s.value);
    if (s.t < first.t) first = s;
    if (s.t > last.t) last = s;
  }
  ++count;
  sum += s.value;
  sum_sq += s.value * s.value;
}

void AggState::Merge(const AggState& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  if (other.first.t < first.t) first = other.first;
  if (other.last.t > last.t) last = other.last;
  count += other.count;
  sum += other.sum;
  sum_sq += other.sum_sq;
}

Result<double> AggState::Finalize(AggKind kind) const {
  if (kind == AggKind::kCount) return static_cast<double>(count);
  if (count == 0) {
    return Status::NotFound("aggregate over empty range");
  }
  switch (kind) {
    case AggKind::kSum:
      return sum;
    case AggKind::kAvg:
      return sum / static_cast<double>(count);
    case AggKind::kMin:
      return min;
    case AggKind::kMax:
      return max;
    case AggKind::kStdDev: {
      if (count < 2) return 0.0;
      const double n = static_cast<double>(count);
      const double var = (sum_sq - sum * sum / n) / (n - 1);
      return std::sqrt(std::max(0.0, var));
    }
    case AggKind::kFirst:
      return first.value;
    case AggKind::kLast:
      return last.value;
    case AggKind::kCount:
      break;  // handled above
  }
  return Status::Internal("unhandled aggregate kind");
}

Result<double> Aggregate(const Series& series, const Interval& interval,
                         AggKind kind) {
  AggState state;
  auto [lo, hi] = series.RangeIndices(interval);
  for (size_t i = lo; i < hi; ++i) state.Add(series.at(i));
  return state.Finalize(kind);
}

Result<Series> WindowAggregate(const Series& series, const Interval& interval,
                               Duration width, AggKind kind) {
  return SlidingAggregate(series, interval, width, width, kind);
}

Result<Series> SlidingAggregate(const Series& series, const Interval& interval,
                                Duration width, Duration step, AggKind kind) {
  if (width <= 0 || step <= 0) {
    return Status::InvalidArgument("window width/step must be positive");
  }
  // Clamp the sweep to the data so the sentinel All() interval does not
  // produce an astronomically long loop — but keep the window *grid*
  // anchored at interval.start (skipping ahead by whole steps), so two
  // engines answering the same query agree on bucket boundaries no matter
  // where their data happens to begin.
  Interval span = interval.Intersect(series.TimeSpan());
  Series out(series.name() + "_" + AggKindName(kind));
  if (span.empty()) return out;
  Timestamp anchor = interval.start;
  if (anchor == kMinTimestamp) {
    anchor = span.start;
  } else if (anchor < span.start) {
    anchor = GridFloor(anchor, span.start, step);
  }
  auto [lo, hi] = series.RangeIndices(span);
  size_t cursor = lo;
  for (Timestamp w = anchor; w < span.end; w += step) {
    const Interval window{w, w + width};
    // Advance cursor to the first sample >= window start (windows move
    // monotonically so for tumbling windows this is a linear scan overall).
    size_t i;
    if (step >= width) {
      while (cursor < hi && series.at(cursor).t < window.start) ++cursor;
      i = cursor;
    } else {
      i = series.RangeIndices(window).first;
    }
    AggState state;
    while (i < hi && series.at(i).t < window.end) {
      state.Add(series.at(i));
      ++i;
    }
    if (step >= width) cursor = i;
    if (state.count > 0) {
      auto v = state.Finalize(kind);
      if (!v.ok()) return v.status();
      HYGRAPH_IGNORE_RESULT(out.Append(w, *v));
    }
  }
  return out;
}

}  // namespace hygraph::ts
