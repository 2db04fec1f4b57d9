#include "ts/correlate.h"

#include <algorithm>

#include "common/stats.h"

namespace hygraph::ts {

void AlignOnTimestamps(const Series& a, const Series& b,
                       std::vector<double>* va, std::vector<double>* vb) {
  AlignedPairs pairs(a);
  for (const Sample& s : b.samples()) pairs.Add(s);
  *va = pairs.anchor_values();
  *vb = pairs.values();
}

Result<double> AlignedPairs::Finish(size_t min_overlap) const {
  if (values_.size() < std::max<size_t>(min_overlap, 2)) {
    return Status::FailedPrecondition(
        "correlation: only " + std::to_string(values_.size()) +
        " aligned samples (need " + std::to_string(min_overlap) + ")");
  }
  return PearsonCorrelation(anchor_values_, values_);
}

Result<double> Correlation(const Series& a, const Series& b,
                           size_t min_overlap) {
  AlignedPairs pairs(a);
  pairs.Reserve(std::min(a.size(), b.size()));
  for (const Sample& s : b.samples()) pairs.Add(s);
  return pairs.Finish(min_overlap);
}

Result<double> CrossCorrelation(const Series& a, const Series& b,
                                Duration lag_ms, size_t min_overlap) {
  // b(t + lag) aligns with a(t): stream b with its time axis shifted by
  // -lag.
  AlignedPairs pairs(a);
  pairs.Reserve(std::min(a.size(), b.size()));
  for (const Sample& s : b.samples()) pairs.Add(Sample{s.t - lag_ms, s.value});
  return pairs.Finish(min_overlap);
}

Result<BestLag> FindBestLag(const Series& a, const Series& b,
                            Duration max_lag_ms, Duration step_ms) {
  if (step_ms <= 0 || max_lag_ms < 0) {
    return Status::InvalidArgument("FindBestLag: bad lag parameters");
  }
  BestLag best;
  bool found = false;
  for (Duration lag = -max_lag_ms; lag <= max_lag_ms; lag += step_ms) {
    auto c = CrossCorrelation(a, b, lag);
    if (!c.ok()) continue;
    if (!found || *c > best.correlation) {
      best.lag_ms = lag;
      best.correlation = *c;
      found = true;
    }
  }
  if (!found) {
    return Status::FailedPrecondition(
        "FindBestLag: no lag had sufficient overlap");
  }
  return best;
}

Result<Series> SlidingCorrelation(const Series& a, const Series& b,
                                  Duration width, Duration step,
                                  size_t min_overlap) {
  if (width <= 0 || step <= 0) {
    return Status::InvalidArgument("window width/step must be positive");
  }
  const Interval overlap = a.TimeSpan().Intersect(b.TimeSpan());
  Series out(a.name() + "~" + b.name());
  if (overlap.empty()) return out;
  for (Timestamp w = overlap.start; w < overlap.end; w += step) {
    const Interval window{w, w + width};
    auto c = Correlation(a.Slice(window), b.Slice(window), min_overlap);
    if (c.ok()) HYGRAPH_IGNORE_RESULT(out.Append(w, *c));
  }
  return out;
}

std::vector<std::vector<double>> CorrelationMatrix(
    const std::vector<Series>& series, size_t min_overlap) {
  const size_t n = series.size();
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    m[i][i] = 1.0;
    for (size_t j = i + 1; j < n; ++j) {
      auto c = Correlation(series[i], series[j], min_overlap);
      const double v = c.ok() ? *c : 0.0;
      m[i][j] = v;
      m[j][i] = v;
    }
  }
  return m;
}

}  // namespace hygraph::ts
