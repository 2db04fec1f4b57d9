#ifndef HYGRAPH_TS_CORRELATE_H_
#define HYGRAPH_TS_CORRELATE_H_

#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "ts/series.h"

namespace hygraph::ts {

/// Correlation operators (Table 2, row Q3 "Correlation [55]"). Series are
/// aligned on their common timestamps (inner join on the time axis) before
/// computing; series sampled on different grids can first be resampled with
/// DownsampleAverage.

/// The one correlation kernel: merge-joins a time-ordered stream of
/// samples against an anchor's samples, one sample at a time, keeping the
/// values of every aligned pair, then runs the two-pass PearsonCorrelation
/// over them. Correlation() feeds it a whole series; the hypertable feeds
/// it a series' samples chunk by chunk as it decodes them, so that side is
/// never materialized. PearsonCorrelation is symmetric bit for bit (each
/// sum is formed on its own and products commute), so it does not matter
/// which side of a correlation is the anchor. The anchor must outlive the
/// accumulator.
class AlignedPairs {
 public:
  explicit AlignedPairs(const Series& anchor)
      : next_(anchor.samples().data()),
        end_(anchor.samples().data() + anchor.size()) {}

  /// Room for `n` pairs, so the buffers never grow while samples stream.
  void Reserve(size_t n) {
    anchor_values_.reserve(n);
    values_.reserve(n);
  }

  /// Merge-joins one sample of the streamed side; samples must arrive in
  /// strictly increasing time order.
  void Add(const Sample& s) {
    while (next_ != end_ && next_->t < s.t) ++next_;
    if (next_ != end_ && next_->t == s.t) {
      anchor_values_.push_back(next_->value);
      values_.push_back(s.value);
      ++next_;
    }
  }

  /// The aligned values, in time order: the anchor's and the stream's.
  const std::vector<double>& anchor_values() const { return anchor_values_; }
  const std::vector<double>& values() const { return values_; }

  /// Pearson correlation over the aligned pairs. Fails with
  /// FailedPrecondition when fewer than `min_overlap` (at least 2) aligned.
  Result<double> Finish(size_t min_overlap = 2) const;

 private:
  const Sample* next_;  // the first anchor sample not yet passed
  const Sample* end_;
  std::vector<double> anchor_values_;
  std::vector<double> values_;
};

/// Pearson correlation over the aligned common timestamps of a and b.
/// Fails when fewer than `min_overlap` timestamps align.
Result<double> Correlation(const Series& a, const Series& b,
                           size_t min_overlap = 2);

/// Cross-correlation at an integer lag: correlates a(t) with b(t + lag_ms)
/// on the aligned grid.
Result<double> CrossCorrelation(const Series& a, const Series& b,
                                Duration lag_ms, size_t min_overlap = 2);

/// The lag in [-max_lag_ms, +max_lag_ms] (stepped by step_ms) maximizing
/// cross-correlation, together with that correlation.
struct BestLag {
  Duration lag_ms = 0;
  double correlation = 0.0;
};
Result<BestLag> FindBestLag(const Series& a, const Series& b,
                            Duration max_lag_ms, Duration step_ms);

/// Sliding-window correlation: for each window of `width` ms stepped by
/// `step` ms over the overlap of a and b, one output sample at the window
/// start holding the in-window Pearson correlation. Windows with fewer than
/// min_overlap aligned points are skipped — this is the "time-varying
/// transactional similarity" the paper stores on TS edges.
Result<Series> SlidingCorrelation(const Series& a, const Series& b,
                                  Duration width, Duration step,
                                  size_t min_overlap = 4);

/// Pairwise correlation matrix for a set of series (row-major n x n).
/// Pairs with insufficient overlap get correlation 0.
std::vector<std::vector<double>> CorrelationMatrix(
    const std::vector<Series>& series, size_t min_overlap = 2);

/// Aligns two series on their shared timestamps; exposed for reuse by DTW
/// preprocessing and tests.
void AlignOnTimestamps(const Series& a, const Series& b,
                       std::vector<double>* va, std::vector<double>* vb);

}  // namespace hygraph::ts

#endif  // HYGRAPH_TS_CORRELATE_H_
