#ifndef HYGRAPH_QUERY_FUNCTIONS_H_
#define HYGRAPH_QUERY_FUNCTIONS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "query/ast.h"
#include "query/backend.h"

namespace hygraph::query {

/// What a pattern variable is bound to during evaluation of one row.
struct Binding {
  bool is_edge = false;
  uint64_t id = 0;  ///< VertexId or EdgeId
};
using Bindings = std::map<std::string, Binding>;

/// Evaluates HGQL expressions against a QueryBackend and one row's
/// variable bindings.
///
/// Scalar semantics: missing properties evaluate to null; comparisons with
/// null are false (except `= null` / `<> null`); arithmetic with null is
/// null. Numeric arithmetic widens int to double when mixed.
///
/// Supported functions:
///   ts_avg|ts_sum|ts_min|ts_max|ts_count|ts_stddev|ts_first|ts_last
///       (x.key, t_start, t_end)        range aggregate over a series
///   ts_corr(a.key, b.key, t_start, t_end)
///       Pearson correlation of two series over a range; once one side's
///       range is memoized, the other side streams through the backend
///       (QueryBackend::CorrelateSeriesRange) and is never materialized
///   ts_count_between(x.key, t_start, t_end, lo, hi)
///       number of samples in the range with lo <= value <= hi; pushed
///       down to the backend so the hypertable can answer from zone maps
///   ts_window_agg(x.key, t_start, t_end, width_ms, 'inner', 'outer')
///       tumbling-window aggregate `inner`, reduced across windows by
///       `outer` (e.g. daily-average peak = ('avg', 'max'))
///   ts_slope(x.key, t_start, t_end)
///       least-squares trend slope in value-units per day
///   ts_anomaly_count(x.key, t_start, t_end, z_threshold)
///       sliding-window anomaly count (24-sample trailing window)
///   ts_sax(x.key, t_start, t_end, segments, alphabet)
///       SAX word of the range as a string (symbolic shape)
///   degree(v) | in_degree(v) | out_degree(v)   structural degree
///   id(x)                                      bound element id
///   abs(x), coalesce(a, b)                     scalar helpers
class Evaluator {
 public:
  /// Range-memo effectiveness for one Evaluator lifetime (one
  /// ExecutePlan). Surfaced as "query.memo_hits"/"query.memo_misses"
  /// registry counters and as PROFILE span counters.
  struct MemoStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  explicit Evaluator(const QueryBackend* backend) : backend_(backend) {}

  const MemoStats& memo_stats() const { return memo_stats_; }

  /// Computes `kind` over (entity, key, interval) for many entities in one
  /// backend batch call and memoizes the answers, so subsequent per-row
  /// ts_* calls on those entities hit the memo instead of issuing one
  /// backend aggregate each. Entities may mix vertices and edges;
  /// already-memoized entries are skipped.
  void PrefetchAggregates(const std::vector<Binding>& entities,
                          const std::string& key, const Interval& interval,
                          ts::AggKind kind) const;

  /// Evaluates `expr` under `bindings`. `aliases` (optional) resolves bare
  /// variables that are not pattern bindings — used for ORDER BY on RETURN
  /// aliases.
  Result<Value> Eval(const Expr& expr, const Bindings& bindings,
                     const std::map<std::string, Value>* aliases = nullptr) const;

  /// Evaluates to a boolean for WHERE: null/missing → false.
  Result<bool> EvalPredicate(const Expr& expr, const Bindings& bindings) const;

 private:
  Result<Value> EvalCall(const Expr& expr, const Bindings& bindings,
                         const std::map<std::string, Value>* aliases) const;
  Result<double> SeriesAggregateArg(const Expr& prop_ref,
                                    const Bindings& bindings,
                                    const Interval& interval,
                                    ts::AggKind kind) const;
  /// The series slot a `var.key` argument names under `bindings`.
  Result<SeriesSlot> SlotArg(const Expr& prop_ref,
                             const Bindings& bindings) const;
  /// `slot`'s range inside `interval`: the memoized series, or the
  /// backend's range, which is memoized first. Shared with the memo, so
  /// it stays valid when the memo is cleared. A read whose memory
  /// reservation the governor refuses drops the memo and, if that freed
  /// memory, is tried once more.
  Result<std::shared_ptr<const ts::Series>> SeriesRange(
      const SeriesSlot& slot, const Interval& interval) const;
  Result<std::shared_ptr<const ts::Series>> SeriesRangeArg(
      const Expr& prop_ref, const Bindings& bindings,
      const Interval& interval) const;
  /// Clears the range memo, except the ranges a caller still holds, and
  /// releases the bytes the dropped ranges reserved; returns that count.
  uint64_t DropRanges() const;
  /// The memoized range, or null; counts nothing.
  std::shared_ptr<const ts::Series> FindRange(const SeriesSlot& slot,
                                              const Interval& interval) const;
  /// ts_corr over two slots. When exactly one side's range is memoized,
  /// it is the anchor and the other side streams through
  /// CorrelateSeriesRange; otherwise both ranges are read through the
  /// memo and correlated in memory.
  Result<double> Correlate(const SeriesSlot& a, const SeriesSlot& b,
                           const Interval& interval) const;

  const QueryBackend* backend_;

  /// Memo for SeriesRange, keyed (vertex, id, key, start, end). An
  /// Evaluator lives for one ExecutePlan, where repeated ts_* calls on the
  /// same (entity, key, range) are common — e.g. a correlation query pins
  /// one entity and re-reads its range on every row. Bounded: overflow
  /// clears the cache (all but the ranges a caller holds) rather than
  /// evicting.
  using RangeKey =
      std::tuple<bool, uint64_t, std::string, Timestamp, Timestamp>;
  /// A memoized range and the bytes its read reserved against the
  /// statement's QueryContext; DropRanges returns them.
  struct MemoRange {
    std::shared_ptr<const ts::Series> series;
    uint64_t bytes = 0;
  };
  mutable std::map<RangeKey, MemoRange> range_cache_;

  /// Memo for SeriesAggregateArg, keyed (is_edge, id, key, start, end,
  /// kind). Seeded in bulk by PrefetchAggregates; also fills lazily so a
  /// repeated per-row aggregate (same entity pinned across rows) is
  /// computed once. Larger cap than the range memo — a prefetched batch
  /// holds one entry per matched entity.
  using AggKey =
      std::tuple<bool, uint64_t, std::string, Timestamp, Timestamp, int>;
  mutable std::map<AggKey, Result<double>> agg_cache_;
  mutable MemoStats memo_stats_;
};

/// One batchable aggregate call found in an expression:
/// ts_<agg>(var.key, t1, t2) with literal interval bounds — the shape
/// whose value per entity is row-invariant, so the executor can compute
/// it for every matched entity up front via PrefetchAggregates.
struct AggregateCallSite {
  std::string var;
  std::string key;
  Interval interval;
  ts::AggKind kind;
};

/// Collects every batchable aggregate call in `expr` (recursively).
void CollectAggregateCallSites(const Expr& expr,
                               std::vector<AggregateCallSite>* out);

}  // namespace hygraph::query

#endif  // HYGRAPH_QUERY_FUNCTIONS_H_
