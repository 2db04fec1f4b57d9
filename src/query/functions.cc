#include "query/functions.h"

#include <algorithm>
#include <cmath>

#include "common/context.h"
#include "common/stats.h"
#include "common/strings.h"
#include "graph/pattern.h"
#include "ts/aggregate.h"
#include "ts/anomaly.h"
#include "ts/correlate.h"
#include "ts/sax.h"
#include "ts/segmentation.h"

namespace hygraph::query {

namespace {

// Range aggregates: ts_<agg>(x.key, t1, t2). Shared by EvalCall and the
// executor's prefetch detection (CollectAggregateCallSites).
constexpr struct {
  const char* fn;
  ts::AggKind kind;
} kAggFns[] = {
    {"ts_avg", ts::AggKind::kAvg},       {"ts_sum", ts::AggKind::kSum},
    {"ts_min", ts::AggKind::kMin},       {"ts_max", ts::AggKind::kMax},
    {"ts_count", ts::AggKind::kCount},   {"ts_stddev", ts::AggKind::kStdDev},
    {"ts_first", ts::AggKind::kFirst},   {"ts_last", ts::AggKind::kLast},
};

const ts::AggKind* AggKindForName(const std::string& lowered) {
  for (const auto& fn : kAggFns) {
    if (lowered == fn.fn) return &fn.kind;
  }
  return nullptr;
}

Status ArityError(const std::string& name, size_t expected, size_t got) {
  return Status::InvalidArgument(name + " expects " +
                                 std::to_string(expected) + " arguments, got " +
                                 std::to_string(got));
}

// Numeric binary arithmetic; null propagates.
Result<Value> Arith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value();
  auto da = a.ToDouble();
  if (!da.ok()) return da.status();
  auto db = b.ToDouble();
  if (!db.ok()) return db.status();
  double out = 0.0;
  switch (op) {
    case BinaryOp::kAdd:
      out = *da + *db;
      break;
    case BinaryOp::kSub:
      out = *da - *db;
      break;
    case BinaryOp::kMul:
      out = *da * *db;
      break;
    case BinaryOp::kDiv:
      if (*db == 0.0) {
        return Status::InvalidArgument("division by zero");
      }
      out = *da / *db;
      break;
    default:
      return Status::Internal("Arith called with non-arithmetic op");
  }
  // Keep integer arithmetic integral when both inputs were ints and the
  // result is exact.
  if (a.is_int() && b.is_int() && op != BinaryOp::kDiv) {
    return Value(static_cast<int64_t>(out));
  }
  return Value(out);
}

bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_bool()) return v.AsBool();
  if (v.is_int()) return v.AsInt() != 0;
  if (v.is_double()) return v.AsDouble() != 0.0;
  if (v.is_string()) return !v.AsString().empty();
  return false;
}

}  // namespace

Result<Value> Evaluator::Eval(
    const Expr& expr, const Bindings& bindings,
    const std::map<std::string, Value>* aliases) const {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kVariable: {
      if (aliases != nullptr) {
        auto it = aliases->find(expr.var);
        if (it != aliases->end()) return it->second;
      }
      auto bound = bindings.find(expr.var);
      if (bound != bindings.end()) {
        return Value(static_cast<int64_t>(bound->second.id));
      }
      return Status::InvalidArgument("unbound variable '" + expr.var + "'");
    }
    case Expr::Kind::kPropertyRef: {
      auto bound = bindings.find(expr.var);
      if (bound == bindings.end()) {
        return Status::InvalidArgument("unbound variable '" + expr.var + "'");
      }
      const auto& topo = backend_->topology();
      Result<Value> value =
          bound->second.is_edge
              ? topo.GetEdgeProperty(bound->second.id, expr.key)
              : topo.GetVertexProperty(bound->second.id, expr.key);
      if (!value.ok()) return Value();  // missing property -> null
      return *value;
    }
    case Expr::Kind::kUnary: {
      auto operand = Eval(*expr.lhs, bindings, aliases);
      if (!operand.ok()) return operand;
      if (expr.unary_op == UnaryOp::kNot) {
        return Value(!Truthy(*operand));
      }
      if (operand->is_null()) return Value();
      if (operand->is_int()) return Value(-operand->AsInt());
      auto d = operand->ToDouble();
      if (!d.ok()) return d.status();
      return Value(-*d);
    }
    case Expr::Kind::kBinary: {
      if (expr.binary_op == BinaryOp::kAnd) {
        auto lhs = Eval(*expr.lhs, bindings, aliases);
        if (!lhs.ok()) return lhs;
        if (!Truthy(*lhs)) return Value(false);
        auto rhs = Eval(*expr.rhs, bindings, aliases);
        if (!rhs.ok()) return rhs;
        return Value(Truthy(*rhs));
      }
      if (expr.binary_op == BinaryOp::kOr) {
        auto lhs = Eval(*expr.lhs, bindings, aliases);
        if (!lhs.ok()) return lhs;
        if (Truthy(*lhs)) return Value(true);
        auto rhs = Eval(*expr.rhs, bindings, aliases);
        if (!rhs.ok()) return rhs;
        return Value(Truthy(*rhs));
      }
      auto lhs = Eval(*expr.lhs, bindings, aliases);
      if (!lhs.ok()) return lhs;
      auto rhs = Eval(*expr.rhs, bindings, aliases);
      if (!rhs.ok()) return rhs;
      switch (expr.binary_op) {
        case BinaryOp::kEq:
          return Value(*lhs == *rhs);
        case BinaryOp::kNe:
          return Value(!(*lhs == *rhs));
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          if (lhs->is_null() || rhs->is_null()) return Value(false);
          const int c = lhs->Compare(*rhs);
          switch (expr.binary_op) {
            case BinaryOp::kLt:
              return Value(c < 0);
            case BinaryOp::kLe:
              return Value(c <= 0);
            case BinaryOp::kGt:
              return Value(c > 0);
            default:
              return Value(c >= 0);
          }
        }
        default:
          return Arith(expr.binary_op, *lhs, *rhs);
      }
    }
    case Expr::Kind::kCall:
      return EvalCall(expr, bindings, aliases);
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> Evaluator::EvalPredicate(const Expr& expr,
                                      const Bindings& bindings) const {
  auto value = Eval(expr, bindings);
  if (!value.ok()) return value.status();
  return Truthy(*value);
}

Result<SeriesSlot> Evaluator::SlotArg(const Expr& prop_ref,
                                      const Bindings& bindings) const {
  if (prop_ref.kind != Expr::Kind::kPropertyRef) {
    return Status::InvalidArgument(
        "ts_* functions take a property reference (var.key) as the series "
        "argument");
  }
  auto bound = bindings.find(prop_ref.var);
  if (bound == bindings.end()) {
    return Status::InvalidArgument("unbound variable '" + prop_ref.var + "'");
  }
  return SeriesSlot{!bound->second.is_edge, bound->second.id, prop_ref.key};
}

std::shared_ptr<const ts::Series> Evaluator::FindRange(
    const SeriesSlot& slot, const Interval& interval) const {
  auto hit = range_cache_.find(RangeKey{slot.vertex, slot.entity, slot.key,
                                        interval.start, interval.end});
  return hit == range_cache_.end() ? nullptr : hit->second.series;
}

uint64_t Evaluator::DropRanges() const {
  // A range a caller still holds (ts_corr's first side while the second
  // is read) stays memoized, and so stays counted against the statement.
  uint64_t released = 0;
  for (auto it = range_cache_.begin(); it != range_cache_.end();) {
    if (it->second.series.use_count() > 1) {
      ++it;
      continue;
    }
    released += it->second.bytes;
    it = range_cache_.erase(it);
  }
  if (QueryContext* ctx = QueryContext::Current()) {
    ctx->ReleaseMemory(released);
  }
  return released;
}

Result<std::shared_ptr<const ts::Series>> Evaluator::SeriesRange(
    const SeriesSlot& slot, const Interval& interval) const {
  if (auto hit = FindRange(slot, interval)) {
    ++memo_stats_.hits;
    return hit;
  }
  ++memo_stats_.misses;
  // A read reserves its range's bytes against the statement; the memo
  // holds them for as long as it holds the range.
  QueryContext* ctx = QueryContext::Current();
  auto reserved = [ctx] { return ctx != nullptr ? ctx->reserved_bytes() : 0; };
  auto denials = [ctx] { return ctx != nullptr ? ctx->memory_denials() : 0; };
  uint64_t before = reserved();
  const uint64_t denied_before = denials();
  auto series = backend_->SeriesRange(slot, interval);
  if (!series.ok() && denials() != denied_before && DropRanges() > 0) {
    // The governor refused the read its memory, and the memo gave back
    // what its ranges held: the read is tried once more.
    before = reserved();
    series = backend_->SeriesRange(slot, interval);
  }
  if (!series.ok()) return series.status();
  // This read's bytes, measured before a clear below releases others.
  const uint64_t bytes = reserved() - before;
  constexpr size_t kRangeCacheCap = 64;
  if (range_cache_.size() >= kRangeCacheCap) DropRanges();
  auto shared = std::make_shared<const ts::Series>(std::move(*series));
  range_cache_.emplace(RangeKey{slot.vertex, slot.entity, slot.key,
                                interval.start, interval.end},
                       MemoRange{shared, bytes});
  return shared;
}

Result<std::shared_ptr<const ts::Series>> Evaluator::SeriesRangeArg(
    const Expr& prop_ref, const Bindings& bindings,
    const Interval& interval) const {
  auto slot = SlotArg(prop_ref, bindings);
  if (!slot.ok()) return slot.status();
  return SeriesRange(*slot, interval);
}

Result<double> Evaluator::Correlate(const SeriesSlot& a, const SeriesSlot& b,
                                    const Interval& interval) const {
  const std::shared_ptr<const ts::Series> memo_a = FindRange(a, interval);
  const std::shared_ptr<const ts::Series> memo_b = FindRange(b, interval);
  if ((memo_a == nullptr) != (memo_b == nullptr)) {
    // The memoized side is the anchor (a one-vs-all statement memoizes it
    // on its first row); the other side streams and is never materialized.
    // It still counts as the memo miss its materialization would have been.
    ++memo_stats_.hits;
    ++memo_stats_.misses;
    return memo_a != nullptr
               ? backend_->CorrelateSeriesRange(b, interval, *memo_a)
               : backend_->CorrelateSeriesRange(a, interval, *memo_b);
  }
  auto range_a = SeriesRange(a, interval);
  if (!range_a.ok()) return range_a.status();
  auto range_b = SeriesRange(b, interval);
  if (!range_b.ok()) return range_b.status();
  return ts::Correlation(**range_a, **range_b);
}

Result<double> Evaluator::SeriesAggregateArg(const Expr& prop_ref,
                                             const Bindings& bindings,
                                             const Interval& interval,
                                             ts::AggKind kind) const {
  auto slot = SlotArg(prop_ref, bindings);
  if (!slot.ok()) return slot.status();
  const AggKey cache_key{!slot->vertex,  slot->entity, slot->key,
                         interval.start, interval.end, static_cast<int>(kind)};
  auto hit = agg_cache_.find(cache_key);
  if (hit != agg_cache_.end()) {
    ++memo_stats_.hits;
    return hit->second;
  }
  ++memo_stats_.misses;
  auto result = backend_->SeriesAggregate(*slot, interval, kind);
  // A prefetched batch holds one entry per matched entity, so the cap is
  // sized for multi-entity scans rather than the range memo's 64.
  constexpr size_t kAggCacheCap = 4096;
  if (agg_cache_.size() >= kAggCacheCap) agg_cache_.clear();
  agg_cache_.emplace(cache_key, result);
  return result;
}

void Evaluator::PrefetchAggregates(const std::vector<Binding>& entities,
                                   const std::string& key,
                                   const Interval& interval,
                                   ts::AggKind kind) const {
  std::vector<SeriesSlot> slots;
  for (const Binding& b : entities) {
    const AggKey cache_key{b.is_edge,     b.id,         key,
                           interval.start, interval.end, static_cast<int>(kind)};
    if (agg_cache_.find(cache_key) != agg_cache_.end()) continue;
    slots.push_back(SeriesSlot{!b.is_edge, b.id, key});
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  if (slots.empty()) return;
  auto results = backend_->SeriesAggregateBatch(slots, interval, kind);
  for (size_t i = 0; i < slots.size() && i < results.size(); ++i) {
    agg_cache_.emplace(AggKey{!slots[i].vertex, slots[i].entity, key,
                              interval.start, interval.end,
                              static_cast<int>(kind)},
                       std::move(results[i]));
  }
}

void CollectAggregateCallSites(const Expr& expr,
                               std::vector<AggregateCallSite>* out) {
  if (expr.lhs) CollectAggregateCallSites(*expr.lhs, out);
  if (expr.rhs) CollectAggregateCallSites(*expr.rhs, out);
  for (const ExprPtr& arg : expr.args) {
    if (arg) CollectAggregateCallSites(*arg, out);
  }
  if (expr.kind != Expr::Kind::kCall || expr.args.size() != 3) return;
  const ts::AggKind* kind = AggKindForName(ToLower(expr.call_name));
  if (kind == nullptr) return;
  const Expr& series = *expr.args[0];
  const Expr& t1 = *expr.args[1];
  const Expr& t2 = *expr.args[2];
  if (series.kind != Expr::Kind::kPropertyRef) return;
  if (t1.kind != Expr::Kind::kLiteral || t2.kind != Expr::Kind::kLiteral) {
    return;  // row-dependent bounds cannot be hoisted across rows
  }
  auto lo = t1.literal.ToDouble();
  auto hi = t2.literal.ToDouble();
  if (!lo.ok() || !hi.ok()) return;
  out->push_back(AggregateCallSite{
      series.var, series.key,
      Interval{static_cast<Timestamp>(*lo), static_cast<Timestamp>(*hi)},
      *kind});
}

Result<Value> Evaluator::EvalCall(
    const Expr& expr, const Bindings& bindings,
    const std::map<std::string, Value>* aliases) const {
  const std::string name = ToLower(expr.call_name);

  auto interval_from_args = [&](size_t t1_idx) -> Result<Interval> {
    auto t1 = Eval(*expr.args[t1_idx], bindings, aliases);
    if (!t1.ok()) return t1.status();
    auto t2 = Eval(*expr.args[t1_idx + 1], bindings, aliases);
    if (!t2.ok()) return t2.status();
    auto d1 = t1->ToDouble();
    if (!d1.ok()) return d1.status();
    auto d2 = t2->ToDouble();
    if (!d2.ok()) return d2.status();
    return Interval{static_cast<Timestamp>(*d1), static_cast<Timestamp>(*d2)};
  };

  if (const ts::AggKind* agg_kind = AggKindForName(name)) {
    if (expr.args.size() != 3) return Status(ArityError(name, 3, expr.args.size()));
    auto interval = interval_from_args(1);
    if (!interval.ok()) return interval.status();
    auto result =
        SeriesAggregateArg(*expr.args[0], bindings, *interval, *agg_kind);
    if (!result.ok()) {
      // Aggregate over an empty/missing range is null, not an error, so
      // WHERE predicates degrade gracefully.
      if (result.status().code() == StatusCode::kNotFound) return Value();
      return result.status();
    }
    return Value(*result);
  }

  if (name == "ts_corr") {
    if (expr.args.size() != 4) return Status(ArityError(name, 4, expr.args.size()));
    auto interval = interval_from_args(2);
    if (!interval.ok()) return interval.status();
    auto a = SlotArg(*expr.args[0], bindings);
    if (!a.ok()) return a.status();
    auto b = SlotArg(*expr.args[1], bindings);
    if (!b.ok()) return b.status();
    auto corr = Correlate(*a, *b, *interval);
    if (!corr.ok()) {
      // Insufficient overlap is null; a failed read is an error.
      if (corr.status().code() == StatusCode::kFailedPrecondition) {
        return Value();
      }
      return corr.status();
    }
    return Value(*corr);
  }

  if (name == "ts_count_between") {
    // ts_count_between(x.key, t1, t2, lo, hi): pushed down whole so the
    // hypertable can skip or count compressed chunks from zone maps.
    if (expr.args.size() != 5) return Status(ArityError(name, 5, expr.args.size()));
    auto interval = interval_from_args(1);
    if (!interval.ok()) return interval.status();
    auto lo = Eval(*expr.args[3], bindings, aliases);
    if (!lo.ok()) return lo;
    auto hi = Eval(*expr.args[4], bindings, aliases);
    if (!hi.ok()) return hi;
    auto lod = lo->ToDouble();
    if (!lod.ok()) return lod.status();
    auto hid = hi->ToDouble();
    if (!hid.ok()) return hid.status();
    auto slot = SlotArg(*expr.args[0], bindings);
    if (!slot.ok()) return slot.status();
    auto n = backend_->SeriesCountInRange(*slot, *interval, *lod, *hid);
    if (!n.ok()) {
      // Missing series counts like an empty one, matching ts_count.
      if (n.status().code() == StatusCode::kNotFound) return Value(int64_t{0});
      return n.status();
    }
    return Value(static_cast<int64_t>(*n));
  }

  if (name == "ts_window_agg") {
    if (expr.args.size() != 6) return Status(ArityError(name, 6, expr.args.size()));
    auto interval = interval_from_args(1);
    if (!interval.ok()) return interval.status();
    auto width = Eval(*expr.args[3], bindings, aliases);
    if (!width.ok()) return width;
    auto wd = width->ToDouble();
    if (!wd.ok()) return wd.status();
    auto inner = Eval(*expr.args[4], bindings, aliases);
    if (!inner.ok()) return inner;
    auto outer = Eval(*expr.args[5], bindings, aliases);
    if (!outer.ok()) return outer;
    if (!inner->is_string() || !outer->is_string()) {
      return Status::InvalidArgument(
          "ts_window_agg: inner/outer aggregate names must be strings");
    }
    auto inner_kind = ts::ParseAggKind(inner->AsString());
    if (!inner_kind.ok()) return inner_kind.status();
    auto outer_kind = ts::ParseAggKind(outer->AsString());
    if (!outer_kind.ok()) return outer_kind.status();
    // Windowing goes through the backend so engines with native
    // time_bucket support (the hypertable) skip materialization.
    auto slot = SlotArg(*expr.args[0], bindings);
    if (!slot.ok()) return slot.status();
    auto windowed = backend_->SeriesWindowAggregate(
        *slot, *interval, static_cast<Duration>(*wd), *inner_kind);
    if (!windowed.ok()) return windowed.status();
    auto reduced = ts::Aggregate(*windowed, Interval::All(), *outer_kind);
    if (!reduced.ok()) return Value();
    return Value(*reduced);
  }

  if (name == "ts_slope") {
    // Least-squares trend slope in value-units per day over the range.
    if (expr.args.size() != 3) return Status(ArityError(name, 3, expr.args.size()));
    auto interval = interval_from_args(1);
    if (!interval.ok()) return interval.status();
    auto range = SeriesRangeArg(*expr.args[0], bindings, *interval);
    if (!range.ok()) return range.status();
    const ts::Series& series = **range;
    if (series.size() < 2) return Value();
    const ts::Segment fit = ts::FitSegment(series, 0, series.size());
    return Value(fit.slope * static_cast<double>(kDay));
  }

  if (name == "ts_anomaly_count") {
    // Number of sliding-window anomalies (24-sample trailing window) whose
    // local z-score reaches the given threshold.
    if (expr.args.size() != 4) return Status(ArityError(name, 4, expr.args.size()));
    auto interval = interval_from_args(1);
    if (!interval.ok()) return interval.status();
    auto threshold = Eval(*expr.args[3], bindings, aliases);
    if (!threshold.ok()) return threshold;
    auto td = threshold->ToDouble();
    if (!td.ok()) return td.status();
    auto range = SeriesRangeArg(*expr.args[0], bindings, *interval);
    if (!range.ok()) return range.status();
    auto anomalies = ts::DetectSlidingWindow(**range, 24, *td);
    if (!anomalies.ok()) return Value(int64_t{0});
    return Value(static_cast<int64_t>(anomalies->size()));
  }

  if (name == "ts_sax") {
    // SAX word of the range: ts_sax(x.key, t1, t2, segments, alphabet).
    if (expr.args.size() != 5) return Status(ArityError(name, 5, expr.args.size()));
    auto interval = interval_from_args(1);
    if (!interval.ok()) return interval.status();
    auto segments = Eval(*expr.args[3], bindings, aliases);
    if (!segments.ok()) return segments;
    auto alphabet = Eval(*expr.args[4], bindings, aliases);
    if (!alphabet.ok()) return alphabet;
    auto sd = segments->ToDouble();
    auto ad = alphabet->ToDouble();
    if (!sd.ok()) return sd.status();
    if (!ad.ok()) return ad.status();
    auto range = SeriesRangeArg(*expr.args[0], bindings, *interval);
    if (!range.ok()) return range.status();
    ts::SaxOptions options;
    options.segments = static_cast<size_t>(*sd);
    options.alphabet = static_cast<size_t>(*ad);
    auto word = ts::SaxWord(**range, options);
    if (!word.ok()) return Value();  // too short -> null
    return Value(*word);
  }

  if (name == "degree" || name == "in_degree" || name == "out_degree") {
    if (expr.args.size() != 1) return Status(ArityError(name, 1, expr.args.size()));
    const Expr& arg = *expr.args[0];
    if (arg.kind != Expr::Kind::kVariable) {
      return Status::InvalidArgument(name + " expects a vertex variable");
    }
    auto bound = bindings.find(arg.var);
    if (bound == bindings.end() || bound->second.is_edge) {
      return Status::InvalidArgument(name + " expects a bound vertex variable");
    }
    const auto& topo = backend_->topology();
    size_t d = 0;
    if (name == "degree") {
      d = topo.Degree(bound->second.id);
    } else if (name == "in_degree") {
      d = topo.InDegree(bound->second.id);
    } else {
      d = topo.OutDegree(bound->second.id);
    }
    return Value(static_cast<int64_t>(d));
  }

  if (name == "id") {
    if (expr.args.size() != 1) return Status(ArityError(name, 1, expr.args.size()));
    const Expr& arg = *expr.args[0];
    if (arg.kind != Expr::Kind::kVariable) {
      return Status::InvalidArgument("id expects a variable");
    }
    auto bound = bindings.find(arg.var);
    if (bound == bindings.end()) {
      return Status::InvalidArgument("unbound variable '" + arg.var + "'");
    }
    return Value(static_cast<int64_t>(bound->second.id));
  }

  if (name == "abs") {
    if (expr.args.size() != 1) return Status(ArityError(name, 1, expr.args.size()));
    auto v = Eval(*expr.args[0], bindings, aliases);
    if (!v.ok()) return v;
    if (v->is_null()) return Value();
    if (v->is_int()) return Value(std::abs(v->AsInt()));
    auto d = v->ToDouble();
    if (!d.ok()) return d.status();
    return Value(std::abs(*d));
  }

  if (name == "coalesce") {
    if (expr.args.size() != 2) return Status(ArityError(name, 2, expr.args.size()));
    auto a = Eval(*expr.args[0], bindings, aliases);
    if (!a.ok()) return a;
    if (!a->is_null()) return a;
    return Eval(*expr.args[1], bindings, aliases);
  }

  return Status::InvalidArgument("unknown function '" + expr.call_name + "'");
}

}  // namespace hygraph::query
