#include <string>

#include <gtest/gtest.h>

#include "common/context.h"
#include "common/governor.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/polyglot.h"

namespace hygraph {
namespace {

// Wraps a PolyglotStore and counts range materializations, making the
// evaluator's per-query SeriesRangeArg memo observable: repeated ts_*
// calls on the same (entity, key, range) within one query must hit the
// backend only once.
class CountingBackend final : public query::QueryBackend {
 public:
  std::string name() const override { return "counting"; }
  const graph::PropertyGraph& topology() const override {
    return inner_.topology();
  }
  graph::PropertyGraph* mutable_topology() override {
    return inner_.mutable_topology();
  }
  Status AppendSample(const query::SeriesSlot& slot, Timestamp t,
                      double value) override {
    return inner_.AppendSample(slot, t, value);
  }
  Result<ts::Series> SeriesRange(const query::SeriesSlot& slot,
                                 const Interval& interval) const override {
    if (slot.vertex) {
      ++vertex_range_calls;
    } else {
      ++edge_range_calls;
    }
    // The memo never asks for the range it just read unless it retries.
    if (slot == last_slot_ && interval.start == last_interval_.start &&
        interval.end == last_interval_.end) {
      ++repeated_range_calls;
    }
    last_slot_ = slot;
    last_interval_ = interval;
    return inner_.SeriesRange(slot, interval);
  }

  mutable size_t vertex_range_calls = 0;
  mutable size_t edge_range_calls = 0;
  mutable size_t repeated_range_calls = 0;

 private:
  storage::PolyglotStore inner_;
  mutable query::SeriesSlot last_slot_;
  mutable Interval last_interval_{0, 0};
};

class EvaluatorMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::PropertyGraph* g = backend_.mutable_topology();
    for (int s = 0; s < 6; ++s) {
      const graph::VertexId v = g->AddVertex(
          {"Station"}, {{"name", Value("S" + std::to_string(s))}});
      for (int i = 0; i < 48; ++i) {
        ASSERT_TRUE(backend_
                        .AppendSample({true, v, "bikes"}, i * kHour,
                                      10.0 + s + (i % 5))
                        .ok());
      }
    }
  }

  CountingBackend backend_;
};

TEST_F(EvaluatorMemoTest, RepeatedRangeInOneRowMaterializesOnce) {
  backend_.vertex_range_calls = 0;
  // Two textually identical range reads in one RETURN: the memo collapses
  // them to a single backend materialization per row.
  auto table = query::Execute(
      backend_,
      "MATCH (s:Station {name: 'S0'}) RETURN ts_slope(s.bikes, 0, " +
          std::to_string(48 * kHour) + ") AS a, ts_slope(s.bikes, 0, " +
          std::to_string(48 * kHour) + ") AS b");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->row_count(), 1u);
  EXPECT_EQ(backend_.vertex_range_calls, 1u);
  EXPECT_EQ(table->rows[0][0], table->rows[0][1]);
}

TEST_F(EvaluatorMemoTest, PinnedEntityAcrossRowsMaterializesOnce) {
  backend_.vertex_range_calls = 0;
  // Correlation against a pinned station: a.bikes repeats on every row and
  // must be fetched once. Pattern matching is injective (b never rebinds
  // S0), so the 5 rows cost 1 + 5 = 6 distinct materializations.
  auto table = query::Execute(
      backend_,
      "MATCH (a:Station {name: 'S0'}), (b:Station) "
      "RETURN b.name AS n, ts_corr(a.bikes, b.bikes, 0, " +
          std::to_string(48 * kHour) + ") AS c ORDER BY n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->row_count(), 5u);
  EXPECT_EQ(backend_.vertex_range_calls, 6u);
}

TEST_F(EvaluatorMemoTest, DistinctRangesAreNotConflated) {
  backend_.vertex_range_calls = 0;
  // Same entity and key but different intervals: two real fetches, and the
  // answers must differ (the memo key includes the interval).
  auto table = query::Execute(
      backend_,
      "MATCH (s:Station {name: 'S1'}) RETURN ts_slope(s.bikes, 0, " +
          std::to_string(24 * kHour) + ") AS a, ts_slope(s.bikes, 0, " +
          std::to_string(48 * kHour) + ") AS b");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(backend_.vertex_range_calls, 2u);
}

// The memo's bytes against the statement's memory budget: a memoized range
// stays reserved while the memo holds it and is returned when the memo drops
// it. 71 stations of 8 days of 5-minute samples; a week of one station is
// 2,016 samples, reserved as 32,256 B, so the statement below reads 2.2 MB
// of ranges in all, and 64 memoized ranges would not fit 1 MiB either.
class MemoBudgetTest : public ::testing::Test {
 protected:
  static constexpr int kStations = 71;
  static constexpr Timestamp kWeek = 7 * kDay;
  static constexpr uint64_t kRangeBytes = 32'256;

  void SetUp() override {
    AddStations(kStations);
    saved_budget_ = ResourceGovernor::Global()->budget();
  }
  void TearDown() override {
    ResourceGovernor::Global()->SetBudget(saved_budget_);
  }

  void AddStations(int count) {
    graph::PropertyGraph* g = store_.mutable_topology();
    for (int i = 0; i < count; ++i, ++stations_) {
      const int s = stations_;
      const graph::VertexId v =
          g->AddVertex({"Station"}, {{"name", Value("S" + std::to_string(s))}});
      for (Timestamp t = 0; t < 8 * kDay; t += 5 * kMinute) {
        const double value = 10.0 + s + static_cast<double>((t / kMinute) % 7);
        ASSERT_TRUE(store_.AppendSample({true, v, "bikes"}, t, value).ok());
      }
    }
  }

  // Runs `statement` under the global governor with `budget` bytes and,
  // when `points` is not zero, a points budget. `held_` is what the
  // statement still holds reserved when RunPlan returns.
  Result<query::QueryResult> RunWithBudget(const std::string& statement,
                                           uint64_t budget,
                                           uint64_t points = 0) {
    ResourceGovernor::Global()->SetBudget(budget);
    QueryContext context;
    context.AttachGovernor(ResourceGovernor::Global());
    context.SetPointsBudget(points);
    auto ast = query::Parse(statement);
    if (!ast.ok()) return ast.status();
    auto plan = query::CompileQuery(*ast);
    if (!plan.ok()) return plan.status();
    auto result = query::RunPlan(store_, *plan, nullptr, &context);
    held_ = context.reserved_bytes();
    context.AttachGovernor(nullptr);
    EXPECT_EQ(ResourceGovernor::Global()->reserved(), 0u);
    return result;
  }

  CountingBackend store_;
  int stations_ = 0;
  uint64_t held_ = 0;
  uint64_t saved_budget_ = 0;
};

TEST_F(MemoBudgetTest, RangesTheMemoDropsReturnTheirBytes) {
  auto table = RunWithBudget(
      "MATCH (s:Station) RETURN s.name, ts_slope(s.bikes, 0, " +
          std::to_string(kWeek) + ")",
      1 << 20);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->row_count(), static_cast<size_t>(kStations));
}

// Past 128 rows the memo has cleared twice; each clear returns the bytes of
// exactly the ranges it drops, so the statement ends holding no more than
// the 64 ranges a full memo holds, under a budget that fits 72.
TEST_F(MemoBudgetTest, ManyRowsHoldAtMostAFullMemo) {
  AddStations(140 - kStations);
  auto table = RunWithBudget(
      "MATCH (s:Station) RETURN s.name, ts_slope(s.bikes, 0, " +
          std::to_string(kWeek) + ")",
      72 * kRangeBytes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->row_count(), 140u);
  EXPECT_GT(held_, 0u);
  EXPECT_LE(held_, 64 * kRangeBytes);
}

// A read stopped by the points budget is not retried: freeing the memo
// cannot help it. Each week-long read charges at least 2,016 points, so
// the third row's read stops while the memo holds two ranges.
TEST_F(MemoBudgetTest, APointsBudgetStopIsNotRetried) {
  auto table = RunWithBudget(
      "MATCH (s:Station) RETURN s.name, ts_slope(s.bikes, 0, " +
          std::to_string(kWeek) + ")",
      /*budget=*/0, /*points=*/5'000);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(table.status().message().find("points budget"), std::string::npos)
      << table.status().ToString();
  EXPECT_EQ(store_.vertex_range_calls, 3u);
  EXPECT_EQ(store_.repeated_range_calls, 0u);
}

TEST_F(MemoBudgetTest, OneRangeLargerThanTheBudgetStillFails) {
  auto table = RunWithBudget(
      "MATCH (s:Station {name: 'S3'}) RETURN ts_slope(s.bikes, 0, " +
          std::to_string(kWeek) + ")",
      16 << 10);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kResourceExhausted)
      << table.status().ToString();
}

}  // namespace
}  // namespace hygraph
