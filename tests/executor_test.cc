#include "query/executor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "storage/all_in_graph.h"

namespace hygraph::query {
namespace {

// Three stations with bikes series, two TRIP edges.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::PropertyGraph* g = store_.mutable_topology();
    s1_ = g->AddVertex({"Station"}, {{"name", Value("S1")},
                                     {"district", Value(0)},
                                     {"capacity", Value(10)}});
    s2_ = g->AddVertex({"Station"}, {{"name", Value("S2")},
                                     {"district", Value(0)},
                                     {"capacity", Value(20)}});
    s3_ = g->AddVertex({"Station"}, {{"name", Value("S3")},
                                     {"district", Value(1)},
                                     {"capacity", Value(30)}});
    trip12_ = *g->AddEdge(s1_, s2_, "TRIP", {{"distance", Value(100.0)}});
    trip23_ = *g->AddEdge(s2_, s3_, "TRIP", {{"distance", Value(200.0)}});
    // bikes series: s1 constant 5, s2 ramp 0..9, s3 = 2 * ramp (correlated
    // with s2).
    for (int i = 0; i < 10; ++i) {
      const Timestamp t = i * kHour;
      ASSERT_TRUE(store_.AppendSample({true, s1_, "bikes"}, t, 5.0).ok());
      ASSERT_TRUE(store_.AppendSample({true, s2_, "bikes"}, t, i).ok());
      ASSERT_TRUE(store_.AppendSample({true, s3_, "bikes"}, t, 2.0 * i).ok());
      ASSERT_TRUE(
          store_.AppendSample({false, trip12_, "trips"}, t, 1.0 + i).ok());
    }
  }

  QueryResult MustRun(const std::string& text) {
    auto result = Execute(store_, text);
    EXPECT_TRUE(result.ok()) << text << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  storage::AllInGraphStore store_;
  graph::VertexId s1_, s2_, s3_;
  graph::EdgeId trip12_, trip23_;
};

TEST_F(ExecutorTest, SimpleProjection) {
  QueryResult r = MustRun("MATCH (s:Station) RETURN s.name, s.capacity");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"s.name", "s.capacity"}));
  EXPECT_EQ(r.row_count(), 3u);
}

TEST_F(ExecutorTest, InlinePropertyFilter) {
  QueryResult r = MustRun("MATCH (s:Station {name: 'S2'}) RETURN s.capacity");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.rows[0][0], Value(20));
}

TEST_F(ExecutorTest, WhereWithArithmetic) {
  QueryResult r = MustRun(
      "MATCH (s:Station) WHERE s.capacity * 2 >= 40 RETURN s.name");
  EXPECT_EQ(r.row_count(), 2u);  // S2, S3
}

TEST_F(ExecutorTest, PathAndEdgeProperty) {
  QueryResult r = MustRun(
      "MATCH (a:Station)-[t:TRIP]->(b:Station) "
      "RETURN a.name, b.name, t.distance");
  ASSERT_EQ(r.row_count(), 2u);
}

TEST_F(ExecutorTest, TsAggregateFunctions) {
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S2'}) "
      "RETURN ts_avg(s.bikes, 0, 36000000) AS a, "
      "ts_count(s.bikes, 0, 36000000) AS c, "
      "ts_min(s.bikes, 0, 36000000) AS lo, "
      "ts_max(s.bikes, 0, 36000000) AS hi, "
      "ts_sum(s.bikes, 0, 36000000) AS total");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_DOUBLE_EQ(r.At(0, "a")->AsDouble(), 4.5);
  EXPECT_DOUBLE_EQ(r.At(0, "c")->AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(r.At(0, "lo")->AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(r.At(0, "hi")->AsDouble(), 9.0);
  EXPECT_DOUBLE_EQ(r.At(0, "total")->AsDouble(), 45.0);
}

TEST_F(ExecutorTest, TsRangeRespectsBounds) {
  // Only samples with t in [0, 2h) -> values 0 and 1.
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S2'}) RETURN ts_sum(s.bikes, 0, 7200000)");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 1.0);
}

TEST_F(ExecutorTest, TsOnEdges) {
  QueryResult r = MustRun(
      "MATCH (a:Station)-[t:TRIP]->(b:Station) "
      "WHERE ts_count(t.trips, 0, 36000000) > 0 "
      "RETURN a.name, ts_sum(t.trips, 0, 36000000) AS total");
  ASSERT_EQ(r.row_count(), 1u);  // only trip12 carries samples
  EXPECT_EQ(*r.At(0, "a.name"), Value("S1"));
  EXPECT_DOUBLE_EQ(r.At(0, "total")->AsDouble(), 55.0);
}

TEST_F(ExecutorTest, TsCorr) {
  QueryResult r = MustRun(
      "MATCH (a:Station {name: 'S2'}), (b:Station {name: 'S3'}) "
      "RETURN ts_corr(a.bikes, b.bikes, 0, 36000000) AS c");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_NEAR(r.At(0, "c")->AsDouble(), 1.0, 1e-9);
}

TEST_F(ExecutorTest, TsWindowAgg) {
  // Daily-average then max over s2's ramp: windows of 5h -> avgs 2 and 7.
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S2'}) "
      "RETURN ts_window_agg(s.bikes, 0, 36000000, 18000000, 'avg', 'max')");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 7.0);
}

TEST_F(ExecutorTest, OrderByAliasAndLimit) {
  QueryResult r = MustRun(
      "MATCH (s:Station) RETURN s.name AS n, "
      "ts_avg(s.bikes, 0, 36000000) AS a ORDER BY a DESC LIMIT 2");
  ASSERT_EQ(r.row_count(), 2u);
  EXPECT_EQ(*r.At(0, "n"), Value("S3"));  // avg 9
  EXPECT_EQ(*r.At(1, "n"), Value("S1"));  // avg 5
}

TEST_F(ExecutorTest, OrderByAscendingDefault) {
  QueryResult r = MustRun(
      "MATCH (s:Station) RETURN s.name AS n ORDER BY n");
  ASSERT_EQ(r.row_count(), 3u);
  EXPECT_EQ(r.rows[0][0], Value("S1"));
  EXPECT_EQ(r.rows[2][0], Value("S3"));
}

TEST_F(ExecutorTest, LimitWithoutOrder) {
  QueryResult r = MustRun("MATCH (s:Station) RETURN s.name LIMIT 1");
  EXPECT_EQ(r.row_count(), 1u);
}

TEST_F(ExecutorTest, DegreeFunctions) {
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S2'}) "
      "RETURN degree(s), in_degree(s), out_degree(s)");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.rows[0][0], Value(2));
  EXPECT_EQ(r.rows[0][1], Value(1));
  EXPECT_EQ(r.rows[0][2], Value(1));
}

TEST_F(ExecutorTest, MissingPropertyIsNull) {
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S1'}) RETURN s.nonexistent AS x, "
      "coalesce(s.nonexistent, 7) AS y");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_TRUE(r.At(0, "x")->is_null());
  EXPECT_EQ(*r.At(0, "y"), Value(7));
}

TEST_F(ExecutorTest, NullComparisonsAreFalse) {
  QueryResult r = MustRun(
      "MATCH (s:Station) WHERE s.nonexistent > 0 RETURN s.name");
  EXPECT_EQ(r.row_count(), 0u);
}

TEST_F(ExecutorTest, NotEqualWorks) {
  QueryResult r = MustRun(
      "MATCH (s:Station) WHERE s.name <> 'S1' RETURN s.name");
  EXPECT_EQ(r.row_count(), 2u);
}

TEST_F(ExecutorTest, AbsAndUnaryMinus) {
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S1'}) RETURN abs(-s.capacity) AS a");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(*r.At(0, "a"), Value(10));
}

TEST_F(ExecutorTest, TsAggregateOverEmptyRangeIsNull) {
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S1'}) "
      "RETURN ts_avg(s.bikes, 99999999999, 99999999999999) AS a");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_TRUE(r.At(0, "a")->is_null());
}

TEST_F(ExecutorTest, DistinctDeduplicatesRows) {
  // Every station's district, with duplicates across stations.
  QueryResult all = MustRun("MATCH (s:Station) RETURN s.district AS d");
  EXPECT_EQ(all.row_count(), 3u);
  QueryResult distinct =
      MustRun("MATCH (s:Station) RETURN DISTINCT s.district AS d");
  EXPECT_EQ(distinct.row_count(), 2u);  // districts 0 and 1
  // First-occurrence order preserved, and ORDER BY still works on top.
  QueryResult ordered = MustRun(
      "MATCH (s:Station) RETURN DISTINCT s.district AS d ORDER BY d DESC");
  ASSERT_EQ(ordered.row_count(), 2u);
  EXPECT_EQ(ordered.rows[0][0], Value(1));
  // DISTINCT with LIMIT dedupes before limiting.
  QueryResult limited = MustRun(
      "MATCH (s:Station) RETURN DISTINCT s.district AS d LIMIT 5");
  EXPECT_EQ(limited.row_count(), 2u);
}

TEST_F(ExecutorTest, TsSlope) {
  // s2 rises 1 unit per hour = 24 per day.
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S2'}) "
      "RETURN ts_slope(s.bikes, 0, 36000000) AS m");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_NEAR(r.At(0, "m")->AsDouble(), 24.0, 1e-6);
  // Constant series -> slope 0.
  QueryResult flat = MustRun(
      "MATCH (s:Station {name: 'S1'}) "
      "RETURN ts_slope(s.bikes, 0, 36000000) AS m");
  EXPECT_NEAR(flat.At(0, "m")->AsDouble(), 0.0, 1e-9);
}

TEST_F(ExecutorTest, TsAnomalyCount) {
  // Too few samples for the 24-window: count 0, not an error.
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S2'}) "
      "RETURN ts_anomaly_count(s.bikes, 0, 36000000, 4.0) AS n");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(*r.At(0, "n"), Value(0));
}

TEST_F(ExecutorTest, TsSax) {
  QueryResult r = MustRun(
      "MATCH (s:Station {name: 'S2'}) "
      "RETURN ts_sax(s.bikes, 0, 36000000, 4, 3) AS w");
  ASSERT_EQ(r.row_count(), 1u);
  ASSERT_TRUE(r.At(0, "w")->is_string());
  const std::string word = r.At(0, "w")->AsString();
  EXPECT_EQ(word.size(), 4u);
  // Rising ramp -> non-decreasing symbols.
  EXPECT_LE(word.front(), word.back());
  // Range too short for the segments -> null.
  QueryResult tiny = MustRun(
      "MATCH (s:Station {name: 'S2'}) "
      "RETURN ts_sax(s.bikes, 0, 3600000, 8, 3) AS w");
  EXPECT_TRUE(tiny.At(0, "w")->is_null());
}

TEST_F(ExecutorTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(Execute(store_, "MATCH (s:Station) RETURN nosuch(s)").ok());
  EXPECT_FALSE(Execute(store_, "MATCH (s RETURN s").ok());
  EXPECT_FALSE(
      Execute(store_, "MATCH (s:Station) RETURN ts_avg(s.bikes, 0)").ok());
  EXPECT_FALSE(Execute(store_, "MATCH (s:Station) RETURN q.name").ok());
}

TEST_F(ExecutorTest, ResultHelpers) {
  QueryResult r = MustRun("MATCH (s:Station) RETURN s.name AS n");
  EXPECT_FALSE(r.At(99, "n").ok());
  EXPECT_FALSE(r.At(0, "zz").ok());
  const std::string rendered = r.ToString(2);
  EXPECT_NE(rendered.find("n"), std::string::npos);
  EXPECT_NE(rendered.find("more rows"), std::string::npos);
}

TEST_F(ExecutorTest, DivisionByZeroIsError) {
  EXPECT_FALSE(
      Execute(store_, "MATCH (s:Station) RETURN s.capacity / 0").ok());
}

}  // namespace
}  // namespace hygraph::query
