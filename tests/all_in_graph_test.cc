#include "storage/all_in_graph.h"

#include <gtest/gtest.h>

namespace hygraph::storage {
namespace {

TEST(SampleKeyTest, EncodeDecodeRoundTrip) {
  for (Timestamp t : {Timestamp{0}, Timestamp{1}, Timestamp{1700000000000},
                      Timestamp{-5}, kMaxTimestamp - 1}) {
    const std::string key = AllInGraphStore::EncodeSampleKey("bikes", t);
    Timestamp decoded = 0;
    ASSERT_TRUE(AllInGraphStore::DecodeSampleKey(key, "bikes", &decoded))
        << key;
    EXPECT_EQ(decoded, t);
  }
}

TEST(SampleKeyTest, DecodeRejectsForeignKeys) {
  Timestamp t = 0;
  EXPECT_FALSE(AllInGraphStore::DecodeSampleKey("name", "bikes", &t));
  EXPECT_FALSE(AllInGraphStore::DecodeSampleKey(
      AllInGraphStore::EncodeSampleKey("docks", 5), "bikes", &t));
  EXPECT_FALSE(AllInGraphStore::DecodeSampleKey("__ts__bikes__xx", "bikes",
                                                &t));
}

TEST(SampleKeyTest, LexicographicOrderMatchesTimeOrder) {
  // Not exploited by the engine, but the encoding should still be sane.
  EXPECT_LT(AllInGraphStore::EncodeSampleKey("b", 5),
            AllInGraphStore::EncodeSampleKey("b", 50));
  EXPECT_LT(AllInGraphStore::EncodeSampleKey("b", -1),
            AllInGraphStore::EncodeSampleKey("b", 0));
}

TEST(AllInGraphTest, SamplesBecomeProperties) {
  AllInGraphStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({"S"}, {});
  ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, 100, 1.5).ok());
  ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, 200, 2.5).ok());
  // The property map of the vertex physically holds the samples.
  EXPECT_EQ((*store.topology().GetVertex(v))->properties.size(), 2u);
}

TEST(AllInGraphTest, RangeScanFiltersAndSorts) {
  AllInGraphStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({"S"}, {});
  // Insert out of order: the scan must still come back time-sorted.
  ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, 300, 3.0).ok());
  ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, 100, 1.0).ok());
  ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, 200, 2.0).ok());
  auto series = store.SeriesRange({true, v, "bikes"}, Interval{100, 300});
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 2u);
  EXPECT_EQ(series->at(0).t, 100);
  EXPECT_EQ(series->at(1).t, 200);
}

TEST(AllInGraphTest, MultipleSeriesKeysCoexist) {
  AllInGraphStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({"S"}, {});
  ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, 100, 1.0).ok());
  ASSERT_TRUE(store.AppendSample({true, v, "docks"}, 100, 9.0).ok());
  auto bikes = store.SeriesRange({true, v, "bikes"}, Interval::All());
  auto docks = store.SeriesRange({true, v, "docks"}, Interval::All());
  ASSERT_TRUE(bikes.ok());
  ASSERT_TRUE(docks.ok());
  EXPECT_EQ(bikes->size(), 1u);
  EXPECT_DOUBLE_EQ(docks->at(0).value, 9.0);
}

TEST(AllInGraphTest, StaticPropertiesDoNotPolluteSeries) {
  AllInGraphStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex(
      {"S"}, {{"name", Value("S1")}, {"capacity", Value(30)}});
  ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, 100, 1.0).ok());
  auto series = store.SeriesRange({true, v, "bikes"}, Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 1u);
  // And series properties do not break static reads.
  EXPECT_EQ(*store.topology().GetVertexProperty(v, "name"), Value("S1"));
}

TEST(AllInGraphTest, EdgeSeries) {
  AllInGraphStore store;
  graph::PropertyGraph* g = store.mutable_topology();
  const graph::VertexId a = g->AddVertex({}, {});
  const graph::VertexId b = g->AddVertex({}, {});
  const graph::EdgeId e = *g->AddEdge(a, b, "TRIP", {});
  ASSERT_TRUE(store.AppendSample({false, e, "trips"}, 50, 7.0).ok());
  auto series = store.SeriesRange({false, e, "trips"}, Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_DOUBLE_EQ(series->at(0).value, 7.0);
}

TEST(AllInGraphTest, DuplicateTimestampOverwrites) {
  AllInGraphStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  ASSERT_TRUE(store.AppendSample({true, v, "x"}, 100, 1.0).ok());
  ASSERT_TRUE(store.AppendSample({true, v, "x"}, 100, 2.0).ok());
  auto series = store.SeriesRange({true, v, "x"}, Interval::All());
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 1u);
  EXPECT_DOUBLE_EQ(series->at(0).value, 2.0);
}

TEST(AllInGraphTest, UnknownEntityFails) {
  AllInGraphStore store;
  EXPECT_FALSE(store.AppendSample({true, 7, "x"}, 1, 1.0).ok());
  EXPECT_FALSE(store.SeriesRange({true, 7, "x"}, Interval::All()).ok());
  EXPECT_FALSE(store.AppendSample({false, 7, "x"}, 1, 1.0).ok());
}

TEST(AllInGraphTest, MissingSeriesIsEmptyNotError) {
  AllInGraphStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  auto series = store.SeriesRange({true, v, "nothing"}, Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_TRUE(series->empty());
}

TEST(AllInGraphTest, DefaultAggregateGoesThroughScan) {
  AllInGraphStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.AppendSample({true, v, "x"}, i * 10, i).ok());
  }
  auto avg = store.SeriesAggregate({true, v, "x"}, Interval{0, 100},
                                   ts::AggKind::kAvg);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(*avg, 4.5);
  auto count = store.SeriesAggregate({true, v, "x"}, Interval{50, 100},
                                     ts::AggKind::kCount);
  EXPECT_DOUBLE_EQ(*count, 5.0);
}

}  // namespace
}  // namespace hygraph::storage
