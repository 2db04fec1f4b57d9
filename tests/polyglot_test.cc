#include "storage/polyglot.h"

#include <gtest/gtest.h>

namespace hygraph::storage {
namespace {

TEST(PolyglotTest, SeriesLiveInHypertableNotProperties) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({"S"}, {});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, i * kMinute, i).ok());
  }
  // Topology properties stay clean — the green path's whole point.
  EXPECT_TRUE((*store.topology().GetVertex(v))->properties.empty());
  EXPECT_EQ(store.series_store().series_count(), 1u);
  auto series = store.SeriesRange({true, v, "bikes"}, Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 10u);
}

TEST(PolyglotTest, NativeAggregateUsesChunks) {
  ts::HypertableOptions ts_options;
  ts_options.chunk_duration = kHour;
  PolyglotStore store(ts_options);
  const graph::VertexId v = store.mutable_topology()->AddVertex({"S"}, {});
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(store.AppendSample({true, v, "bikes"}, i * kMinute, 1.0).ok());
  }
  store.mutable_series_store()->ResetStats();
  auto sum = store.SeriesAggregate({true, v, "bikes"},
                                   Interval{0, 600 * kMinute},
                                   ts::AggKind::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, 600.0);
  // Fully-covered chunks answered from the cache, zero samples touched.
  EXPECT_EQ(store.series_store().stats().chunks_from_cache, 10u);
  EXPECT_EQ(store.series_store().stats().samples_scanned, 0u);
}

TEST(PolyglotTest, PerKeySeriesSeparation) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  ASSERT_TRUE(store.AppendSample({true, v, "a"}, 1, 1.0).ok());
  ASSERT_TRUE(store.AppendSample({true, v, "b"}, 1, 2.0).ok());
  EXPECT_EQ(store.series_store().series_count(), 2u);
  auto a = store.SeriesRange({true, v, "a"}, Interval::All());
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a->at(0).value, 1.0);
}

TEST(PolyglotTest, EdgeSeries) {
  PolyglotStore store;
  graph::PropertyGraph* g = store.mutable_topology();
  const graph::VertexId a = g->AddVertex({}, {});
  const graph::VertexId b = g->AddVertex({}, {});
  const graph::EdgeId e = *g->AddEdge(a, b, "TRIP", {});
  ASSERT_TRUE(store.AppendSample({false, e, "trips"}, 10, 3.0).ok());
  auto agg = store.SeriesAggregate({false, e, "trips"}, Interval::All(),
                                   ts::AggKind::kSum);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(*agg, 3.0);
}

TEST(PolyglotTest, MissingSeriesBehavesLikeEmpty) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  auto series = store.SeriesRange({true, v, "nothing"}, Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_TRUE(series->empty());
  auto count = store.SeriesAggregate({true, v, "nothing"}, Interval::All(),
                                     ts::AggKind::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 0.0);
  EXPECT_FALSE(store.SeriesAggregate({true, v, "nothing"}, Interval::All(),
                                     ts::AggKind::kAvg)
                   .ok());
}

TEST(PolyglotTest, UnknownEntityFails) {
  PolyglotStore store;
  EXPECT_FALSE(store.AppendSample({true, 5, "x"}, 1, 1.0).ok());
  EXPECT_FALSE(store.AppendSample({false, 5, "x"}, 1, 1.0).ok());
}

TEST(PolyglotTest, OutOfOrderIngestion) {
  PolyglotStore store;
  const graph::VertexId v = store.mutable_topology()->AddVertex({}, {});
  ASSERT_TRUE(store.AppendSample({true, v, "x"}, 300, 3.0).ok());
  ASSERT_TRUE(store.AppendSample({true, v, "x"}, 100, 1.0).ok());
  auto series = store.SeriesRange({true, v, "x"}, Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->at(0).t, 100);
  EXPECT_EQ(series->at(1).t, 300);
}

TEST(PolyglotTest, NameReflectsArchitecture) {
  PolyglotStore polyglot;
  EXPECT_EQ(polyglot.name(), "polyglot");
}

}  // namespace
}  // namespace hygraph::storage
