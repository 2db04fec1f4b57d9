#include "workloads/bike_sharing.h"

#include <gtest/gtest.h>

#include "storage/polyglot.h"
#include "ts/correlate.h"

namespace hygraph::workloads {
namespace {

BikeSharingConfig SmallConfig() {
  BikeSharingConfig config;
  config.stations = 16;
  config.districts = 4;
  config.days = 2;
  config.sample_interval = kHour;
  config.seed = 42;
  return config;
}

TEST(BikeSharingTest, GeneratesConfiguredShape) {
  auto dataset = GenerateBikeSharing(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->stations.size(), 16u);
  EXPECT_EQ(dataset->samples_per_station(), 48u);
  for (const StationRecord& s : dataset->stations) {
    EXPECT_EQ(s.bikes.size(), 48u);
    EXPECT_GE(s.capacity, 15);
    EXPECT_LE(s.capacity, 60);
    EXPECT_GE(s.district, 0);
    EXPECT_LT(s.district, 4);
  }
  EXPECT_EQ(dataset->trips.size(), 16u * 4u);
  for (const TripRecord& t : dataset->trips) {
    EXPECT_NE(t.src, t.dst);
    EXPECT_EQ(t.daily_trips.size(), 2u);
    EXPECT_GT(t.distance, 0.0);
  }
}

TEST(BikeSharingTest, ValuesWithinCapacity) {
  auto dataset = GenerateBikeSharing(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  for (const StationRecord& s : dataset->stations) {
    for (const ts::Sample& sample : s.bikes.samples()) {
      EXPECT_GE(sample.value, 0.0);
      EXPECT_LE(sample.value, static_cast<double>(s.capacity));
    }
  }
}

TEST(BikeSharingTest, DeterministicForSeed) {
  auto a = GenerateBikeSharing(SmallConfig());
  auto b = GenerateBikeSharing(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->stations.size(), b->stations.size());
  for (size_t i = 0; i < a->stations.size(); ++i) {
    EXPECT_EQ(a->stations[i].bikes, b->stations[i].bikes);
    EXPECT_DOUBLE_EQ(a->stations[i].x, b->stations[i].x);
  }
  BikeSharingConfig other = SmallConfig();
  other.seed = 43;
  auto c = GenerateBikeSharing(other);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(a->stations[0].bikes == c->stations[0].bikes);
}

TEST(BikeSharingTest, SameDistrictStationsCorrelate) {
  BikeSharingConfig config = SmallConfig();
  config.days = 5;
  auto dataset = GenerateBikeSharing(config);
  ASSERT_TRUE(dataset.ok());
  // Stations 0 and 4 share district 0; station 2 is district 2 (opposite
  // phase on the ring).
  auto same = ts::Correlation(dataset->stations[0].bikes,
                              dataset->stations[4].bikes);
  auto diff = ts::Correlation(dataset->stations[0].bikes,
                              dataset->stations[2].bikes);
  ASSERT_TRUE(same.ok());
  ASSERT_TRUE(diff.ok());
  EXPECT_GT(*same, 0.5);
  EXPECT_LT(*diff, *same);
}

TEST(BikeSharingTest, LoadIntoBackend) {
  auto dataset = GenerateBikeSharing(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  storage::PolyglotStore store;
  auto stations = LoadIntoBackend(*dataset, &store);
  ASSERT_TRUE(stations.ok());
  EXPECT_EQ(stations->size(), 16u);
  EXPECT_EQ(store.topology().VertexCount(), 16u);
  EXPECT_EQ(store.topology().EdgeCount(), dataset->trips.size());
  auto series =
      store.SeriesRange({true, (*stations)[3], "bikes"}, Interval::All());
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 48u);
  EXPECT_EQ(*series, dataset->stations[3].bikes);
  // Static properties present.
  EXPECT_EQ(*store.topology().GetVertexProperty((*stations)[3], "name"),
            Value("S3"));
}

TEST(BikeSharingTest, ToHyGraph) {
  auto dataset = GenerateBikeSharing(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  auto hg = ToHyGraph(*dataset);
  ASSERT_TRUE(hg.ok());
  EXPECT_TRUE(hg->Validate().ok());
  EXPECT_EQ(hg->PgVertices().size(), 16u);
  EXPECT_EQ(hg->TsEdges().size(), dataset->trips.size());
  // Station series exposed as series property "history".
  const graph::VertexId v = hg->structure().VerticesWithLabel("Station")[0];
  auto history = hg->GetVertexSeriesProperty(v, "history");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ((*history)->size(), 48u);
}

TEST(BikeSharingTest, Validation) {
  BikeSharingConfig bad = SmallConfig();
  bad.stations = 0;
  EXPECT_FALSE(GenerateBikeSharing(bad).ok());
  bad = SmallConfig();
  bad.sample_interval = 0;
  EXPECT_FALSE(GenerateBikeSharing(bad).ok());
}

}  // namespace
}  // namespace hygraph::workloads
