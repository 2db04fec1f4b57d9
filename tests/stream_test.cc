#include "core/stream.h"

#include <gtest/gtest.h>

namespace hygraph::core {
namespace {

TEST(StreamTest, BuildsWorldFromEvents) {
  HyGraph hg;
  StreamProcessor stream(&hg);
  ASSERT_TRUE(stream.ApplyAll({
      UpdateEvent::AddPgVertex(100, "alice", {"User"},
                               {{"name", Value("Alice")}}),
      UpdateEvent::AddTsVertex(100, "card1", {"CreditCard"}, {"balance"}),
      UpdateEvent::AddPgEdge(150, "uses1", "alice", "card1", "USES"),
      UpdateEvent::Sample(200, "card1", {1000.0}),
      UpdateEvent::Sample(260, "card1", {950.0}),
  }).ok());
  EXPECT_EQ(hg.VertexCount(), 2u);
  EXPECT_EQ(hg.EdgeCount(), 1u);
  EXPECT_TRUE(hg.Validate().ok());
  const auto card = *stream.ResolveVertex("card1");
  EXPECT_EQ((*hg.VertexSeries(card))->size(), 2u);
  EXPECT_EQ(stream.stats().events_applied, 5u);
  EXPECT_EQ(stream.stats().samples_appended, 2u);
  EXPECT_EQ(stream.stats().watermark, 260);
  // Validity starts at the creation event.
  EXPECT_EQ(hg.VertexValidity(*stream.ResolveVertex("alice"))->start, 100);
}

TEST(StreamTest, WatermarkRegressionsRejected) {
  HyGraph hg;
  StreamProcessor stream(&hg);
  ASSERT_TRUE(
      stream.Apply(UpdateEvent::AddPgVertex(100, "a", {"X"})).ok());
  Status late = stream.Apply(UpdateEvent::AddPgVertex(50, "b", {"X"}));
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(hg.VertexCount(), 1u);  // nothing applied
}

TEST(StreamTest, DuplicateExternalIdsRejected) {
  HyGraph hg;
  StreamProcessor stream(&hg);
  ASSERT_TRUE(
      stream.Apply(UpdateEvent::AddPgVertex(100, "a", {"X"})).ok());
  EXPECT_EQ(stream.Apply(UpdateEvent::AddPgVertex(200, "a", {"X"})).code(),
            StatusCode::kAlreadyExists);
}

TEST(StreamTest, UnknownReferencesRejected) {
  HyGraph hg;
  StreamProcessor stream(&hg);
  EXPECT_FALSE(
      stream.Apply(UpdateEvent::Sample(100, "ghost", {1.0})).ok());
  EXPECT_FALSE(stream
                   .Apply(UpdateEvent::AddPgEdge(100, "e", "ghost1",
                                                 "ghost2", "E"))
                   .ok());
  EXPECT_FALSE(stream.ResolveVertex("ghost").ok());
  EXPECT_FALSE(stream.ResolveEdge("ghost").ok());
}

TEST(StreamTest, ExpireClosesValidityAndKeepsIntegrity) {
  HyGraph hg;
  StreamProcessor stream(&hg);
  ASSERT_TRUE(stream.ApplyAll({
      UpdateEvent::AddPgVertex(100, "a", {"X"}),
      UpdateEvent::AddPgVertex(100, "b", {"X"}),
      UpdateEvent::AddPgEdge(150, "e", "a", "b", "E"),
      UpdateEvent::ExpireVertex(500, "a"),
  }).ok());
  EXPECT_TRUE(hg.Validate().ok());
  const auto a = *stream.ResolveVertex("a");
  EXPECT_EQ(hg.VertexValidity(a)->end, 500);
  // The incident edge was closed with it.
  EXPECT_EQ(hg.EdgeValidity(*stream.ResolveEdge("e"))->end, 500);
}

TEST(StreamTest, RetentionEvictsStaleSamples) {
  HyGraph hg;
  StreamOptions options;
  options.retention = 10 * kMinute;
  options.eviction_period = kMinute;
  StreamProcessor stream(&hg, options);
  ASSERT_TRUE(stream.Apply(UpdateEvent::AddTsVertex(0, "s", {"Sensor"},
                                                    {"v"}))
                  .ok());
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(stream
                    .Apply(UpdateEvent::Sample(i * kMinute, "s",
                                               {static_cast<double>(i)}))
                    .ok());
  }
  const auto sensor = *stream.ResolveVertex("s");
  const ts::MultiSeries& series = **hg.VertexSeries(sensor);
  // Only the retention window (last ~10 minutes) survives.
  EXPECT_LE(series.size(), 12u);
  EXPECT_GE(series.times().front(), 30 * kMinute - options.retention);
  EXPECT_GT(stream.stats().samples_evicted, 0u);
  EXPECT_TRUE(hg.Validate().ok());
}

// Event times within `retention` of kMinTimestamp: the eviction cutoff
// would lie before the earliest representable time, so it saturates there
// and nothing is evicted.
TEST(StreamTest, RetentionNearMinTimestampEvictsNothing) {
  HyGraph hg;
  StreamOptions options;
  options.retention = 10 * kMinute;
  options.eviction_period = kMinute;
  StreamProcessor stream(&hg, options);
  const Timestamp origin = kMinTimestamp + kSecond;
  ASSERT_TRUE(stream.Apply(UpdateEvent::AddTsVertex(origin, "s", {"Sensor"},
                                                    {"v"}))
                  .ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(stream
                    .Apply(UpdateEvent::Sample(origin + i * kMinute, "s",
                                               {static_cast<double>(i)}))
                    .ok());
  }
  const auto sensor = *stream.ResolveVertex("s");
  EXPECT_EQ((*hg.VertexSeries(sensor))->size(), 5u);
  EXPECT_EQ(stream.stats().samples_evicted, 0u);
  EXPECT_TRUE(hg.Validate().ok());
}

// The watermark jumps from near kMinTimestamp to near kMaxTimestamp: the
// time since the last eviction exceeds INT64_MAX, and eviction still runs.
TEST(StreamTest, RetentionAfterAWatermarkJumpAcrossTheTimeline) {
  HyGraph hg;
  StreamOptions options;
  options.retention = 10 * kMinute;
  options.eviction_period = kMinute;
  StreamProcessor stream(&hg, options);
  const Timestamp origin = kMinTimestamp + kDay;
  ASSERT_TRUE(stream.Apply(UpdateEvent::AddTsVertex(origin, "s", {"Sensor"},
                                                    {"v"}))
                  .ok());
  ASSERT_TRUE(
      stream.Apply(UpdateEvent::Sample(origin + kMinute, "s", {1.0})).ok());
  ASSERT_TRUE(
      stream.Apply(UpdateEvent::Sample(kMaxTimestamp - kSecond, "s", {2.0}))
          .ok());
  const auto sensor = *stream.ResolveVertex("s");
  EXPECT_EQ((*hg.VertexSeries(sensor))->size(), 1u);
  EXPECT_EQ(stream.stats().samples_evicted, 1u);
}

TEST(StreamTest, NoRetentionKeepsEverything) {
  HyGraph hg;
  StreamProcessor stream(&hg);
  ASSERT_TRUE(stream.Apply(UpdateEvent::AddTsVertex(0, "s", {"Sensor"},
                                                    {"v"}))
                  .ok());
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(
        stream.Apply(UpdateEvent::Sample(i * kMinute, "s", {1.0})).ok());
  }
  EXPECT_EQ((*hg.VertexSeries(*stream.ResolveVertex("s")))->size(), 50u);
  EXPECT_EQ(stream.stats().samples_evicted, 0u);
}

TEST(StreamTest, TsEdgeSamplesFlow) {
  HyGraph hg;
  StreamProcessor stream(&hg);
  ASSERT_TRUE(stream.ApplyAll({
      UpdateEvent::AddTsVertex(0, "card", {"CreditCard"}, {"balance"}),
      UpdateEvent::AddPgVertex(0, "shop", {"Merchant"}),
      UpdateEvent::AddTsEdge(10, "tx", "card", "shop", "TX", {"amount"}),
      UpdateEvent::EdgeSample(20, "tx", {99.0}),
      UpdateEvent::EdgeSample(30, "tx", {12.0}),
  }).ok());
  const auto edge = *stream.ResolveEdge("tx");
  EXPECT_TRUE(hg.IsTsEdge(edge));
  EXPECT_EQ((*hg.EdgeSeries(edge))->size(), 2u);
}

TEST(StreamTest, SampleArityChecked) {
  HyGraph hg;
  StreamProcessor stream(&hg);
  ASSERT_TRUE(stream.Apply(UpdateEvent::AddTsVertex(0, "s", {"Sensor"},
                                                    {"a", "b"}))
                  .ok());
  EXPECT_FALSE(stream.Apply(UpdateEvent::Sample(10, "s", {1.0})).ok());
  EXPECT_TRUE(stream.Apply(UpdateEvent::Sample(10, "s", {1.0, 2.0})).ok());
}

TEST(StreamTest, HighVolumeIngestKeepsIntegrity) {
  HyGraph hg;
  StreamOptions options;
  options.retention = kHour;
  options.eviction_period = 10 * kMinute;
  StreamProcessor stream(&hg, options);
  for (int s = 0; s < 10; ++s) {
    ASSERT_TRUE(stream
                    .Apply(UpdateEvent::AddTsVertex(
                        0, "s" + std::to_string(s), {"Sensor"}, {"v"}))
                    .ok());
  }
  for (int t = 1; t <= 600; ++t) {
    for (int s = 0; s < 10; ++s) {
      ASSERT_TRUE(stream
                      .Apply(UpdateEvent::Sample(
                          t * kMinute, "s" + std::to_string(s),
                          {static_cast<double>(t + s)}))
                      .ok());
    }
  }
  EXPECT_EQ(stream.stats().samples_appended, 6000u);
  EXPECT_GT(stream.stats().samples_evicted, 4000u);
  EXPECT_TRUE(hg.Validate().ok());
}

}  // namespace
}  // namespace hygraph::core
