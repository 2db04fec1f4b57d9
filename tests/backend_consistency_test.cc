#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "workloads/bike_sharing.h"

namespace hygraph {
namespace {

// The architectural contract behind Table 1: both storage engines must
// return byte-identical answers to every HGQL query — they differ only in
// speed. Loads one deterministic dataset into both engines and runs the
// full Table-1-style query family against each.
class BackendConsistencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::BikeSharingConfig config;
    config.stations = 24;
    config.districts = 4;
    config.days = 3;
    config.sample_interval = 30 * kMinute;
    config.seed = 7;
    auto dataset = workloads::GenerateBikeSharing(config);
    ASSERT_TRUE(dataset.ok());
    dataset_ = new workloads::BikeSharingDataset(std::move(*dataset));
    all_in_graph_ = new storage::AllInGraphStore();
    polyglot_ = new storage::PolyglotStore();
    ASSERT_TRUE(workloads::LoadIntoBackend(*dataset_, all_in_graph_).ok());
    ASSERT_TRUE(workloads::LoadIntoBackend(*dataset_, polyglot_).ok());
  }

  // Doubles may differ in the last bits: the polyglot engine folds
  // chunk-level partial aggregates while the all-in-graph engine sums a
  // flat scan, and floating-point addition is not associative.
  static void ExpectCellEq(const Value& x, const Value& y,
                           const std::string& context) {
    if (x.is_double() && y.is_numeric()) {
      EXPECT_NEAR(x.AsDouble(), y.ToDouble().value(),
                  1e-9 * (1.0 + std::abs(x.AsDouble())))
          << context;
      return;
    }
    EXPECT_EQ(x, y) << context;
  }

  void ExpectSameAnswer(const std::string& query) {
    auto a = query::Execute(*all_in_graph_, query);
    auto b = query::Execute(*polyglot_, query);
    ASSERT_TRUE(a.ok()) << query << " -> " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << query << " -> " << b.status().ToString();
    EXPECT_EQ(a->columns, b->columns) << query;
    ASSERT_EQ(a->row_count(), b->row_count()) << query;
    for (size_t r = 0; r < a->row_count(); ++r) {
      for (size_t c = 0; c < a->columns.size(); ++c) {
        ExpectCellEq(a->rows[r][c], b->rows[r][c],
                     query + " row " + std::to_string(r) + " col " +
                         std::to_string(c));
      }
    }
  }

  static workloads::BikeSharingDataset* dataset_;
  static storage::AllInGraphStore* all_in_graph_;
  static storage::PolyglotStore* polyglot_;
};

workloads::BikeSharingDataset* BackendConsistencyTest::dataset_ = nullptr;
storage::AllInGraphStore* BackendConsistencyTest::all_in_graph_ = nullptr;
storage::PolyglotStore* BackendConsistencyTest::polyglot_ = nullptr;

TEST_F(BackendConsistencyTest, StaticProjection) {
  ExpectSameAnswer(
      "MATCH (s:Station) RETURN s.name, s.district, s.capacity "
      "ORDER BY s.name");
}

TEST_F(BackendConsistencyTest, TimeRangeCount) {
  const Timestamp t0 = dataset_->start();
  ExpectSameAnswer("MATCH (s:Station {name: 'S3'}) RETURN ts_count(s.bikes, " +
                   std::to_string(t0) + ", " +
                   std::to_string(t0 + kDay) + ")");
}

TEST_F(BackendConsistencyTest, SingleEntityAggregate) {
  const Timestamp t0 = dataset_->start();
  ExpectSameAnswer("MATCH (s:Station {name: 'S5'}) RETURN ts_avg(s.bikes, " +
                   std::to_string(t0) + ", " +
                   std::to_string(t0 + 2 * kDay) + ") AS a");
}

TEST_F(BackendConsistencyTest, FilteredMultiEntityAggregate) {
  const Timestamp t0 = dataset_->start();
  ExpectSameAnswer(
      "MATCH (s:Station) WHERE s.district = 1 RETURN s.name, "
      "ts_max(s.bikes, " +
      std::to_string(t0) + ", " + std::to_string(t0 + kDay) +
      ") AS m ORDER BY s.name");
}

TEST_F(BackendConsistencyTest, TopKByAggregate) {
  const Timestamp t0 = dataset_->start();
  const Timestamp t1 = dataset_->end();
  ExpectSameAnswer("MATCH (s:Station) RETURN s.name AS n, ts_avg(s.bikes, " +
                   std::to_string(t0) + ", " + std::to_string(t1) +
                   ") AS a ORDER BY a DESC, n LIMIT 5");
}

TEST_F(BackendConsistencyTest, CorrelationPair) {
  const Timestamp t0 = dataset_->start();
  const Timestamp t1 = dataset_->end();
  ExpectSameAnswer(
      "MATCH (a:Station {name: 'S0'}), (b:Station {name: 'S4'}) "
      "RETURN ts_corr(a.bikes, b.bikes, " +
      std::to_string(t0) + ", " + std::to_string(t1) + ") AS c");
}

TEST_F(BackendConsistencyTest, TraversalWithSeriesAggregate) {
  const Timestamp t0 = dataset_->start();
  ExpectSameAnswer(
      "MATCH (a:Station {name: 'S0'})-[t:TRIP]->(b:Station) "
      "RETURN b.name AS n, ts_avg(b.bikes, " +
      std::to_string(t0) + ", " + std::to_string(t0 + kDay) +
      ") AS a ORDER BY n");
}

TEST_F(BackendConsistencyTest, EdgeSeriesAggregate) {
  ExpectSameAnswer(
      "MATCH (a:Station {name: 'S0'})-[t:TRIP]->(b:Station) "
      "RETURN b.name AS n, ts_sum(t.trips, 0, 99999999999999) AS s "
      "ORDER BY n");
}

TEST_F(BackendConsistencyTest, HybridPredicate) {
  const Timestamp t0 = dataset_->start();
  const Timestamp t1 = dataset_->end();
  ExpectSameAnswer(
      "MATCH (a:Station)-[:TRIP]->(b:Station) WHERE ts_avg(a.bikes, " +
      std::to_string(t0) + ", " + std::to_string(t1) +
      ") > 15 RETURN a.name AS x, b.name AS y ORDER BY x, y LIMIT 25");
}

TEST_F(BackendConsistencyTest, CountBetweenPushdown) {
  // The Q8 shape: a pushed-down value-range predicate. The polyglot engine
  // answers it from compressed-chunk zone maps; the all-in-graph engine
  // materializes and counts. Answers must match exactly.
  const Timestamp t0 = dataset_->start();
  const Timestamp t1 = dataset_->end();
  ExpectSameAnswer(
      "MATCH (s:Station) RETURN s.name AS n, ts_count_between(s.bikes, " +
      std::to_string(t0) + ", " + std::to_string(t1) +
      ", 0, 5) AS empty_ish ORDER BY n");
  ExpectSameAnswer(
      "MATCH (s:Station) WHERE ts_count_between(s.bikes, " +
      std::to_string(t0) + ", " + std::to_string(t1) +
      ", 40, 100000) > 0 RETURN s.name AS n ORDER BY n");
}

TEST_F(BackendConsistencyTest, WindowAggregate) {
  const Timestamp t0 = dataset_->start();
  const Timestamp t1 = dataset_->end();
  ExpectSameAnswer("MATCH (s:Station {name: 'S7'}) RETURN ts_window_agg("
                   "s.bikes, " +
                   std::to_string(t0) + ", " + std::to_string(t1) + ", " +
                   std::to_string(kDay) + ", 'avg', 'max') AS peak");
}

// Both engines anchor the window grid at the interval's start, not at the
// first sample inside it: windows [5,30) [30,55) [55,80) [80,105) average
// 15, 40, 65 and 90.
TEST(WindowGridTest, EnginesAnchorTheGridAtTheIntervalStart) {
  storage::AllInGraphStore all_in_graph;
  storage::PolyglotStore polyglot;
  for (query::QueryBackend* store :
       {static_cast<query::QueryBackend*>(&all_in_graph),
        static_cast<query::QueryBackend*>(&polyglot)}) {
    const graph::VertexId v = store->mutable_topology()->AddVertex({"S"}, {});
    for (Timestamp t = 0; t <= 100; t += 10) {
      ASSERT_TRUE(store->AppendSample({true, v, "x"}, t, double(t)).ok());
    }
    auto r = query::Execute(
        *store,
        "MATCH (s:S) RETURN ts_window_agg(s.x, 5, 200, 25, 'avg', 'max')");
    ASSERT_TRUE(r.ok()) << store->name() << ": " << r.status().ToString();
    ASSERT_EQ(r->row_count(), 1u);
    EXPECT_EQ(r->rows[0][0], Value(90.0)) << store->name();
  }
}

// DurableStore adds the WAL in front of writes; reads, including the batch
// and pushed-down count primitives, must reach the wrapped store unchanged
// instead of falling back to the QueryBackend defaults (per-entity loops,
// materialize-then-count).
TEST(DurableForwardingTest, BatchAndCountPushdownReachTheInnerStore) {
  char tmpl[] = "/tmp/hygraph_durable_forwarding_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  {
    ts::HypertableOptions options;
    options.chunk_duration = 100;  // five chunks: four sealed, one hot
    storage::DurableStore store(
        storage::Env::Default(), root + "/store",
        std::make_unique<storage::PolyglotStore>(options));
    ASSERT_TRUE(store.Open().ok());
    std::vector<graph::VertexId> sensors;
    for (int i = 0; i < 3; ++i) {
      auto v = store.AddVertex({"Sensor"}, {});
      ASSERT_TRUE(v.ok());
      sensors.push_back(*v);
    }
    auto link = store.AddEdge(sensors[0], sensors[1], "LINK", {});
    ASSERT_TRUE(link.ok());
    const std::vector<query::SeriesSlot> links = {{false, *link, "load"}};
    for (Timestamp t = 0; t < 500; t += 10) {
      for (size_t i = 0; i < sensors.size(); ++i) {
        ASSERT_TRUE(store
                        .AppendSample({true, sensors[i], "temp"}, t,
                                      100.0 * i + t % 100)
                        .ok());
      }
      ASSERT_TRUE(store.AppendSample({false, *link, "load"}, t, t % 70).ok());
    }
    const query::QueryBackend& inner = *store.inner();
    const Interval all{0, 1000};

    const ts::AggKind avg = ts::AggKind::kAvg;
    std::vector<query::SeriesSlot> sensor_slots;
    for (graph::VertexId v : sensors) sensor_slots.push_back({true, v, "temp"});
    auto vertex_batch = store.SeriesAggregateBatch(sensor_slots, all, avg);
    auto inner_vertex_batch =
        inner.SeriesAggregateBatch(sensor_slots, all, avg);
    ASSERT_EQ(vertex_batch.size(), sensors.size());
    ASSERT_EQ(inner_vertex_batch.size(), sensors.size());
    for (size_t i = 0; i < sensors.size(); ++i) {
      ASSERT_TRUE(vertex_batch[i].ok());
      ASSERT_TRUE(inner_vertex_batch[i].ok());
      EXPECT_EQ(*vertex_batch[i], *inner_vertex_batch[i]);
    }
    auto edge_batch =
        store.SeriesAggregateBatch(links, all, ts::AggKind::kMax);
    auto inner_edge_batch =
        inner.SeriesAggregateBatch(links, all, ts::AggKind::kMax);
    ASSERT_EQ(edge_batch.size(), 1u);
    ASSERT_EQ(inner_edge_batch.size(), 1u);
    ASSERT_TRUE(edge_batch[0].ok());
    ASSERT_TRUE(inner_edge_batch[0].ok());
    EXPECT_EQ(*edge_batch[0], *inner_edge_batch[0]);

    // No sealed chunk of sensor 2 (values 200..290) intersects [1000,
    // 2000]: the inner store answers from zone maps without decoding.
    obs::Counter* skipped =
        inner.metrics()->counter("hypertable.chunks_zonemap_skipped");
    const uint64_t skipped_before = skipped->value();
    auto none =
        store.SeriesCountInRange({true, sensors[2], "temp"}, all, 1000, 2000);
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(*none, 0u);
    EXPECT_GT(skipped->value(), skipped_before);
    auto inner_none =
        inner.SeriesCountInRange({true, sensors[2], "temp"}, all, 1000, 2000);
    ASSERT_TRUE(inner_none.ok());
    EXPECT_EQ(*none, *inner_none);

    auto some =
        store.SeriesCountInRange({true, sensors[1], "temp"}, all, 120, 160);
    auto inner_some =
        inner.SeriesCountInRange({true, sensors[1], "temp"}, all, 120, 160);
    ASSERT_TRUE(some.ok());
    ASSERT_TRUE(inner_some.ok());
    EXPECT_GT(*some, 0u);
    EXPECT_EQ(*some, *inner_some);
    auto edge_count =
        store.SeriesCountInRange({false, *link, "load"}, all, 0, 30);
    auto inner_edge_count =
        inner.SeriesCountInRange({false, *link, "load"}, all, 0, 30);
    ASSERT_TRUE(edge_count.ok());
    ASSERT_TRUE(inner_edge_count.ok());
    EXPECT_GT(*edge_count, 0u);
    EXPECT_EQ(*edge_count, *inner_edge_count);
  }
  std::system(("rm -rf " + root).c_str());
}

}  // namespace
}  // namespace hygraph
