#include "query/profile.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/clock.h"
#include "obs/slow_query.h"
#include "query/executor.h"
#include "storage/all_in_graph.h"
#include "storage/polyglot.h"

namespace hygraph::query {
namespace {

// Same small bike-sharing world as executor_test, loaded into either
// backend through the shared QueryBackend mutation surface.
void Populate(QueryBackend* store) {
  graph::PropertyGraph* g = store->mutable_topology();
  const auto s1 = g->AddVertex(
      {"Station"}, {{"name", Value("S1")}, {"capacity", Value(10)}});
  const auto s2 = g->AddVertex(
      {"Station"}, {{"name", Value("S2")}, {"capacity", Value(20)}});
  const auto s3 = g->AddVertex(
      {"Station"}, {{"name", Value("S3")}, {"capacity", Value(30)}});
  ASSERT_TRUE(g->AddEdge(s1, s2, "TRIP", {}).ok());
  ASSERT_TRUE(g->AddEdge(s2, s3, "TRIP", {}).ok());
  for (int i = 0; i < 10; ++i) {
    const Timestamp t = i * kHour;
    ASSERT_TRUE(store->AppendSample({true, s1, "bikes"}, t, 5.0).ok());
    ASSERT_TRUE(store->AppendSample({true, s2, "bikes"}, t, i).ok());
    ASSERT_TRUE(store->AppendSample({true, s3, "bikes"}, t, 2.0 * i).ok());
  }
}

// S1 avg=5, S2 avg=4.5, S3 avg=9 over the range: the filter keeps S1 and S3.
constexpr char kAggQuery[] =
    "MATCH (s:Station) WHERE ts_avg(s.bikes, 0, 36000000) > 4.6 "
    "RETURN s.name, ts_sum(s.bikes, 0, 36000000) AS total";

TEST(ExplainTest, ReturnsPlanWithoutExecuting) {
  storage::AllInGraphStore store;
  Populate(&store);
  auto r = Execute(store, std::string("EXPLAIN ") + kAggQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns, std::vector<std::string>{"plan"});
  ASSERT_GE(r->row_count(), 2u);
  EXPECT_EQ(r->rows[0][0].AsString(), "backend: all-in-graph");
  EXPECT_FALSE(r->rows[1][0].AsString().empty());
  // EXPLAIN must not touch the storage layer.
  EXPECT_EQ(store.Work().properties_scanned, 0u);
  EXPECT_EQ(store.Work().series_points_scanned, 0u);
}

TEST(ExplainTest, ExplainPlanMatchesExecuteSurface) {
  storage::PolyglotStore store;
  Populate(&store);
  auto via_execute = Execute(store, std::string("EXPLAIN ") + kAggQuery);
  auto via_api = Explain(store, kAggQuery);
  ASSERT_TRUE(via_execute.ok());
  ASSERT_TRUE(via_api.ok());
  ASSERT_EQ(via_execute->row_count(), via_api->row_count());
  for (size_t i = 0; i < via_api->row_count(); ++i) {
    EXPECT_EQ(via_execute->rows[i][0], via_api->rows[i][0]);
  }
}

TEST(ProfileTest, ExecuteReturnsOperatorColumn) {
  storage::AllInGraphStore store;
  Populate(&store);
  auto r = Execute(store, std::string("PROFILE ") + kAggQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns, std::vector<std::string>{"operator"});
  ASSERT_GE(r->row_count(), 2u);
  EXPECT_EQ(r->rows[0][0].AsString().rfind("PROFILE wall_ns=", 0), 0u);
  // The tree lists the executor's operators.
  const std::string all = [&] {
    std::string joined;
    for (const auto& row : r->rows) joined += row[0].AsString() + "\n";
    return joined;
  }();
  EXPECT_NE(all.find("execute:"), std::string::npos);
  EXPECT_NE(all.find("match:"), std::string::npos);
  EXPECT_NE(all.find("scan:"), std::string::npos);
  EXPECT_NE(all.find("where:"), std::string::npos);
  EXPECT_NE(all.find("return:total"), std::string::npos);
}

TEST(ProfileTest, RowsMatchNormalExecutionOnBothBackends) {
  storage::AllInGraphStore aig;
  storage::PolyglotStore poly;
  Populate(&aig);
  Populate(&poly);
  for (QueryBackend* store : {static_cast<QueryBackend*>(&aig),
                              static_cast<QueryBackend*>(&poly)}) {
    auto normal = Execute(*store, kAggQuery);
    auto profiled = Profile(*store, kAggQuery);
    ASSERT_TRUE(normal.ok()) << store->name();
    ASSERT_TRUE(profiled.ok()) << store->name();
    ASSERT_EQ(profiled->result.rows.size(), normal->rows.size())
        << store->name();
    for (size_t i = 0; i < normal->rows.size(); ++i) {
      EXPECT_EQ(profiled->result.rows[i], normal->rows[i]) << store->name();
    }
  }
}

TEST(ProfileTest, DeterministicTreeWithManualClock) {
  storage::AllInGraphStore store;
  Populate(&store);
  obs::ManualClock clock;
  clock.set_auto_advance(1);
  auto profiled = Profile(store, kAggQuery, {}, &clock);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();

  // Shape: query -> {compile, execute -> {match, scan -> ..., project}}.
  const obs::TraceNode& query = profiled->trace;
  EXPECT_EQ(query.name, "query");
  ASSERT_NE(query.FindChild("compile"), nullptr);
  const obs::TraceNode* execute = query.FindChild("execute");
  ASSERT_NE(execute, nullptr);
  EXPECT_NE(execute->FindChild("match"), nullptr);
  const obs::TraceNode* scan = execute->FindChild("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_NE(scan->FindChild("where"), nullptr);
  EXPECT_NE(scan->FindChild("return:total"), nullptr);
  EXPECT_NE(execute->FindChild("project"), nullptr);

  // The WHERE predicate ran once per match; rows landed on the counters.
  EXPECT_EQ(scan->FindChild("where")->count, 3u);
  EXPECT_EQ(execute->counters.at("rows"), 2u);  // S2 fails avg > 4? S1=5,S3=9
  EXPECT_EQ(execute->FindChild("project")->counters.at("rows"), 2u);

  // Timings reconcile: self times telescope to the root total exactly, and
  // the wall clock bracket covers the whole tree.
  EXPECT_EQ(query.SumSelfNanos(), query.total_nanos);
  EXPECT_GE(profiled->wall_nanos, query.total_nanos);
  EXPECT_GT(query.total_nanos, 0u);
}

TEST(ProfileTest, BackendWorkIsAttributedToSpans) {
  storage::PolyglotStore store;
  Populate(&store);
  auto profiled = Profile(store, kAggQuery);
  ASSERT_TRUE(profiled.ok());
  const obs::TraceNode* execute = profiled->trace.FindChild("execute");
  ASSERT_NE(execute, nullptr);
  const obs::TraceNode* scan = execute->FindChild("scan");
  ASSERT_NE(scan, nullptr);
  // kAggQuery's ts_avg/ts_sum have literal bounds over several matched
  // stations, so the executor batches them up front: the storage work
  // lands on the "prefetch" span, and the per-row WHERE evaluations are
  // answered from the aggregate memo without touching the series store.
  const obs::TraceNode* prefetch = execute->FindChild("prefetch");
  ASSERT_NE(prefetch, nullptr);
  // Which counter moved depends on the path taken — a raw scan counts
  // points, a fully-covered chunk is answered from the aggregate cache —
  // but the delta lands on the span either way.
  uint64_t storage_work = 0;
  for (const char* name :
       {"points_scanned", "chunks_decoded", "chunks_cache_hits"}) {
    auto it = prefetch->counters.find(name);
    if (it != prefetch->counters.end()) storage_work += it->second;
  }
  EXPECT_GT(storage_work, 0u);
  EXPECT_EQ(prefetch->counters.at("sites"), 2u);  // ts_avg + ts_sum
}

TEST(ProfileTest, MemoHitsAppearInTraceCounters) {
  storage::PolyglotStore store;
  Populate(&store);
  // ts_corr materializes ranges through the evaluator memo; asking for the
  // same correlation twice makes the second fetch a guaranteed hit.
  auto profiled = Profile(
      store,
      "MATCH (a:Station {name: 'S2'}), (b:Station {name: 'S3'}) "
      "RETURN ts_corr(a.bikes, b.bikes, 0, 36000000) AS c1, "
      "ts_corr(a.bikes, b.bikes, 0, 36000000) AS c2");
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  const obs::TraceNode* execute = profiled->trace.FindChild("execute");
  ASSERT_NE(execute, nullptr);
  ASSERT_TRUE(execute->counters.count("memo_misses"));
  ASSERT_TRUE(execute->counters.count("memo_hits"));
  EXPECT_EQ(execute->counters.at("memo_misses"), 2u);  // a.bikes, b.bikes
  EXPECT_EQ(execute->counters.at("memo_hits"), 2u);    // reused by c2
}

TEST(ProfileTest, QueryCountersAccumulateOnBackendRegistry) {
  storage::PolyglotStore store;
  Populate(&store);
  ASSERT_TRUE(Execute(store, kAggQuery).ok());
  ASSERT_TRUE(Execute(store, kAggQuery).ok());
  const obs::MetricsSnapshot snap = store.metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("query.executions"), 2u);
  EXPECT_GE(snap.counters.at("query.rows"), 4u);
}

TEST(SlowQueryLogTest, DisabledByDefaultAndRecordsWhenEnabled) {
  storage::AllInGraphStore store;
  Populate(&store);
  obs::SlowQueryLog& log = obs::SlowQueryLog::Global();
  log.Clear();
  ASSERT_FALSE(log.enabled());

  ASSERT_TRUE(Execute(store, kAggQuery).ok());
  EXPECT_TRUE(log.Entries().empty());  // disabled -> nothing captured

  log.set_threshold_nanos(1);  // every query is "slow"
  ASSERT_TRUE(Execute(store, kAggQuery).ok());
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].query, kAggQuery);
  EXPECT_EQ(entries[0].backend, "all-in-graph");
  EXPECT_GT(entries[0].nanos, 0u);

  log.set_threshold_nanos(0);
  log.Clear();
}

TEST(SlowQueryLogTest, ThresholdFiltersFastQueries) {
  storage::AllInGraphStore store;
  Populate(&store);
  obs::SlowQueryLog& log = obs::SlowQueryLog::Global();
  log.Clear();
  log.set_threshold_nanos(uint64_t{3600} * 1000 * 1000 * 1000);  // one hour
  ASSERT_TRUE(Execute(store, kAggQuery).ok());
  EXPECT_TRUE(log.Entries().empty());
  log.set_threshold_nanos(0);
}

TEST(SlowQueryLogTest, RingBufferKeepsMostRecent) {
  obs::SlowQueryLog log;
  log.set_threshold_nanos(1);
  for (size_t i = 0; i < log.capacity() + 10; ++i) {
    log.MaybeRecord("q" + std::to_string(i), "b", 5);
  }
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), log.capacity());
  EXPECT_EQ(entries.front().query, "q10");
  EXPECT_EQ(entries.back().query,
            "q" + std::to_string(log.capacity() + 9));
}

}  // namespace
}  // namespace hygraph::query
