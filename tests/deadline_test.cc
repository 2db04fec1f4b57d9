// End-to-end coverage of the query-governance layer: the HGQL TIMEOUT
// surface (SET TIMEOUT prefix / trailing clause), deadline enforcement
// through the executor, matcher, traversals and both storage
// architectures' scan loops, cooperative cancellation, points budgets,
// memory budgets, admission shedding, and the PROFILE cut marker.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/context.h"
#include "common/governor.h"
#include "graph/pattern.h"
#include "graph/property_graph.h"
#include "graph/traversal.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/profile.h"
#include "storage/all_in_graph.h"
#include "storage/polyglot.h"
#include "ts/hypertable.h"

namespace hygraph::query {
namespace {

// ---- parser surface --------------------------------------------------------

TEST(TimeoutParseTest, SetTimeoutPrefixArmsTheQuery) {
  auto ast = Parse("SET TIMEOUT 500 MATCH (n) RETURN n.v");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_EQ(ast->timeout_ms, 500u);
  EXPECT_EQ(ast->mode, QueryMode::kNormal);
}

TEST(TimeoutParseTest, PrefixComposesWithExplainAndProfile) {
  auto explain = Parse("SET TIMEOUT 100 EXPLAIN MATCH (n) RETURN n.v");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->mode, QueryMode::kExplain);
  EXPECT_EQ(explain->timeout_ms, 100u);

  auto profile = Parse("SET TIMEOUT 100 PROFILE MATCH (n) RETURN n.v");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->mode, QueryMode::kProfile);
  EXPECT_EQ(profile->timeout_ms, 100u);
}

TEST(TimeoutParseTest, TrailingClauseAfterLimit) {
  auto ast = Parse("MATCH (n) RETURN n.v LIMIT 5 TIMEOUT 250");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_EQ(ast->limit, 5u);
  EXPECT_EQ(ast->timeout_ms, 250u);
}

TEST(TimeoutParseTest, ClauseWinsOverPrefix) {
  auto ast = Parse("SET TIMEOUT 100 MATCH (n) RETURN n.v TIMEOUT 2000");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_EQ(ast->timeout_ms, 2000u);
}

TEST(TimeoutParseTest, RejectsAbsurdTimeouts) {
  // Zero, negative, non-integer, missing, and beyond-the-cap literals are
  // all parse errors, not silently clamped values.
  EXPECT_FALSE(Parse("MATCH (n) RETURN n.v TIMEOUT 0").ok());
  EXPECT_FALSE(Parse("MATCH (n) RETURN n.v TIMEOUT -5").ok());
  EXPECT_FALSE(Parse("MATCH (n) RETURN n.v TIMEOUT 1.5").ok());
  EXPECT_FALSE(Parse("MATCH (n) RETURN n.v TIMEOUT").ok());
  EXPECT_FALSE(Parse("SET TIMEOUT MATCH (n) RETURN n.v").ok());
  // One past the 24h cap.
  EXPECT_FALSE(Parse("MATCH (n) RETURN n.v TIMEOUT 86400001").ok());
  // Larger than int64: the lexer's overflow detection rejects it first.
  EXPECT_FALSE(
      Parse("SET TIMEOUT 99999999999999999999 MATCH (n) RETURN n.v").ok());
  // At the cap is fine.
  EXPECT_TRUE(Parse("MATCH (n) RETURN n.v TIMEOUT 86400000").ok());
}

TEST(TimeoutParseTest, PlanCarriesAndRendersTheTimeout) {
  auto ast = Parse("SET TIMEOUT 750 MATCH (n) RETURN n.v");
  ASSERT_TRUE(ast.ok());
  auto plan = CompileQuery(*ast);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->timeout_ms, 750u);
  EXPECT_NE(plan->ToString().find("timeout=750ms"), std::string::npos)
      << plan->ToString();
}

// ---- execution -------------------------------------------------------------

// A pattern whose search space is combinatorial: three unconstrained
// variables over `n` vertices is ~n^3 candidate steps, far beyond what any
// deadline in the test allows — guaranteeing the cut happens mid-search.
std::unique_ptr<storage::AllInGraphStore> WideOpenStore(int n = 300) {
  auto store = std::make_unique<storage::AllInGraphStore>();
  graph::PropertyGraph* g = store->mutable_topology();
  for (int i = 0; i < n; ++i) {
    g->AddVertex({"V"}, {{"id", Value(int64_t{i})}});
  }
  return store;
}

constexpr char kExplosiveQuery[] =
    "MATCH (a), (b), (c) RETURN a.id TIMEOUT 250";

TEST(DeadlineExecutionTest, TimeoutCutsTheQueryWithinTwiceTheDeadline) {
  auto store = WideOpenStore();
  const obs::Clock* clock = obs::SystemClock::Instance();
  const uint64_t start = clock->NowNanos();
  auto result = Execute(*store, kExplosiveQuery);
  const uint64_t elapsed_ms = (clock->NowNanos() - start) / 1'000'000;
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // The acceptance bound: enforcement granularity is one checkpoint
  // interval, so the query must die well within 2x its deadline.
  EXPECT_LT(elapsed_ms, 500u);
}

TEST(DeadlineExecutionTest, CancellationStopsTheQuery) {
  auto store = WideOpenStore();
  auto ast = Parse("MATCH (a), (b), (c) RETURN a.id");
  ASSERT_TRUE(ast.ok());
  auto plan = CompileQuery(*ast);
  ASSERT_TRUE(plan.ok());

  QueryContext ctx;
  ctx.Cancel();  // as if another thread cancelled just before we ran
  auto result = RunPlan(*store, *plan, nullptr, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST(DeadlineExecutionTest, PointsBudgetBoundsTheSearch) {
  auto store = WideOpenStore(100);
  auto ast = Parse("MATCH (a), (b), (c) RETURN a.id");
  ASSERT_TRUE(ast.ok());
  auto plan = CompileQuery(*ast);
  ASSERT_TRUE(plan.ok());

  QueryContext ctx;
  ctx.SetPointsBudget(10'000);  // far below the ~10^6 candidate steps
  auto result = RunPlan(*store, *plan, nullptr, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_GE(ctx.charged(), 10'000u);
}

TEST(DeadlineExecutionTest, ProfileMarksWhereTheQueryWasCut) {
  auto store = WideOpenStore(100);
  auto ast = Parse("MATCH (a), (b), (c) RETURN a.id");
  ASSERT_TRUE(ast.ok());
  auto plan = CompileQuery(*ast);
  ASSERT_TRUE(plan.ok());

  QueryContext ctx;
  ctx.Cancel();
  obs::Tracer tracer;
  auto result = RunPlan(*store, *plan, &tracer, &ctx);
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.status().IsCancelled());

  // The execute span carries the cut marker; the spans that ran up to the
  // cut are still in the tree.
  ASSERT_EQ(tracer.root().children.size(), 1u);
  const obs::TraceNode& execute = tracer.root().children.front();
  EXPECT_EQ(execute.name, "execute");
  auto it = execute.counters.find("cut:cancelled");
  ASSERT_NE(it, execute.counters.end()) << execute.ToString();
  EXPECT_EQ(it->second, 1u);
}

TEST(DeadlineExecutionTest, ProfilePlanReturnsTheCutTreeInsteadOfErroring) {
  auto store = WideOpenStore();
  auto ast = Parse(kExplosiveQuery);
  ASSERT_TRUE(ast.ok());
  auto plan = CompileQuery(*ast);
  ASSERT_TRUE(plan.ok());

  auto profiled = ProfilePlan(*store, *plan);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_TRUE(profiled->was_cut());
  EXPECT_TRUE(profiled->cut.IsDeadlineExceeded()) << profiled->cut.ToString();
  EXPECT_TRUE(profiled->result.rows.empty());
  EXPECT_NE(profiled->ToString().find("CUT "), std::string::npos)
      << profiled->ToString();
  // The rendered tree still shows the operators that ran.
  EXPECT_NE(profiled->ToString().find("execute"), std::string::npos);
}

TEST(DeadlineExecutionTest, AdmissionGateShedsNewQueries) {
  ResourceGovernor* governor = ResourceGovernor::Global();
  governor->SetAdmissionHighWater(1);
  ASSERT_TRUE(governor->Reserve(2).ok());

  auto store = WideOpenStore(5);
  auto result = Execute(*store, "MATCH (n) RETURN n.id");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();

  governor->Release(2);
  governor->SetAdmissionHighWater(0);
  EXPECT_TRUE(Execute(*store, "MATCH (n) RETURN n.id").ok());
}

// ---- deep scan loops -------------------------------------------------------

// The scan tests arm a deadline with a fake clock that jumps past due on
// its first re-read, so the scan is cut at its first checkpoint,
// deterministically and without sleeping.
TEST(DeadlineScanTest, HypertableScanHonorsTheInstalledContext) {
  ts::HypertableStore table;
  const SeriesId id = table.Create("s");
  for (int i = 0; i < 5'000; ++i) {
    ASSERT_TRUE(table.Insert(id, i * kMinute, 1.0 * i).ok());
  }

  QueryContext ctx;
  uint64_t now = 0;
  ctx.SetTimeout(1, [now]() mutable {
    now += 10'000'000;
    return now;
  });
  QueryContext::Scope scope(&ctx);
  auto scan = table.Scan(id, Interval::All());
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsDeadlineExceeded()) << scan.status().ToString();
}

TEST(DeadlineScanTest, HypertableMaterializeRespectsTheMemoryBudget) {
  ts::HypertableStore table;
  const SeriesId id = table.Create("s");
  for (int i = 0; i < 5'000; ++i) {
    ASSERT_TRUE(table.Insert(id, i * kMinute, 1.0 * i).ok());
  }

  ResourceGovernor governor;
  governor.SetBudget(1024);  // far below 5000 * sizeof(Sample)
  QueryContext ctx;
  ctx.AttachGovernor(&governor);
  QueryContext::Scope scope(&ctx);
  auto series = table.Materialize(id, Interval::All());
  ASSERT_FALSE(series.ok());
  EXPECT_TRUE(series.status().IsResourceExhausted())
      << series.status().ToString();
  // Nothing leaks: the failed reservation held nothing back.
  ctx.AttachGovernor(nullptr);
  EXPECT_EQ(governor.reserved(), 0u);
}

TEST(DeadlineScanTest, TraversalsHonorTheContext) {
  graph::PropertyGraph g;
  // A long chain so the BFS/DFS/Dijkstra frontiers see many pops.
  graph::VertexId prev = g.AddVertex({"V"}, {});
  const graph::VertexId source = prev;
  for (int i = 1; i < 3'000; ++i) {
    const graph::VertexId next = g.AddVertex({"V"}, {});
    ASSERT_TRUE(g.AddEdge(prev, next, "e", {}).ok());
    prev = next;
  }

  QueryContext cancelled;
  cancelled.Cancel();
  graph::TraversalOptions options;
  options.context = &cancelled;

  auto bfs = graph::Bfs(g, source, options);
  ASSERT_FALSE(bfs.ok());
  EXPECT_TRUE(bfs.status().IsCancelled());

  auto dfs = graph::DfsPreorder(g, source, options);
  ASSERT_FALSE(dfs.ok());
  EXPECT_TRUE(dfs.status().IsCancelled());

  auto path = graph::FindShortestPath(g, source, prev, "", options);
  ASSERT_FALSE(path.ok());
  EXPECT_TRUE(path.status().IsCancelled());

  // Without a context everything still works.
  graph::TraversalOptions plain;
  EXPECT_TRUE(graph::Bfs(g, source, plain).ok());
}

TEST(DeadlineScanTest, PatternMatcherChargesPerCandidate) {
  graph::PropertyGraph g;
  for (int i = 0; i < 200; ++i) g.AddVertex({"V"}, {});

  graph::Pattern pattern;
  pattern.AddVertex("a").AddVertex("b");

  QueryContext ctx;
  ctx.SetPointsBudget(500);
  graph::MatchOptions options;
  options.context = &ctx;
  auto matches = graph::MatchPattern(g, pattern, options);
  ASSERT_FALSE(matches.ok());
  EXPECT_TRUE(matches.status().IsResourceExhausted())
      << matches.status().ToString();
}

// The polyglot architecture routes ts_* scans through the hypertable; the
// all-in-graph architecture sweeps properties. Both must honor a deadline
// reached mid-scan (here: budget, for determinism). The polyglot store
// runs without the chunk cache — with it, a fully-covered aggregate is
// answered from per-chunk partials, which is legitimately too little work
// to trip any budget.
TEST(DeadlineScanTest, BothArchitecturesCutSeriesScans) {
  for (const bool polyglot : {false, true}) {
    SCOPED_TRACE(polyglot ? "polyglot" : "all_in_graph");
    std::unique_ptr<QueryBackend> store;
    if (polyglot) {
      ts::HypertableOptions ts_options;
      ts_options.enable_chunk_cache = false;
      store = std::make_unique<storage::PolyglotStore>(ts_options);
    } else {
      store = std::make_unique<storage::AllInGraphStore>();
    }
    const graph::VertexId v =
        store->mutable_topology()->AddVertex({"V"}, {{"id", Value(1)}});
    for (int i = 0; i < 4'000; ++i) {
      ASSERT_TRUE(
          store->AppendSample({true, v, "load"}, i * kMinute, 1.0).ok());
    }

    auto ast = Parse("MATCH (n:V) RETURN ts_sum(n.load, 0, 900000000)");
    ASSERT_TRUE(ast.ok());
    auto plan = CompileQuery(*ast);
    ASSERT_TRUE(plan.ok());

    QueryContext ctx;
    ctx.SetPointsBudget(1'000);  // < 4000 samples
    auto result = RunPlan(*store, *plan, nullptr, &ctx);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
  }
}

}  // namespace
}  // namespace hygraph::query
