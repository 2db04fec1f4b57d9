#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/context.h"
#include "common/governor.h"
#include "common/rng.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "ts/correlate.h"

namespace hygraph {
namespace {

// ts_corr streams one side once the other is memoized (the anchor). These
// tests hold the streamed answers to the materialized ones bit for bit and
// pin down the work the stream saves.

// A correlation as ts_corr returns it: the double, or null (nullopt) when
// fewer than two samples align.
using Answer = std::optional<double>;

Answer FromResult(const Result<double>& r) {
  if (!r.ok()) return std::nullopt;
  return *r;
}

Answer FromValue(const Value& v) {
  if (v.is_null()) return std::nullopt;
  return v.AsDouble();
}

std::string Show(const Answer& a) {
  if (!a.has_value()) return "null";
  return std::to_string(*a) + " (bits " +
         std::to_string(std::bit_cast<uint64_t>(*a)) + ")";
}

// How often each kind of answer came up, so the property test can show its
// random inputs reach every case it claims to cover.
struct AnswerKinds {
  size_t nulls = 0;
  size_t zeros = 0;  // a constant side
  size_t others = 0;

  void Count(const Answer& a) {
    if (!a.has_value()) {
      ++nulls;
    } else if (*a == 0.0) {
      ++zeros;
    } else {
      ++others;
    }
  }
};

void ExpectSameBits(const Answer& want, const Answer& got,
                    const std::string& context) {
  ASSERT_EQ(want.has_value(), got.has_value())
      << context << ": want " << Show(want) << ", got " << Show(got);
  if (want.has_value()) {
    EXPECT_EQ(std::bit_cast<uint64_t>(*want), std::bit_cast<uint64_t>(*got))
        << context << ": want " << Show(want) << ", got " << Show(got);
  }
}

// -- property test: streamed == materialized, on every engine ----------------

constexpr int kVertices = 10;
constexpr Timestamp kSplit = 400;  // samples before it are checkpointed cold

class StreamedCorrelationPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_streamed_corr_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override { std::system(("rm -rf " + root_).c_str()); }

  std::string root_;
};

// A random series with gaps: some constant, some empty (a missing series),
// each starting and ending somewhere else, so anchors are often narrower
// than the interval and overlaps partial or empty.
ts::Series RandomSeries(Rng& rng) {
  ts::Series s("x");
  const uint64_t shape = rng.NextBounded(8);
  if (shape == 0) return s;  // missing: the store never sees it
  const double constant = rng.NextDoubleInRange(-5.0, 5.0);
  Timestamp t = rng.NextInRange(0, 500);
  const Timestamp end = t + rng.NextInRange(0, 500);
  for (; t < end; t += rng.NextInRange(1, 4)) {
    const double value =
        shape == 1 ? constant : rng.NextDoubleInRange(-100.0, 100.0);
    EXPECT_TRUE(s.Append(t, value).ok());
  }
  return s;
}

TEST_F(StreamedCorrelationPropertyTest, EveryEngineMatchesTheMaterializedAnswer) {
  AnswerKinds kinds;
  uint64_t cold_pins = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u);

    // Vertex series, and one edge series per edge of a ring.
    std::vector<ts::Series> vertex_series;
    std::vector<ts::Series> edge_series;
    for (int v = 0; v < kVertices; ++v) {
      vertex_series.push_back(RandomSeries(rng));
      edge_series.push_back(RandomSeries(rng));
    }

    ts::HypertableOptions narrow;
    narrow.chunk_duration = 16;  // many chunks: hot, sealed and cold
    storage::AllInGraphStore graph_store;
    storage::PolyglotStore ram(narrow);
    storage::DurableOptions options;
    options.sync_wal = false;
    options.tiering.enabled = true;
    options.tiering.cache_budget_bytes = 1;  // every cold pin misses
    storage::DurableStore tiered(
        storage::Env::Default(), root_ + "/store" + std::to_string(seed),
        std::make_unique<storage::PolyglotStore>(narrow), options);
    ASSERT_TRUE(tiered.Open().ok());

    for (int v = 0; v < kVertices; ++v) {
      const graph::PropertyMap props = {
          {"name", Value("V" + std::to_string(v))}};
      graph_store.mutable_topology()->AddVertex({"V"}, props);
      ram.mutable_topology()->AddVertex({"V"}, props);
      ASSERT_TRUE(tiered.AddVertex({"V"}, props).ok());
    }
    for (int v = 0; v < kVertices; ++v) {
      const graph::VertexId dst = (v + 1) % kVertices;
      ASSERT_TRUE(graph_store.mutable_topology()->AddEdge(v, dst, "E", {}).ok());
      ASSERT_TRUE(ram.mutable_topology()->AddEdge(v, dst, "E", {}).ok());
      ASSERT_TRUE(tiered.AddEdge(v, dst, "E", {}).ok());
    }
    // Everything before kSplit is checkpointed, so its sealed chunks go
    // cold; what follows stays in RAM, sealed or (newest) hot.
    auto ingest = [&](bool before_split) {
      for (int v = 0; v < kVertices; ++v) {
        const query::SeriesSlot x{true, static_cast<uint64_t>(v), "x"};
        const query::SeriesSlot w{false, static_cast<uint64_t>(v), "w"};
        for (const ts::Sample& s : vertex_series[v].samples()) {
          if ((s.t < kSplit) != before_split) continue;
          ASSERT_TRUE(graph_store.AppendSample(x, s.t, s.value).ok());
          ASSERT_TRUE(ram.AppendSample(x, s.t, s.value).ok());
          ASSERT_TRUE(tiered.AppendSample(x, s.t, s.value).ok());
        }
        for (const ts::Sample& s : edge_series[v].samples()) {
          if ((s.t < kSplit) != before_split) continue;
          ASSERT_TRUE(graph_store.AppendSample(w, s.t, s.value).ok());
          ASSERT_TRUE(ram.AppendSample(w, s.t, s.value).ok());
          ASSERT_TRUE(tiered.AppendSample(w, s.t, s.value).ok());
        }
      }
    };
    ingest(true);
    ASSERT_TRUE(tiered.Checkpoint().ok());
    ingest(false);
    ASSERT_GT(tiered.inner()->series_hypertable()->stats().cold_chunks_spilled,
              0u);

    const std::vector<const query::QueryBackend*> engines = {&graph_store, &ram,
                                                             &tiered};
    for (int round = 0; round < 6; ++round) {
      const Timestamp start = rng.NextInRange(-50, 600);
      const Interval interval{start, start + rng.NextInRange(0, 700)};
      const std::string range = std::to_string(interval.start) + ", " +
                                std::to_string(interval.end);
      for (int anchor = 0; anchor < kVertices; ++anchor) {
        const ts::Series anchor_range = vertex_series[anchor].Slice(interval);
        // The backend call itself, on each engine and its snapshot, against
        // every vertex and edge series (and against a missing key).
        for (const query::QueryBackend* engine : engines) {
          const auto snapshot = engine->BeginSnapshot();
          for (int other = 0; other < kVertices; ++other) {
            for (const bool vertex : {true, false}) {
              const ts::Series& full =
                  vertex ? vertex_series[other] : edge_series[other];
              const Answer want =
                  FromResult(ts::Correlation(anchor_range, full.Slice(interval)));
              kinds.Count(want);
              const query::SeriesSlot slot{vertex, static_cast<uint64_t>(other),
                                           vertex ? "x" : "w"};
              const std::string context =
                  engine->name() + " anchor V" + std::to_string(anchor) +
                  (vertex ? " vs V" : " vs E") + std::to_string(other) + " " +
                  interval.ToString();
              ExpectSameBits(want,
                             FromResult(engine->CorrelateSeriesRange(
                                 slot, interval, anchor_range)),
                             context);
              ASSERT_NE(snapshot, nullptr);
              ExpectSameBits(want,
                             FromResult(snapshot->CorrelateSeriesRange(
                                 slot, interval, anchor_range)),
                             context + " (snapshot)");
            }
            const query::SeriesSlot missing{true, static_cast<uint64_t>(other),
                                            "nope"};
            EXPECT_FALSE(
                engine->CorrelateSeriesRange(missing, interval, anchor_range)
                    .ok());
          }
        }
        // The statement: its first row materializes both sides, every later
        // row streams the partner against the memoized anchor, with the
        // anchor as the first and as the second argument.
        const std::string name = "'V" + std::to_string(anchor) + "'";
        for (const bool anchor_first : {true, false}) {
          const std::string args =
              anchor_first ? "a.x, b.x, " : "b.x, a.x, ";
          const std::string query =
              "MATCH (a:V {name: " + name + "}), (b:V) RETURN id(b) AS i, "
              "ts_corr(" + args + range + ") AS c ORDER BY i";
          for (const query::QueryBackend* engine : engines) {
            auto table = query::Execute(*engine, query);
            ASSERT_TRUE(table.ok()) << query << ": " << table.status().ToString();
            ASSERT_EQ(table->row_count(), static_cast<size_t>(kVertices - 1));
            for (const auto& row : table->rows) {
              const int64_t other = row[0].AsInt();
              const ts::Series partner = vertex_series[other].Slice(interval);
              const Answer want = FromResult(
                  anchor_first ? ts::Correlation(anchor_range, partner)
                               : ts::Correlation(partner, anchor_range));
              ExpectSameBits(want, FromValue(row[1]),
                             engine->name() + ": " + query + " row V" +
                                 std::to_string(other));
            }
          }
        }
      }
    }
    cold_pins += tiered.Work().cold_chunks_loaded;
  }
  EXPECT_GT(kinds.nulls, 0u);
  EXPECT_GT(kinds.zeros, 0u);
  EXPECT_GT(kinds.others, 0u);
  EXPECT_GT(cold_pins, 0u);
}

// -- regression: the work a streamed partner saves ---------------------------

/// 1 anchor + `partners` stations, 8 days of 5-minute samples each (the
/// 8th day is every series' hot newest chunk). A statement over the first
/// 7 days therefore reads 7 sealed chunks per full range.
class StreamedCorrelationWorkTest : public ::testing::Test {
 protected:
  static constexpr Timestamp kSample = 5 * kMinute;
  static constexpr Timestamp kWeek = 7 * kDay;

  void Load(int partners, const Interval& anchor_span) {
    graph::PropertyGraph* g = store_.mutable_topology();
    for (int s = 0; s <= partners; ++s) {
      const graph::VertexId v =
          g->AddVertex({"Station"}, {{"name", Value("S" + std::to_string(s))}});
      const Interval span = s == 0 ? anchor_span : Interval{0, 8 * kDay};
      for (Timestamp t = span.start; t < span.end; t += kSample) {
        const double value = 10.0 + s + static_cast<double>((t / kSample) % 7);
        ASSERT_TRUE(store_.AppendSample({true, v, "bikes"}, t, value).ok());
      }
    }
  }

  static std::string OneVsAll() {
    return "MATCH (a:Station {name: 'S0'}), (b:Station) WHERE b.name <> 'S0' "
           "RETURN b.name AS n, ts_corr(a.bikes, b.bikes, 0, " +
           std::to_string(kWeek) + ") AS c ORDER BY c DESC, n LIMIT 5";
  }

  uint64_t Decoded() const { return store_.Work().chunks_decoded; }

  storage::PolyglotStore store_;
};

TEST_F(StreamedCorrelationWorkTest, AnchorIsDecodedOnceAcrossMemoClears) {
  // More partners than the range memo's 64 entries: materializing every
  // partner into it used to clear it, and the anchor was decoded again.
  constexpr int kPartners = 70;
  Load(kPartners, Interval{0, 8 * kDay});
  const uint64_t before = Decoded();
  auto table = query::Execute(store_, OneVsAll());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->row_count(), 5u);
  EXPECT_EQ(Decoded() - before, uint64_t{kPartners + 1} * 7);
}

TEST_F(StreamedCorrelationWorkTest, StatementMemoryDoesNotGrowWithPartners) {
  constexpr int kPartners = 70;
  Load(kPartners, Interval{0, 8 * kDay});
  // The partners' week-long ranges take 70 * 2016 * 16 B = 2.2 MB together.
  ResourceGovernor governor;
  governor.SetBudget(1 << 20);
  QueryContext context;
  context.AttachGovernor(&governor);
  auto ast = query::Parse(OneVsAll());
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  auto plan = query::CompileQuery(*ast);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto table = query::RunPlan(store_, *plan, nullptr, &context);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->row_count(), 5u);
  context.AttachGovernor(nullptr);
  EXPECT_EQ(governor.reserved(), 0u);
}

TEST_F(StreamedCorrelationWorkTest, StreamedPartnerReadsOnlyTheAnchorsSpan) {
  // The anchor holds day 3 only (one hot chunk): a streamed partner pins
  // and decodes that day's chunk, not the week's seven.
  constexpr int kPartners = 5;
  Load(kPartners, Interval{3 * kDay, 4 * kDay});
  const uint64_t before = Decoded();
  auto table = query::Execute(store_, OneVsAll());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->row_count(), 5u);
  // The first row materializes its partner's week; every later one streams.
  EXPECT_EQ(Decoded() - before, uint64_t{7 + (kPartners - 1)});
}

}  // namespace
}  // namespace hygraph
