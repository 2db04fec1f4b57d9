// Series-slot parity: every series operation of the backend API answers
// the same on every vertex and edge slot, whichever way the store is
// reached — the live store, a version pinned by BeginSnapshot(), a
// DurableStore around the store, and a tiered DurableStore whose sealed
// chunks were checkpointed cold and are read back through a 1-byte cache.
// Views of one engine agree bit for bit (doubles compared as uint64_t);
// the all-in-graph and polyglot engines agree within ExpectCellEq's 1e-9
// relative bound (backend_consistency_test), since they fold sums in a
// different order.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/time.h"
#include "query/backend.h"
#include "query/executor.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "workloads/bike_sharing.h"

namespace hygraph {
namespace {

using query::QueryBackend;
using query::SeriesSlot;
using ts::AggKind;

constexpr AggKind kAllKinds[] = {
    AggKind::kCount, AggKind::kSum, AggKind::kAvg,   AggKind::kMin,
    AggKind::kMax,   AggKind::kStdDev, AggKind::kFirst, AggKind::kLast,
};

// 8 stations with a "bikes" series of 30-minute samples and 16 trip edges
// with a daily "trips" series, over 3 days: with day-wide chunks, every
// series has two sealed chunks and a hot one.
workloads::BikeSharingDataset Dataset() {
  workloads::BikeSharingConfig config;
  config.stations = 8;
  config.districts = 2;
  config.days = 3;
  config.sample_interval = 30 * kMinute;
  config.trips_per_station = 2;
  config.seed = 11;
  auto dataset = workloads::GenerateBikeSharing(config);
  EXPECT_TRUE(dataset.ok());
  return *dataset;
}

// Every slot the test reads: each station's "bikes" and each trip's
// "trips", plus a key no entity has.
std::vector<SeriesSlot> SlotsToRead(const workloads::BikeSharingDataset& d) {
  std::vector<SeriesSlot> slots;
  for (uint64_t v = 0; v < d.stations.size(); ++v) {
    slots.push_back(SeriesSlot{true, v, "bikes"});
    slots.push_back(SeriesSlot{true, v, "nope"});
  }
  for (uint64_t e = 0; e < d.trips.size(); ++e) {
    slots.push_back(SeriesSlot{false, e, "trips"});
    slots.push_back(SeriesSlot{false, e, "nope"});
  }
  return slots;
}

std::string SlotText(const SeriesSlot& slot) {
  return query::SeriesSlotName(slot);
}

// One answer: the operation it answers, its status code, and every
// timestamp and value it returned.
struct Outcome {
  std::string op;
  StatusCode code = StatusCode::kOk;
  std::vector<Timestamp> times;
  std::vector<double> values;
};
using Readings = std::vector<Outcome>;

Outcome FromDouble(std::string op, const Result<double>& r) {
  Outcome o{std::move(op), r.status().code(), {}, {}};
  if (r.ok()) o.values.push_back(*r);
  return o;
}

// A count compares exactly, so it rides with the timestamps.
Outcome FromCount(std::string op, const Result<size_t>& r) {
  Outcome o{std::move(op), r.status().code(), {}, {}};
  if (r.ok()) o.times.push_back(static_cast<Timestamp>(*r));
  return o;
}

Outcome FromSeries(std::string op, const Result<ts::Series>& r) {
  Outcome o{std::move(op), r.status().code(), {}, {}};
  if (!r.ok()) return o;
  for (const ts::Sample& s : r->samples()) {
    o.times.push_back(s.t);
    o.values.push_back(s.value);
  }
  return o;
}

Outcome FromTable(std::string op, const Result<query::QueryResult>& r) {
  Outcome o{std::move(op), r.status().code(), {}, {}};
  if (!r.ok()) return o;
  for (const auto& row : r->rows) {
    for (const Value& cell : row) {
      if (cell.is_double()) {
        o.values.push_back(cell.AsDouble());
      } else {
        o.op += " | " + cell.ToString();
      }
    }
  }
  return o;
}

// -- reading a view ----------------------------------------------------------

// Everything; clipping inside the hot chunk; clipping sealed chunks at
// both ends, starting between samples; and before any data.
std::vector<Interval> Intervals(const workloads::BikeSharingDataset& d) {
  return {Interval::All(),
          Interval{d.start() + kDay, d.end() - kDay + 7 * kHour + 5 * kMinute},
          Interval{d.start() + 7 * kHour + 5 * kMinute,
                   d.end() - kDay - 13 * kMinute},
          Interval{d.start() - 2 * kDay, d.start() - kDay}};
}

Readings Read(const QueryBackend& b, const workloads::BikeSharingDataset& d) {
  const std::vector<SeriesSlot> slots = SlotsToRead(d);
  Readings out;
  for (const Interval& interval : Intervals(d)) {
    const ts::Series vertex_anchor = d.stations[0].bikes.Slice(interval);
    const ts::Series edge_anchor = d.trips[0].daily_trips.Slice(interval);
    for (const SeriesSlot& slot : slots) {
      const std::string at = SlotText(slot) + " " + interval.ToString();
      out.push_back(FromSeries("range " + at, b.SeriesRange(slot, interval)));
      for (AggKind kind : kAllKinds) {
        out.push_back(FromDouble(
            std::string("aggregate ") + ts::AggKindName(kind) + " " + at,
            b.SeriesAggregate(slot, interval, kind)));
      }
      for (Duration width : {6 * kHour, 2 * kDay}) {
        for (AggKind kind : {AggKind::kAvg, AggKind::kMax, AggKind::kCount}) {
          out.push_back(FromSeries(
              "window " + std::to_string(width) + " " +
                  ts::AggKindName(kind) + " " + at,
              b.SeriesWindowAggregate(slot, interval, width, kind)));
        }
      }
      out.push_back(FromCount("count_in_range " + at,
                              b.SeriesCountInRange(slot, interval, 5.0, 15.0)));
      out.push_back(FromDouble(
          "correlate " + at,
          b.CorrelateSeriesRange(slot, interval,
                                 slot.vertex ? vertex_anchor : edge_anchor)));
    }
    // The batch answers each slot exactly as the single call does.
    for (AggKind kind : kAllKinds) {
      const auto batch = b.SeriesAggregateBatch(slots, interval, kind);
      for (size_t i = 0; i < slots.size(); ++i) {
        const std::string at = std::string(ts::AggKindName(kind)) + " " +
                               SlotText(slots[i]) + " " + interval.ToString();
        Outcome single = FromDouble(
            "aggregate " + at, b.SeriesAggregate(slots[i], interval, kind));
        Outcome batched = FromDouble("batch " + at, batch[i]);
        EXPECT_EQ(single.code, batched.code) << at;
        EXPECT_EQ(single.values.size(), batched.values.size()) << at;
        if (!single.values.empty() && !batched.values.empty()) {
          EXPECT_EQ(std::bit_cast<uint64_t>(single.values[0]),
                    std::bit_cast<uint64_t>(batched.values[0]))
              << at;
        }
        out.push_back(std::move(batched));
      }
    }
  }
  // The same operations as HGQL statements, over vertices and edges.
  const std::string lo = std::to_string(d.start() + 7 * kHour);
  const std::string hi = std::to_string(d.end() - kDay);
  for (const std::string& statement : {
           "MATCH (s:Station) RETURN id(s) AS i, ts_window_agg(s.bikes, " +
               lo + ", " + hi + ", 21600000, 'avg', 'max') AS w ORDER BY i",
           "MATCH (a:Station)-[t:TRIP]->(b:Station) RETURN id(t) AS i, "
           "ts_window_agg(t.trips, " + lo + ", " + hi +
               ", 172800000, 'sum', 'max') AS w ORDER BY i",
           "MATCH (a:Station)-[t:TRIP]->(b:Station) RETURN id(t) AS i, "
           "ts_count_between(t.trips, " + lo + ", " + hi +
               ", 5, 15) AS n, ts_avg(t.trips, " + lo + ", " + hi +
               ") AS m, ts_avg(a.bikes, " + lo + ", " + hi +
               ") AS s ORDER BY i",
       }) {
    out.push_back(FromTable(statement, query::Execute(b, statement)));
  }
  return out;
}

// -- comparing views ---------------------------------------------------------

void ExpectSameOps(const Readings& want, const Readings& got,
                   const std::string& view) {
  ASSERT_EQ(want.size(), got.size()) << view;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].op, got[i].op) << view;
    EXPECT_EQ(want[i].code, got[i].code) << view << ": " << want[i].op;
    EXPECT_EQ(want[i].times, got[i].times) << view << ": " << want[i].op;
    ASSERT_EQ(want[i].values.size(), got[i].values.size())
        << view << ": " << want[i].op;
  }
}

void ExpectBitIdentical(const Readings& want, const Readings& got,
                        const std::string& view) {
  ExpectSameOps(want, got, view);
  if (::testing::Test::HasFatalFailure()) return;
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t j = 0; j < want[i].values.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(want[i].values[j]),
                std::bit_cast<uint64_t>(got[i].values[j]))
          << view << ": " << want[i].op << " value " << j << ": "
          << want[i].values[j] << " vs " << got[i].values[j];
    }
  }
}

void ExpectClose(const Readings& want, const Readings& got,
                 const std::string& view) {
  ExpectSameOps(want, got, view);
  if (::testing::Test::HasFatalFailure()) return;
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t j = 0; j < want[i].values.size(); ++j) {
      const double x = want[i].values[j];
      EXPECT_NEAR(x, got[i].values[j], 1e-9 * (1.0 + std::abs(x)))
          << view << ": " << want[i].op << " value " << j;
    }
  }
}

class SeriesSlotParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_slot_parity_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    dataset_ = Dataset();
  }
  void TearDown() override { std::system(("rm -rf " + root_).c_str()); }

  std::unique_ptr<storage::DurableStore> OpenDurable(
      const std::string& name, std::unique_ptr<QueryBackend> inner,
      bool tiered) {
    storage::DurableOptions options;
    options.sync_wal = false;
    options.tiering.enabled = tiered;
    options.tiering.cache_budget_bytes = 1;  // every cold pin misses
    auto store = std::make_unique<storage::DurableStore>(
        storage::Env::Default(), root_ + "/" + name, std::move(inner),
        options);
    EXPECT_TRUE(store->Open().ok());
    EXPECT_TRUE(workloads::LoadIntoBackend(dataset_, store.get()).ok());
    return store;
  }

  // Every view of `live` (itself, its version, a DurableStore around a
  // twin and that store's version) answers bit for bit alike; returns the
  // live store's readings.
  Readings ExpectViewsAgree(QueryBackend* live,
                            std::unique_ptr<QueryBackend> durable_inner) {
    EXPECT_TRUE(workloads::LoadIntoBackend(dataset_, live).ok());
    const Readings want = Read(*live, dataset_);
    const auto version = live->BeginSnapshot();
    EXPECT_NE(version, nullptr);
    ExpectBitIdentical(want, Read(*version, dataset_),
                       live->name() + " version");
    auto durable = OpenDurable(live->name(), std::move(durable_inner), false);
    ExpectBitIdentical(want, Read(*durable, dataset_), durable->name());
    ExpectBitIdentical(want, Read(*durable->BeginSnapshot(), dataset_),
                       durable->name() + " version");
    return want;
  }

  std::string root_;
  workloads::BikeSharingDataset dataset_;
};

TEST_F(SeriesSlotParityTest, EveryViewOfAnEngineAgreesAndTheEnginesAgree) {
  storage::AllInGraphStore graph_store;
  const Readings graph_readings = ExpectViewsAgree(
      &graph_store, std::make_unique<storage::AllInGraphStore>());
  storage::PolyglotStore ram;
  const Readings ram_readings =
      ExpectViewsAgree(&ram, std::make_unique<storage::PolyglotStore>());
  ExpectClose(graph_readings, ram_readings, "all-in-graph vs polyglot");
}

TEST_F(SeriesSlotParityTest, TieredStoreReadsColdChunksBitForBit) {
  storage::PolyglotStore ram;
  ASSERT_TRUE(workloads::LoadIntoBackend(dataset_, &ram).ok());
  const Readings want = Read(ram, dataset_);

  auto tiered = OpenDurable(
      "tiered", std::make_unique<storage::PolyglotStore>(), /*tiered=*/true);
  ASSERT_TRUE(tiered->Checkpoint().ok());
  ASSERT_GT(tiered->inner()->series_hypertable()->stats().cold_chunks_spilled,
            0u);
  const uint64_t pins_before = tiered->Work().cold_chunks_loaded;
  ExpectBitIdentical(want, Read(*tiered, dataset_), "tiered");
  ExpectBitIdentical(want, Read(*tiered->BeginSnapshot(), dataset_),
                     "tiered version");
  EXPECT_GT(tiered->Work().cold_chunks_loaded, pins_before);
}

TEST_F(SeriesSlotParityTest, PolyglotEnumeratesEverySlotInOrder) {
  std::vector<SeriesSlot> want;
  for (uint64_t v = 0; v < dataset_.stations.size(); ++v) {
    want.push_back(SeriesSlot{true, v, "bikes"});
  }
  for (uint64_t e = 0; e < dataset_.trips.size(); ++e) {
    want.push_back(SeriesSlot{false, e, "trips"});
  }
  auto names = [](const std::vector<SeriesSlot>& slots) {
    std::vector<std::string> out;
    for (const SeriesSlot& s : slots) out.push_back(SlotText(s));
    return out;
  };
  storage::PolyglotStore ram;
  ASSERT_TRUE(workloads::LoadIntoBackend(dataset_, &ram).ok());
  EXPECT_EQ(names(ram.SeriesSlots()), names(want));
  EXPECT_EQ(names(ram.BeginSnapshot()->SeriesSlots()), names(want));
  auto tiered = OpenDurable(
      "tiered", std::make_unique<storage::PolyglotStore>(), /*tiered=*/true);
  ASSERT_TRUE(tiered->Checkpoint().ok());
  EXPECT_EQ(names(tiered->SeriesSlots()), names(want));
  EXPECT_EQ(names(tiered->BeginSnapshot()->SeriesSlots()), names(want));
}

}  // namespace
}  // namespace hygraph
