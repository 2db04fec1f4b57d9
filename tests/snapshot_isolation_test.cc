// Snapshot isolation: BeginSnapshot() pins an immutable read view that
// answers every const method with the pinned state, no matter what the
// live store does afterwards — concurrently or not. State identity is
// asserted through storage::BuildSnapshotText, the canonical full-state
// serialization (topology + every series), so "identical" means the whole
// logical store, not a sampled subset.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/time.h"
#include "query/backend.h"
#include "query/executor.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "ts/hypertable.h"
#include "workloads/bike_sharing.h"

namespace hygraph {
namespace {

using query::QueryBackend;
using storage::AllInGraphStore;
using storage::BuildSnapshotText;
using storage::PolyglotStore;
using ts::AggKind;

// Small but non-trivial dataset: 8 stations, 2 districts, 1 day of
// 30-minute samples, deterministic seed.
workloads::BikeSharingDataset Dataset() {
  workloads::BikeSharingConfig config;
  config.stations = 8;
  config.districts = 2;
  config.days = 1;
  config.sample_interval = 30 * kMinute;
  config.trips_per_station = 2;
  config.seed = 7;
  auto dataset = workloads::GenerateBikeSharing(config);
  EXPECT_TRUE(dataset.ok());
  return *dataset;
}

std::string Signature(const QueryBackend& backend) {
  auto text = BuildSnapshotText(backend);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.value_or("<error>");
}

// Appends fresh samples and a fresh vertex to the live store — enough
// mutation to change every layer a snapshot could leak from.
void MutateLive(QueryBackend* live, graph::VertexId station,
                Timestamp from) {
  ASSERT_TRUE(live->MutateTopology([](graph::PropertyGraph* g) {
                    g->AddVertex({"Depot"}, {});
                    return Status::OK();
                  })
                  .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(live->AppendSample({true, station, "bikes"},
                                   from + static_cast<Timestamp>(i) * 60,
                                   static_cast<double>(i))
                    .ok());
  }
}

// The shared scenario, run against either architecture: pin, mutate,
// assert the pinned view never moves while the live store does.
void RunPinnedViewStaysFrozen(QueryBackend* live) {
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, live);
  ASSERT_TRUE(stations.ok()) << stations.status().ToString();

  std::shared_ptr<const QueryBackend> snapshot = live->BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const std::string pinned = Signature(*snapshot);
  ASSERT_EQ(Signature(*live), pinned);  // freshly pinned: views agree

  MutateLive(live, stations->front(), dataset.end());

  EXPECT_EQ(Signature(*snapshot), pinned) << "snapshot drifted";
  EXPECT_NE(Signature(*live), pinned) << "live store failed to move";

  // A second snapshot picks up the new state; the first stays pinned.
  std::shared_ptr<const QueryBackend> later = live->BeginSnapshot();
  ASSERT_NE(later, nullptr);
  EXPECT_EQ(Signature(*later), Signature(*live));
  EXPECT_EQ(Signature(*snapshot), pinned);
}

TEST(SnapshotIsolationTest, AllInGraphPinnedViewStaysFrozen) {
  AllInGraphStore store;
  RunPinnedViewStaysFrozen(&store);
}

TEST(SnapshotIsolationTest, PolyglotPinnedViewStaysFrozen) {
  PolyglotStore store;
  RunPinnedViewStaysFrozen(&store);
}

// The same property while the mutation runs CONCURRENTLY with snapshot
// reads — the case copy-on-write exists for.
void RunPinnedViewFrozenUnderConcurrentMutation(QueryBackend* live) {
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, live);
  ASSERT_TRUE(stations.ok());

  std::shared_ptr<const QueryBackend> snapshot = live->BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const std::string pinned = Signature(*snapshot);
  const graph::VertexId station = stations->front();

  // Bounded mutation stream (a free-running mutator on the single-core
  // reference machine would grow the live graph without limit while the
  // signature loop runs, making the final live signature arbitrarily
  // expensive).
  constexpr int kMutations = 200;
  std::thread mutator([&] {
    Timestamp t = dataset.end();
    for (int i = 0; i < kMutations; ++i) {
      ASSERT_TRUE(live->MutateTopology([](graph::PropertyGraph* g) {
                        g->AddVertex({"Depot"}, {});
                        return Status::OK();
                      })
                      .ok());
      ASSERT_TRUE(
          live->AppendSample({true, station, "bikes"}, t, 1.0).ok());
      t += 60;
    }
  });

  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(Signature(*snapshot), pinned)
        << "snapshot drifted at iteration " << i;
  }
  mutator.join();

  EXPECT_EQ(Signature(*snapshot), pinned);
  EXPECT_NE(Signature(*live), pinned);
}

TEST(SnapshotIsolationTest, AllInGraphFrozenUnderConcurrentMutation) {
  AllInGraphStore store;
  RunPinnedViewFrozenUnderConcurrentMutation(&store);
}

TEST(SnapshotIsolationTest, PolyglotFrozenUnderConcurrentMutation) {
  PolyglotStore store;
  RunPinnedViewFrozenUnderConcurrentMutation(&store);
}

// DurableStore forwards BeginSnapshot to the wrapped backend; the pinned
// view must ignore logged mutations too.
TEST(SnapshotIsolationTest, DurableForwardsPinnedView) {
  char tmpl[] = "/tmp/hygraph_snapshot_isolation_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  storage::DurableStore store(storage::Env::Default(), root + "/store",
                              std::make_unique<PolyglotStore>());
  ASSERT_TRUE(store.Open().ok());

  auto v = store.AddVertex({"Station"}, {{"name", Value("S0")}});
  ASSERT_TRUE(v.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .AppendSample({true, *v, "bikes"},
                                  static_cast<Timestamp>(i) * 60,
                                  static_cast<double>(i))
                    .ok());
  }

  std::shared_ptr<const QueryBackend> snapshot = store.BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const std::string pinned = Signature(*snapshot);

  ASSERT_TRUE(store.AppendSample({true, *v, "bikes"}, 6000, 99.0).ok());
  auto v2 = store.AddVertex({"Station"}, {{"name", Value("S1")}});
  ASSERT_TRUE(v2.ok());

  EXPECT_EQ(Signature(*snapshot), pinned);
  EXPECT_NE(Signature(store), pinned);
  std::system(("rm -rf " + root).c_str());
}

// Snapshots are read-only: their mutators fail FailedPrecondition and
// mutable_topology() yields nullptr (so even the default MutateTopology
// fails instead of handing out mutable state).
void RunSnapshotIsReadOnly(QueryBackend* live) {
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, live);
  ASSERT_TRUE(stations.ok());

  std::shared_ptr<const QueryBackend> snapshot = live->BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  // The interface exposes snapshots as const; casting away constness is
  // exactly what a buggy caller could do, so the runtime guard must hold.
  auto* writable = const_cast<QueryBackend*>(snapshot.get());

  Status append = writable->AppendSample({true, stations->front(), "bikes"},
                                         dataset.end(), 1.0);
  EXPECT_EQ(append.code(), StatusCode::kFailedPrecondition)
      << append.ToString();
  Status edge_append = writable->AppendSample({false, 0, "trips"}, 0, 1.0);
  EXPECT_EQ(edge_append.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writable->mutable_topology(), nullptr);
  Status mutate = writable->MutateTopology([](graph::PropertyGraph*) {
    ADD_FAILURE() << "MutateTopology ran on a snapshot";
    return Status::OK();
  });
  EXPECT_EQ(mutate.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotIsolationTest, AllInGraphSnapshotIsReadOnly) {
  AllInGraphStore store;
  RunSnapshotIsReadOnly(&store);
}

TEST(SnapshotIsolationTest, PolyglotSnapshotIsReadOnly) {
  PolyglotStore store;
  RunSnapshotIsReadOnly(&store);
}

// HGQL statements on the live store pin their own snapshot per execution:
// results computed mid-mutation are internally consistent, and executing
// against an explicitly pinned snapshot returns pre-mutation results.
TEST(SnapshotIsolationTest, ExecuteAgainstPinnedSnapshot) {
  PolyglotStore store;
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, &store);
  ASSERT_TRUE(stations.ok());

  const std::string q =
      "MATCH (s:Station) RETURN s.name AS n, "
      "ts_count(s.bikes, 0, 99999999999999) AS c ORDER BY n";
  std::shared_ptr<const QueryBackend> snapshot = store.BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  auto before = query::Execute(*snapshot, q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  MutateLive(&store, stations->front(), dataset.end());

  auto pinned_after = query::Execute(*snapshot, q);
  ASSERT_TRUE(pinned_after.ok());
  EXPECT_EQ(pinned_after->ToString(100), before->ToString(100));

  auto live_after = query::Execute(store, q);
  ASSERT_TRUE(live_after.ok());
  EXPECT_NE(live_after->ToString(100), before->ToString(100));
}

// The hypertable's Fork() is the snapshot primitive underneath Polyglot
// snapshots: forked reads (scan + native aggregates) stay at the forked
// state across Insert and Retain on the origin.
TEST(SnapshotIsolationTest, HypertableForkIsolation) {
  ts::HypertableOptions options;
  options.chunk_duration = 100;
  ts::HypertableStore store(options);
  const SeriesId id = store.Create("forked");
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(
        store.Insert(id, static_cast<Timestamp>(i) * 10, std::sqrt(1.0 + i))
            .ok());
  }

  std::shared_ptr<const ts::HypertableStore> fork = store.Fork();
  auto base_scan = fork->Scan(id, Interval{});
  ASSERT_TRUE(base_scan.ok());
  auto base_sum = fork->Aggregate(id, Interval{}, AggKind::kSum);
  ASSERT_TRUE(base_sum.ok());
  auto base_windows = fork->WindowAggregate(id, Interval{0, 2500}, 500,
                                            AggKind::kAvg);
  ASSERT_TRUE(base_windows.ok());

  // Mutate the origin every way a series can change.
  for (int i = 250; i < 400; ++i) {
    ASSERT_TRUE(
        store.Insert(id, static_cast<Timestamp>(i) * 10, 0.5).ok());
  }
  ASSERT_TRUE(store.Insert(id, 55, -1.0).ok());  // out-of-order unseal
  ASSERT_TRUE(store.Retain(id, Interval{1000, kMaxTimestamp}).ok());

  auto fork_scan = fork->Scan(id, Interval{});
  ASSERT_TRUE(fork_scan.ok());
  EXPECT_EQ(*fork_scan, *base_scan);
  auto fork_sum = fork->Aggregate(id, Interval{}, AggKind::kSum);
  ASSERT_TRUE(fork_sum.ok());
  EXPECT_EQ(*fork_sum, *base_sum);
  auto fork_windows = fork->WindowAggregate(id, Interval{0, 2500}, 500,
                                            AggKind::kAvg);
  ASSERT_TRUE(fork_windows.ok());
  EXPECT_EQ(fork_windows->samples(), base_windows->samples());

  // And the origin really changed.
  auto origin_scan = store.Scan(id, Interval{});
  ASSERT_TRUE(origin_scan.ok());
  EXPECT_NE(*origin_scan, *base_scan);
}

// Without compression every chunk stays hot. A Retain that drops the
// newest chunk makes an older hot chunk the newest, so in-order appends
// start landing in it: the version that saw it as an older chunk (all of
// its samples visible) must not see them.
TEST(SnapshotIsolationTest, HypertableForkIsolationWithoutCompression) {
  ts::HypertableOptions options;
  options.chunk_duration = 100;
  options.compress_sealed_chunks = false;
  ts::HypertableStore store(options);
  const SeriesId id = store.Create("hot");
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(store.Insert(id, static_cast<Timestamp>(i) * 10, i).ok());
  }
  std::shared_ptr<const ts::HypertableStore> fork = store.Fork();
  auto base_scan = fork->Scan(id, Interval{});
  ASSERT_TRUE(base_scan.ok());
  auto base_sum = fork->Aggregate(id, Interval{}, AggKind::kSum);
  ASSERT_TRUE(base_sum.ok());

  ASSERT_TRUE(store.Retain(id, Interval{0, 100}).ok());
  ASSERT_TRUE(store.Insert(id, 95, 42.0).ok());  // in order: newest chunk
  ASSERT_TRUE(store.Insert(id, 5, 7.0).ok());    // out of order, same chunk

  auto fork_scan = fork->Scan(id, Interval{});
  ASSERT_TRUE(fork_scan.ok());
  EXPECT_EQ(*fork_scan, *base_scan);
  auto fork_sum = fork->Aggregate(id, Interval{}, AggKind::kSum);
  ASSERT_TRUE(fork_sum.ok());
  EXPECT_EQ(*fork_sum, *base_sum);
  auto origin_count = store.SampleCount(id);
  ASSERT_TRUE(origin_count.ok());
  EXPECT_EQ(*origin_count, 12u);
}

// ---------------------------------------------------------------------------
// What a snapshot costs, counted instead of timed: BeginSnapshot() hands
// out the published version while nothing was written, and a republish
// takes locks in proportion to the series written since, never to the
// series stored.
// ---------------------------------------------------------------------------

// A polyglot store with `n` single-sample series, one per vertex.
std::unique_ptr<PolyglotStore> StoreWithSeries(
    size_t n, std::vector<graph::VertexId>* sensors) {
  auto store = std::make_unique<PolyglotStore>();
  EXPECT_TRUE(store
                  ->MutateTopology([&](graph::PropertyGraph* g) {
                    for (size_t i = 0; i < n; ++i) {
                      sensors->push_back(g->AddVertex({"Sensor"}, {}));
                    }
                    return Status::OK();
                  })
                  .ok());
  for (graph::VertexId v : *sensors) {
    EXPECT_TRUE(store->AppendSample({true, v, "temp"}, 0, 1.0).ok());
  }
  return store;
}

// Lock acquisitions (shared + exclusive) one BeginSnapshot() makes; every
// lock of the store reports into its registry.
uint64_t SnapshotLocks(const PolyglotStore& store) {
  obs::Counter* shared = store.metrics()->counter("concurrency.lock_shared");
  obs::Counter* exclusive =
      store.metrics()->counter("concurrency.lock_exclusive");
  const uint64_t before = shared->value() + exclusive->value();
  std::shared_ptr<const QueryBackend> snapshot = store.BeginSnapshot();
  EXPECT_NE(snapshot, nullptr);
  return shared->value() + exclusive->value() - before;
}

// Publishes everything, appends one in-order sample to each of the first
// `k` series, and counts the locks of the republishing BeginSnapshot().
uint64_t LocksAfterWrites(PolyglotStore* store,
                          const std::vector<graph::VertexId>& sensors,
                          size_t k, Timestamp t) {
  EXPECT_NE(store->BeginSnapshot(), nullptr);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(store->AppendSample({true, sensors[i], "temp"}, t, 2.0).ok());
  }
  return SnapshotLocks(*store);
}

TEST(SnapshotCostTest, UnchangedStoreSnapshotLocksDoNotGrowWithSeries) {
  std::vector<graph::VertexId> small_sensors;
  std::vector<graph::VertexId> large_sensors;
  auto small = StoreWithSeries(750, &small_sensors);
  auto large = StoreWithSeries(30000, &large_sensors);
  // The first pin publishes; the next ones find nothing written.
  ASSERT_NE(small->BeginSnapshot(), nullptr);
  ASSERT_NE(large->BeginSnapshot(), nullptr);
  const uint64_t small_locks = SnapshotLocks(*small);
  EXPECT_EQ(SnapshotLocks(*large), small_locks);
  EXPECT_EQ(SnapshotLocks(*small), small_locks);
  // The same version object while nothing changes.
  EXPECT_EQ(large->BeginSnapshot(), large->BeginSnapshot());
}

TEST(SnapshotCostTest, RepublishLocksFollowSeriesWritten) {
  std::vector<graph::VertexId> small_sensors;
  std::vector<graph::VertexId> large_sensors;
  auto small = StoreWithSeries(750, &small_sensors);
  auto large = StoreWithSeries(30000, &large_sensors);
  const uint64_t small_10 =
      LocksAfterWrites(small.get(), small_sensors, 10, 60);
  const uint64_t large_10 =
      LocksAfterWrites(large.get(), large_sensors, 10, 60);
  const uint64_t large_40 =
      LocksAfterWrites(large.get(), large_sensors, 40, 120);
  EXPECT_EQ(large_10, small_10);
  EXPECT_GT(large_40, large_10);
  EXPECT_LT(large_40, small_sensors.size());
}

// An in-order append inside the newest chunk copies nothing while a
// snapshot holds the series, and the snapshot keeps its exact state; one
// out-of-order append copies the series' chunk list exactly once.
TEST(SnapshotCostTest, InOrderAppendsCopyNothingWhileSnapshotLive) {
  ts::HypertableOptions options;
  options.chunk_duration = 1000;
  PolyglotStore store(options);
  graph::VertexId sensor = 0;
  ASSERT_TRUE(store
                  .MutateTopology([&](graph::PropertyGraph* g) {
                    sensor = g->AddVertex({"Sensor"}, {});
                    return Status::OK();
                  })
                  .ok());
  // Chunks [0, 1000) and [1000, 2000) sealed, [2000, 3000) hot.
  for (Timestamp t = 0; t < 2500; t += 10) {
    ASSERT_TRUE(store.AppendSample({true, sensor, "temp"}, t, t * 0.5).ok());
  }
  std::shared_ptr<const QueryBackend> snapshot = store.BeginSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const std::string pinned = Signature(*snapshot);
  obs::Counter* cow =
      store.metrics()->counter("concurrency.series_cow_copies");
  const uint64_t cow_before = cow->value();

  for (Timestamp t = 2500; t < 3000; t += 10) {
    ASSERT_TRUE(store.AppendSample({true, sensor, "temp"}, t, t * 0.5).ok());
  }
  EXPECT_EQ(cow->value(), cow_before);
  EXPECT_EQ(Signature(*snapshot), pinned);

  ASSERT_TRUE(store.AppendSample({true, sensor, "temp"}, 2005, -1.0).ok());
  EXPECT_EQ(cow->value(), cow_before + 1);
  EXPECT_EQ(Signature(*snapshot), pinned);
  EXPECT_NE(Signature(store), pinned);
}


// A version is the store bound to what it pins: it shares the origin's
// registry and instruments and builds none of its own, whatever was
// written before the pin.
void RunVersionsAddNoInstruments(QueryBackend* live) {
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, live);
  ASSERT_TRUE(stations.ok());
  ASSERT_NE(live->BeginSnapshot(), nullptr);
  auto instruments = [&] {
    const obs::MetricsSnapshot m = live->metrics()->Snapshot();
    return m.counters.size() + m.gauges.size() + m.histograms.size();
  };
  const size_t before = instruments();
  for (int i = 0; i < 1000; ++i) {
    const query::SeriesSlot slot{true, stations->at(i % stations->size()),
                                 "bikes"};
    ASSERT_TRUE(live->AppendSample(slot, dataset.end() + i, 1.0).ok());
    std::shared_ptr<const QueryBackend> version = live->BeginSnapshot();
    ASSERT_NE(version, nullptr);
    ASSERT_EQ(version->metrics(), live->metrics());
  }
  EXPECT_EQ(instruments(), before);
}

TEST(SnapshotCostTest, AllInGraphVersionsAddNoInstruments) {
  AllInGraphStore store;
  RunVersionsAddNoInstruments(&store);
}

TEST(SnapshotCostTest, PolyglotVersionsAddNoInstruments) {
  PolyglotStore store;
  RunVersionsAddNoInstruments(&store);
}

// Lock acquisitions (shared + exclusive) `read` takes on `registry`.
template <typename Fn>
uint64_t LocksOf(obs::MetricsRegistry* registry, Fn&& read) {
  obs::Counter* shared = registry->counter("concurrency.lock_shared");
  obs::Counter* exclusive = registry->counter("concurrency.lock_exclusive");
  const uint64_t before = shared->value() + exclusive->value();
  read();
  return shared->value() + exclusive->value() - before;
}

// The lock acquisitions of one read of each kind through a pinned version,
// in the order range, aggregate, batch aggregate, window, count,
// correlate, and an HGQL statement.
std::vector<uint64_t> VersionReadLocks(QueryBackend* live) {
  const auto dataset = Dataset();
  auto stations = workloads::LoadIntoBackend(dataset, live);
  EXPECT_TRUE(stations.ok());
  std::shared_ptr<const QueryBackend> version = live->BeginSnapshot();
  EXPECT_NE(version, nullptr);
  const query::SeriesSlot slot{true, stations->front(), "bikes"};
  std::vector<query::SeriesSlot> slots;
  for (graph::VertexId v : *stations) slots.push_back({true, v, "bikes"});
  const Interval all = Interval::All();
  const ts::Series anchor = dataset.stations[1].bikes;
  obs::MetricsRegistry* registry = live->metrics();
  return {
      LocksOf(registry,
              [&] { EXPECT_TRUE(version->SeriesRange(slot, all).ok()); }),
      LocksOf(registry,
              [&] {
                EXPECT_TRUE(
                    version->SeriesAggregate(slot, all, AggKind::kSum).ok());
              }),
      LocksOf(registry,
              [&] {
                EXPECT_EQ(
                    version->SeriesAggregateBatch(slots, all, AggKind::kAvg)
                        .size(),
                    slots.size());
              }),
      LocksOf(registry,
              [&] {
                EXPECT_TRUE(version
                                ->SeriesWindowAggregate(slot, all, 6 * kHour,
                                                        AggKind::kMax)
                                .ok());
              }),
      LocksOf(registry,
              [&] {
                EXPECT_TRUE(
                    version->SeriesCountInRange(slot, all, 0, 20).ok());
              }),
      LocksOf(registry,
              [&] {
                EXPECT_TRUE(
                    version->CorrelateSeriesRange(slot, all, anchor).ok());
              }),
      LocksOf(registry,
              [&] {
                EXPECT_TRUE(query::Execute(*version,
                                           "MATCH (s:Station) RETURN s.name, "
                                           "ts_avg(s.bikes, 0, 99999999999999)")
                                .ok());
              }),
  };
}

TEST(SnapshotCostTest, AllInGraphVersionReadsTakeNoLock) {
  AllInGraphStore store;
  EXPECT_EQ(VersionReadLocks(&store),
            (std::vector<uint64_t>{0, 0, 0, 0, 0, 0, 0}));
}

// One shard lock per series read (to copy the visible prefix of its hot
// chunk, the dataset's only chunk); the store guard is never taken.
TEST(SnapshotCostTest, PolyglotVersionReadsTakeOnlyShardLocks) {
  PolyglotStore store;
  EXPECT_EQ(VersionReadLocks(&store),
            (std::vector<uint64_t>{1, 1, 8, 1, 1, 1, 8}));
}

}  // namespace
}  // namespace hygraph
