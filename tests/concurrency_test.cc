// Concurrency stress tests for the locking layer (DESIGN.md §10).
//
// Two styles of case:
//
//   * Barrier-phased schedules: writer(s) and readers advance in lockstep
//     rounds (std::barrier). Between barriers the store is quiescent, so
//     every reader asserts the EXACT expected state — 128 rounds per case
//     means 128 distinct interleavings of the in-round racing section.
//   * Free-running stress: threads race without coordination and readers
//     check invariants that must hold under ANY interleaving — timestamps
//     sorted, counts monotone, and every value equal to a deterministic
//     function of its timestamp (a torn or half-published sample would
//     break that equality).
//
// All cases are deterministic in their data (hygraph::Rng seeds, pure
// value function); only the thread schedule varies. ThreadSanitizer
// (scripts/tier1.sh pass 4, HYGRAPH_SANITIZE=thread) watches every
// interleaving these drive.

#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/time.h"
#include "query/executor.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "ts/hypertable.h"

namespace hygraph {
namespace {

using query::Execute;
using storage::AllInGraphStore;
using storage::DurableStore;
using storage::PolyglotStore;
using ts::HypertableOptions;
using ts::HypertableStore;
using ts::Sample;

// Pure value function: a reader that observes timestamp t with any other
// value has seen a torn write.
double ExpectedValue(Timestamp t) {
  return std::sin(static_cast<double>(t) * 1e-3) * 100.0 +
         static_cast<double>(t % 97);
}

// Asserts the scan result is sorted, duplicate-free, and untorn.
void CheckSamples(const std::vector<Sample>& samples) {
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(samples[i - 1].t, samples[i].t);
    }
    ASSERT_EQ(samples[i].value, ExpectedValue(samples[i].t))
        << "torn sample at t=" << samples[i].t;
  }
}

// ---------------------------------------------------------------------------
// Hypertable: barrier-phased single writer vs. readers, with seal/unseal
// churn (tiny chunks + out-of-order writes inside every round).
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, HypertablePhasedWriterReadersSealUnseal) {
  HypertableOptions options;
  options.chunk_duration = 100;  // 10 samples per chunk at step=10
  HypertableStore store(options);
  const SeriesId id = store.Create("phased");

  constexpr int kRounds = 128;
  constexpr int kPerRound = 16;
  constexpr Timestamp kStep = 10;
  constexpr int kReaders = 3;

  std::barrier sync(kReaders + 1);
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();  // round open: race with readers below
      const Timestamp base = static_cast<Timestamp>(round) * kPerRound * kStep;
      // Evens first, then odds: the odd pass lands behind the newest chunk,
      // forcing unseal/merge/reseal of chunks sealed moments earlier.
      for (int pass = 0; pass < 2; ++pass) {
        for (int i = pass; i < kPerRound; i += 2) {
          const Timestamp t = base + static_cast<Timestamp>(i) * kStep;
          if (!store.Insert(id, t, ExpectedValue(t)).ok()) {
            failures.fetch_add(1);
          }
        }
      }
      sync.arrive_and_wait();  // round closed: store quiescent
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        sync.arrive_and_wait();
        // Racing section: writer is inserting round `round` right now.
        // Invariant checks only — sortedness and untorn values.
        auto racing = store.Scan(id, Interval{});
        ASSERT_TRUE(racing.ok()) << racing.status().ToString();
        CheckSamples(*racing);
        sync.arrive_and_wait();
        // Quiescent section: exact count, exact contents.
        auto settled = store.Scan(id, Interval{});
        ASSERT_TRUE(settled.ok()) << settled.status().ToString();
        ASSERT_EQ(settled->size(),
                  static_cast<size_t>((round + 1) * kPerRound));
        CheckSamples(*settled);
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = store.stats();
  EXPECT_GT(stats.chunks_sealed, 0u);
  EXPECT_GT(stats.chunks_unsealed, 0u);  // the odd passes really unsealed
}

// ---------------------------------------------------------------------------
// Hypertable: one writer per series (shard locks), free-running reader.
// Ingest into one series must never block or corrupt scans of another.
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, HypertableShardedWritersIndependentSeries) {
  HypertableOptions options;
  options.chunk_duration = 200;
  HypertableStore store(options);

  constexpr int kWriters = 4;
  constexpr int kSamples = 1500;
  constexpr Timestamp kStep = 7;

  std::vector<SeriesId> ids;
  ids.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    ids.push_back(store.Create("shard-" + std::to_string(w)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kSamples; ++i) {
        const Timestamp t = static_cast<Timestamp>(i) * kStep;
        if (!store.Insert(ids[w], t, ExpectedValue(t)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }

  std::thread reader([&] {
    std::vector<size_t> last_count(kWriters, 0);
    while (!stop.load(std::memory_order_acquire)) {
      for (int w = 0; w < kWriters; ++w) {
        auto samples = store.Scan(ids[w], Interval{});
        ASSERT_TRUE(samples.ok()) << samples.status().ToString();
        CheckSamples(*samples);
        // In-order single-writer ingest: counts are monotone per series.
        ASSERT_GE(samples->size(), last_count[w]);
        last_count[w] = samples->size();
      }
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  for (int w = 0; w < kWriters; ++w) {
    auto count = store.SampleCount(ids[w]);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, static_cast<size_t>(kSamples));
  }
}

// ---------------------------------------------------------------------------
// Hypertable: Retain (staleness eviction) racing scans, barrier-phased so
// every round also asserts the exact post-eviction contents.
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, HypertableRetainVersusScanPhased) {
  HypertableOptions options;
  options.chunk_duration = 100;
  HypertableStore store(options);
  const SeriesId id = store.Create("retained");

  constexpr int kRounds = 128;
  constexpr int kPerRound = 12;
  constexpr Timestamp kStep = 10;

  std::barrier sync(3);  // writer + retainer + reader
  std::atomic<Timestamp> cutoff{0};

  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();
      for (int i = 0; i < kPerRound; ++i) {
        const Timestamp t =
            (static_cast<Timestamp>(round) * kPerRound + i) * kStep;
        ASSERT_TRUE(store.Insert(id, t, ExpectedValue(t)).ok());
      }
      sync.arrive_and_wait();
    }
  });

  std::thread retainer([&] {
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();
      // Keep roughly the newest half of what existed at round start; races
      // with the writer's inserts for this round.
      const Timestamp keep_from =
          (static_cast<Timestamp>(round) * kPerRound / 2) * kStep;
      auto dropped = store.Retain(id, Interval{keep_from, kMaxTimestamp});
      ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
      cutoff.store(keep_from, std::memory_order_release);
      sync.arrive_and_wait();
    }
  });

  std::thread reader([&] {
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();
      // Racing section: only schedule-independent invariants.
      auto racing = store.Scan(id, Interval{});
      ASSERT_TRUE(racing.ok());
      CheckSamples(*racing);
      sync.arrive_and_wait();
      // Quiescent: exactly the samples in [cutoff, next_t) survive.
      const Timestamp keep_from = cutoff.load(std::memory_order_acquire);
      const Timestamp written_end =
          static_cast<Timestamp>(round + 1) * kPerRound * kStep;
      auto settled = store.Scan(id, Interval{});
      ASSERT_TRUE(settled.ok());
      CheckSamples(*settled);
      size_t expected = 0;
      for (Timestamp t = 0; t < written_end; t += kStep) {
        if (t >= keep_from) ++expected;
      }
      ASSERT_EQ(settled->size(), expected);
      if (!settled->empty()) {
        ASSERT_GE(settled->front().t, keep_from);
      }
    }
  });

  writer.join();
  retainer.join();
  reader.join();
}

// ---------------------------------------------------------------------------
// Hypertable: Fork() taken mid-stress stays frozen while the origin churns
// (inserts, retains) — and the origin's writers copy what it holds.
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, HypertableForkFrozenDuringStress) {
  HypertableOptions options;
  options.chunk_duration = 100;
  HypertableStore store(options);
  const SeriesId id = store.Create("forked");

  constexpr int kInitial = 300;
  constexpr Timestamp kStep = 10;
  for (int i = 0; i < kInitial; ++i) {
    const Timestamp t = static_cast<Timestamp>(i) * kStep;
    ASSERT_TRUE(store.Insert(id, t, ExpectedValue(t)).ok());
  }

  std::shared_ptr<const HypertableStore> fork = store.Fork();
  auto baseline = fork->Scan(id, Interval{});
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->size(), static_cast<size_t>(kInitial));

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    Timestamp t = static_cast<Timestamp>(kInitial) * kStep;
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(store.Insert(id, t, ExpectedValue(t)).ok());
      t += kStep;
      if (++i % 64 == 0) {
        ASSERT_TRUE(store.Retain(id, Interval{t / 2, kMaxTimestamp}).ok());
      }
    }
  });

  for (int i = 0; i < 200; ++i) {
    auto frozen = fork->Scan(id, Interval{});
    ASSERT_TRUE(frozen.ok());
    ASSERT_EQ(*frozen, *baseline) << "fork drifted at iteration " << i;
  }
  stop.store(true, std::memory_order_release);
  mutator.join();

  // The first origin write after the fork that is not an in-order append
  // copies the series' chunk list. On the single-core reference machine
  // the mutator may not have been scheduled at all, so force one
  // deterministic out-of-order write while the fork is still pinned (its
  // expected value: invisible to every other assertion).
  ASSERT_TRUE(store.Insert(id, 1, ExpectedValue(1)).ok());
  const uint64_t cow =
      store.metrics()->counter("concurrency.series_cow_copies")->value();
  EXPECT_GT(cow, 0u);
  EXPECT_GT(store.metrics()->counter("concurrency.snapshot_pins")->value(),
            0u);
}

// ---------------------------------------------------------------------------
// PolyglotStore: concurrent sample ingest + whole HGQL statements. Every
// Execute pins a BeginSnapshot() view, so statements see a consistent
// (graph, maps, hypertable) triple no matter what the writers do.
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, PolyglotConcurrentAppendAndQuery) {
  ts::HypertableOptions ts_options;
  ts_options.chunk_duration = 500;
  PolyglotStore store(ts_options);

  constexpr int kStations = 6;
  std::vector<graph::VertexId> vertices;
  ASSERT_TRUE(store
                  .MutateTopology([&](graph::PropertyGraph* g) {
                    for (int i = 0; i < kStations; ++i) {
                      vertices.push_back(g->AddVertex(
                          {"Station"},
                          {{"name", Value("S" + std::to_string(i))}}));
                    }
                    return Status::OK();
                  })
                  .ok());

  constexpr int kWriters = 2;
  constexpr int kSamplesPerWriter = 600;
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Each writer owns a disjoint set of stations (no same-series races;
      // the per-series shard locks are exercised by the hypertable cases).
      for (int i = 0; i < kSamplesPerWriter; ++i) {
        const auto v = vertices[static_cast<size_t>(
            (w * kStations / kWriters) + i % (kStations / kWriters))];
        const Timestamp t = static_cast<Timestamp>(i) * 11;
        if (!store.AppendSample({true, v, "bikes"}, t, ExpectedValue(t)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }

  std::thread querier([&] {
    for (int i = 0; i < 120; ++i) {
      auto result = Execute(
          store,
          "MATCH (s:Station) RETURN s.name, ts_count(s.bikes, 0, 100000)");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->row_count(), static_cast<size_t>(kStations));
    }
  });

  for (auto& t : writers) t.join();
  querier.join();
  EXPECT_EQ(failures.load(), 0);

  // Every appended sample landed exactly once.
  for (int i = 0; i < kStations; ++i) {
    auto series = store.SeriesRange(
        {true, vertices[static_cast<size_t>(i)], "bikes"}, Interval{});
    ASSERT_TRUE(series.ok());
    for (const Sample& s : series->samples()) {
      ASSERT_EQ(s.value, ExpectedValue(s.t));
    }
  }
}

// ---------------------------------------------------------------------------
// AllInGraphStore: topology mutation through MutateTopology racing pinned
// snapshots and live statements. Snapshots must stay bit-frozen while the
// live store grows (copy-on-write detach).
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, AllInGraphMutateTopologyVersusSnapshots) {
  AllInGraphStore store;
  ASSERT_TRUE(store
                  .MutateTopology([](graph::PropertyGraph* g) {
                    for (int i = 0; i < 4; ++i) {
                      g->AddVertex({"Station"},
                                   {{"name", Value("S" + std::to_string(i))}});
                    }
                    return Status::OK();
                  })
                  .ok());
  const graph::VertexId v0 = store.topology().VertexIds().front();
  for (int i = 0; i < 50; ++i) {
    const Timestamp t = static_cast<Timestamp>(i) * 10;
    ASSERT_TRUE(
        store.AppendSample({true, v0, "bikes"}, t, ExpectedValue(t)).ok());
  }

  // Bounded mutation stream (a free-running mutator on the single-core
  // reference machine would grow the graph — and the cost of every
  // copy-on-write detach — without limit while the reader loop runs).
  constexpr int kMutations = 150;
  std::thread mutator([&] {
    for (int i = 0; i < kMutations; ++i) {
      ASSERT_TRUE(store
                      .MutateTopology([&](graph::PropertyGraph* g) {
                        g->AddVertex({"Extra"}, {});
                        return Status::OK();
                      })
                      .ok());
      const Timestamp t = static_cast<Timestamp>(500 + i) * 10;
      ASSERT_TRUE(
          store.AppendSample({true, v0, "bikes"}, t, ExpectedValue(t)).ok());
    }
  });

  for (int i = 0; i < 60; ++i) {
    auto snapshot = store.BeginSnapshot();
    ASSERT_NE(snapshot, nullptr);
    const size_t vertices = snapshot->topology().VertexCount();
    auto series = snapshot->SeriesRange({true, v0, "bikes"}, Interval{});
    ASSERT_TRUE(series.ok());
    const size_t samples = series->size();
    // Re-reads of the same pinned view observe the identical state even
    // though the live store keeps growing underneath.
    ASSERT_EQ(snapshot->topology().VertexCount(), vertices);
    auto again = snapshot->SeriesRange({true, v0, "bikes"}, Interval{});
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->size(), samples);
    // Live statements stay well-formed throughout.
    auto result = Execute(store, "MATCH (s:Station) RETURN s.name");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->row_count(), 4u);
  }
  mutator.join();

  // Deterministic copy-on-write check (the racing loop above may not have
  // overlapped a pin with a mutation on the single-core machine): mutating
  // while a snapshot pins the graph MUST detach onto a fresh copy.
  std::shared_ptr<const query::QueryBackend> pin = store.BeginSnapshot();
  ASSERT_NE(pin, nullptr);
  ASSERT_TRUE(store
                  .MutateTopology([](graph::PropertyGraph* g) {
                    g->AddVertex({"Extra"}, {});
                    return Status::OK();
                  })
                  .ok());
  EXPECT_GT(
      store.metrics()->counter("concurrency.topology_cow_copies")->value(),
      0u);
}

// ---------------------------------------------------------------------------
// DurableStore: concurrent logged writers serialize on the append mutex —
// the WAL stays gap-free and replayable, proven by reopening the directory.
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, DurableConcurrentWritersThenReopen) {
  char tmpl[] = "/tmp/hygraph_concurrency_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  const std::string dir = root + "/store";
  storage::Env* env = storage::Env::Default();

  constexpr int kWriters = 3;
  constexpr int kPerWriter = 120;

  {
    storage::DurableOptions options;
    options.sync_wal = false;  // group commit; SyncWal below makes all durable
    DurableStore store(env, dir, std::make_unique<PolyglotStore>(), options);
    ASSERT_TRUE(store.Open().ok());

    std::vector<graph::VertexId> vertices;
    for (int w = 0; w < kWriters; ++w) {
      auto v = store.AddVertex({"Writer"}, {{"idx", Value(int64_t{w})}});
      ASSERT_TRUE(v.ok());
      vertices.push_back(*v);
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          const Timestamp t = static_cast<Timestamp>(i) * 13;
          if (!store
                   .AppendSample(
                       {true, vertices[static_cast<size_t>(w)], "load"}, t,
                       ExpectedValue(t))
                   .ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    ASSERT_EQ(failures.load(), 0);
    ASSERT_TRUE(store.SyncWal().ok());
    // Every record got a distinct, gap-free sequence number.
    EXPECT_EQ(store.next_seq(),
              1u + kWriters /*AddVertex*/ + kWriters * kPerWriter);
  }

  // Reopen: WAL replay rebuilds every sample from the serialized log.
  DurableStore reopened(env, dir, std::make_unique<PolyglotStore>());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.recovery().wal_records_salvaged,
            static_cast<size_t>(kWriters + kWriters * kPerWriter));
  EXPECT_EQ(reopened.topology().VertexCount(), static_cast<size_t>(kWriters));
  for (graph::VertexId v : reopened.topology().VertexIds()) {
    auto series = reopened.SeriesRange({true, v, "load"}, Interval{});
    ASSERT_TRUE(series.ok());
    EXPECT_EQ(series->size(), static_cast<size_t>(kPerWriter));
    for (const Sample& s : series->samples()) {
      ASSERT_EQ(s.value, ExpectedValue(s.t));
    }
  }
  std::system(("rm -rf " + root).c_str());
}

// ---------------------------------------------------------------------------
// Sealed-chunk reads are lock-free after the pin: a full scan of a sealed
// series costs exactly one shared acquisition (the pin) and zero exclusive
// acquisitions — the acceptance criterion the bench also checks.
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, SealedScanTakesOneSharedAcquisition) {
  HypertableOptions options;
  options.chunk_duration = 100;
  HypertableStore store(options);
  const SeriesId id = store.Create("locking");
  for (int i = 0; i < 100; ++i) {
    const Timestamp t = static_cast<Timestamp>(i) * 10;
    ASSERT_TRUE(store.Insert(id, t, ExpectedValue(t)).ok());
  }

  obs::Counter* shared = store.metrics()->counter("concurrency.lock_shared");
  obs::Counter* exclusive =
      store.metrics()->counter("concurrency.lock_exclusive");
  const uint64_t shared_before = shared->value();
  const uint64_t exclusive_before = exclusive->value();
  const uint64_t pins_before =
      store.metrics()->counter("concurrency.chunk_pins")->value();

  auto samples = store.Scan(id, Interval{});
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), 100u);

  // One shared hold on the series map (FindSeries) + one on the shard lock
  // (PinView); decoding ran outside any lock.
  EXPECT_EQ(shared->value() - shared_before, 2u);
  EXPECT_EQ(exclusive->value(), exclusive_before);
  // All chunks but the hot newest one were pinned sealed.
  EXPECT_GT(store.metrics()->counter("concurrency.chunk_pins")->value(),
            pins_before);
}

}  // namespace
}  // namespace hygraph
