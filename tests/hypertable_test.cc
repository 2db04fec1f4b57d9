#include "ts/hypertable.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hygraph::ts {
namespace {

HypertableStore MakeStoreWithSeries(SeriesId* id, size_t samples,
                                    Duration step = kMinute,
                                    Duration chunk = kHour) {
  HypertableOptions options;
  options.chunk_duration = chunk;
  HypertableStore store(options);
  *id = store.Create("s");
  for (size_t i = 0; i < samples; ++i) {
    EXPECT_TRUE(store
                    .Insert(*id, static_cast<Timestamp>(i) * step,
                            static_cast<double>(i))
                    .ok());
  }
  return store;
}

TEST(HypertableTest, CreateAndCount) {
  HypertableStore store;
  const SeriesId a = store.Create("a");
  const SeriesId b = store.Create("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(store.Exists(a));
  EXPECT_FALSE(store.Exists(999));
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(*store.Name(a), "a");
  EXPECT_EQ(store.Ids(), (std::vector<SeriesId>{a, b}));
}

TEST(HypertableTest, InsertUnknownSeriesFails) {
  HypertableStore store;
  EXPECT_FALSE(store.Insert(123, 0, 1.0).ok());
  EXPECT_FALSE(store.Scan(123, Interval::All()).ok());
  EXPECT_FALSE(store.Aggregate(123, Interval::All(), AggKind::kSum).ok());
}

TEST(HypertableTest, ScanReturnsOrderedRange) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 300);
  auto samples = store.Scan(id, Interval{30 * kMinute, 90 * kMinute});
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), 60u);
  EXPECT_EQ(samples->front().t, 30 * kMinute);
  EXPECT_EQ(samples->back().t, 89 * kMinute);
  for (size_t i = 1; i < samples->size(); ++i) {
    EXPECT_LT((*samples)[i - 1].t, (*samples)[i].t);
  }
}

TEST(HypertableTest, OutOfOrderInsertIsSorted) {
  HypertableStore store;
  const SeriesId id = store.Create("s");
  EXPECT_TRUE(store.Insert(id, 500, 5.0).ok());
  EXPECT_TRUE(store.Insert(id, 100, 1.0).ok());
  EXPECT_TRUE(store.Insert(id, 300, 3.0).ok());
  auto samples = store.Scan(id, Interval::All());
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), 3u);
  EXPECT_EQ((*samples)[0].t, 100);
  EXPECT_EQ((*samples)[2].t, 500);
}

TEST(HypertableTest, DuplicateTimestampReplaces) {
  HypertableStore store;
  const SeriesId id = store.Create("s");
  EXPECT_TRUE(store.Insert(id, 100, 1.0).ok());
  EXPECT_TRUE(store.Insert(id, 100, 9.0).ok());
  EXPECT_EQ(*store.SampleCount(id), 1u);
  auto samples = store.Scan(id, Interval::All());
  EXPECT_DOUBLE_EQ((*samples)[0].value, 9.0);
}

TEST(HypertableTest, AggregateMatchesScan) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 500);
  const Interval range{100 * kMinute, 400 * kMinute};
  // sum of i for i in [100, 400) = (100 + 399) * 300 / 2.
  auto sum = store.Aggregate(id, range, AggKind::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, (100.0 + 399.0) * 300.0 / 2.0);
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, range, AggKind::kCount), 300.0);
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, range, AggKind::kMin), 100.0);
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, range, AggKind::kMax), 399.0);
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, range, AggKind::kAvg), 249.5);
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, range, AggKind::kFirst), 100.0);
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, range, AggKind::kLast), 399.0);
}

TEST(HypertableTest, ChunkCacheAnswersFullyCoveredChunks) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 600);  // 10 chunks of 60
  store.ResetStats();
  auto sum = store.Aggregate(id, Interval{0, 600 * kMinute}, AggKind::kSum);
  ASSERT_TRUE(sum.ok());
  const HypertableStats& stats = store.stats();
  EXPECT_EQ(stats.chunks_from_cache, 10u);
  EXPECT_EQ(stats.samples_scanned, 0u);
}

TEST(HypertableTest, PartialChunksAreScanned) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 600);
  store.ResetStats();
  // Misaligned range: 30 min into chunk 0 through 30 min into chunk 2.
  auto sum = store.Aggregate(id, Interval{30 * kMinute, 150 * kMinute},
                             AggKind::kCount);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, 120.0);
  const HypertableStats& stats = store.stats();
  EXPECT_EQ(stats.chunks_from_cache, 1u);  // chunk 1 fully covered
  EXPECT_EQ(stats.chunks_scanned, 2u);     // boundary chunks
}

TEST(HypertableTest, CacheDisabledScansEverything) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  options.enable_chunk_cache = false;
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        store.Insert(id, static_cast<Timestamp>(i) * kMinute, 1.0).ok());
  }
  store.ResetStats();
  ASSERT_TRUE(store.Aggregate(id, Interval::All(), AggKind::kSum).ok());
  EXPECT_EQ(store.stats().chunks_from_cache, 0u);
  EXPECT_EQ(store.stats().samples_scanned, 120u);
}

TEST(HypertableTest, ScanPrunesChunks) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 600);  // 10 chunks
  store.ResetStats();
  ASSERT_TRUE(store.Scan(id, Interval{5 * kHour, 6 * kHour}).ok());
  EXPECT_EQ(store.stats().chunks_scanned, 1u);
}

TEST(HypertableTest, AggregateOverEmptyRange) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 10);
  auto count =
      store.Aggregate(id, Interval{kDay, 2 * kDay}, AggKind::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(*count, 0.0);
  EXPECT_FALSE(store.Aggregate(id, Interval{kDay, 2 * kDay}, AggKind::kAvg)
                   .ok());
}

TEST(HypertableTest, RetainDropsWholeChunksAndTrimsBoundaries) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 600);
  auto removed = store.Retain(id, Interval{90 * kMinute, 400 * kMinute});
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 600u - 310u);
  EXPECT_EQ(*store.SampleCount(id), 310u);
  auto samples = store.Scan(id, Interval::All());
  EXPECT_EQ(samples->front().t, 90 * kMinute);
  EXPECT_EQ(samples->back().t, 399 * kMinute);
}

TEST(HypertableTest, MaterializeBuildsSeries) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 100);
  auto series = store.Materialize(id, Interval{0, 10 * kMinute});
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 10u);
  EXPECT_EQ(series->name(), "s");
}

TEST(HypertableTest, InsertAfterAggregateInvalidatesCache) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  ASSERT_TRUE(store.Insert(id, 0, 1.0).ok());
  ASSERT_TRUE(store.Insert(id, kMinute, 2.0).ok());
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, Interval::All(), AggKind::kSum), 3.0);
  ASSERT_TRUE(store.Insert(id, 2 * kMinute, 4.0).ok());
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, Interval::All(), AggKind::kSum), 7.0);
}

TEST(HypertableTest, StdDevAggregate) {
  HypertableStore store;
  const SeriesId id = store.Create("s");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Insert(id, i * kMinute, static_cast<double>(i)).ok());
  }
  // Sample stddev of {0,1,2,3} = sqrt(5/3).
  EXPECT_NEAR(*store.Aggregate(id, Interval::All(), AggKind::kStdDev),
              std::sqrt(5.0 / 3.0), 1e-9);
}

TEST(HypertableWindowTest, MatchesInMemoryWindowAggregate) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  Series reference("ref");
  for (int i = 0; i < 700; ++i) {
    const Timestamp t = 3 * kMinute + i * 7 * kMinute;  // misaligned grid
    const double v = std::sin(i * 0.11) * 5.0;
    ASSERT_TRUE(store.Insert(id, t, v).ok());
    ASSERT_TRUE(reference.Append(t, v).ok());
  }
  const Interval range{50 * kMinute, 4000 * kMinute};
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMin, AggKind::kMax}) {
    auto native = store.WindowAggregate(id, range, 45 * kMinute, kind);
    auto in_memory = WindowAggregate(reference, range, 45 * kMinute, kind);
    ASSERT_TRUE(native.ok());
    ASSERT_TRUE(in_memory.ok());
    ASSERT_EQ(native->size(), in_memory->size()) << AggKindName(kind);
    for (size_t i = 0; i < native->size(); ++i) {
      EXPECT_EQ(native->at(i).t, in_memory->at(i).t);
      EXPECT_NEAR(native->at(i).value, in_memory->at(i).value, 1e-9);
    }
  }
}

TEST(HypertableWindowTest, AlignedWindowsAnswerFromChunkCache) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(store.Insert(id, i * kMinute, 1.0).ok());  // 10 full chunks
  }
  store.ResetStats();
  // Hour-wide windows anchored at 0 coincide with the chunk grid: every
  // chunk is answered from its cached partial.
  auto windowed =
      store.WindowAggregate(id, Interval{0, 600 * kMinute}, kHour,
                            AggKind::kSum);
  ASSERT_TRUE(windowed.ok());
  ASSERT_EQ(windowed->size(), 10u);
  for (const Sample& w : windowed->samples()) {
    EXPECT_DOUBLE_EQ(w.value, 60.0);
  }
  EXPECT_EQ(store.stats().chunks_from_cache, 10u);
  EXPECT_EQ(store.stats().samples_scanned, 0u);
}

TEST(HypertableWindowTest, Validation) {
  HypertableStore store;
  const SeriesId id = store.Create("s");
  EXPECT_FALSE(store.WindowAggregate(id, Interval::All(), 0,
                                     AggKind::kSum)
                   .ok());
  EXPECT_FALSE(store.WindowAggregate(99, Interval::All(), kHour,
                                     AggKind::kSum)
                   .ok());
  auto empty = store.WindowAggregate(id, Interval::All(), kHour,
                                     AggKind::kSum);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// Property sweep: chunk size must never change query answers.
class ChunkSizeSweep : public ::testing::TestWithParam<Duration> {};

TEST_P(ChunkSizeSweep, AnswersIndependentOfChunking) {
  HypertableOptions options;
  options.chunk_duration = GetParam();
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  for (size_t i = 0; i < 777; ++i) {
    ASSERT_TRUE(store
                    .Insert(id, static_cast<Timestamp>(i) * 13 * kSecond,
                            std::sin(static_cast<double>(i)))
                    .ok());
  }
  const Interval range{100 * kSecond, 5000 * kSecond};
  auto scan = store.Scan(id, range);
  ASSERT_TRUE(scan.ok());
  double expected_sum = 0.0;
  for (const Sample& s : *scan) expected_sum += s.value;
  auto sum = store.Aggregate(id, range, AggKind::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(*sum, expected_sum, 1e-9);
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, range, AggKind::kCount),
                   static_cast<double>(scan->size()));
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkSizeSweep,
                         ::testing::Values(kMinute, kHour, 6 * kHour, kDay,
                                           30 * kDay));

// ---- reduction order --------------------------------------------------------
// Reads reduce one AggState per chunk and merge those partials in chunk
// order. The tests below rebuild that reduction from Materialize and
// require the store's doubles bit for bit. The values are non-integral and
// random, so sums depend on the order of the additions: a read that folds
// a range through one running AggState, or merges chunks in another order,
// fails here.

constexpr AggKind kAllKinds[] = {
    AggKind::kCount, AggKind::kSum,    AggKind::kAvg,   AggKind::kMin,
    AggKind::kMax,   AggKind::kStdDev, AggKind::kFirst, AggKind::kLast,
};

// Ten sealed hour chunks and a hot newest one, a sample every 37 s.
HypertableStore MakeRandomSealedStore(SeriesId* id) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  HypertableStore store(options);
  *id = store.Create("s");
  Rng rng(0x5eed);
  for (Timestamp t = 0; t < 11 * kHour; t += 37 * kSecond) {
    EXPECT_TRUE(
        store.Insert(*id, t, rng.NextDoubleInRange(-1000.0, 1000.0)).ok());
  }
  return store;
}

// The reference reduction: the samples of each (hour chunk, window) run
// fold into one partial, in time order, and each window merges its
// partials in chunk order. Returns (window index, merged state) pairs.
std::vector<std::pair<int64_t, AggState>> ReducePerChunk(
    const Series& series, Timestamp anchor, Duration width) {
  std::vector<std::pair<int64_t, AggState>> windows;
  AggState partial;
  bool open = false;
  int64_t chunk = 0;
  int64_t window = 0;
  auto close = [&] {
    if (!open) return;
    if (windows.empty() || windows.back().first != window) {
      windows.emplace_back(window, AggState{});
    }
    windows.back().second.Merge(partial);
    partial = AggState{};
  };
  for (const Sample& s : series.samples()) {
    const int64_t c = s.t / kHour;
    const int64_t w = (s.t - anchor) / width;
    if (open && (c != chunk || w != window)) close();
    open = true;
    chunk = c;
    window = w;
    partial.Add(s);
  }
  close();
  return windows;
}

// One running fold of `samples` in [from, to): the order a read must NOT
// use across a chunk boundary.
AggState RunningFold(const Series& series, Timestamp from, Timestamp to) {
  AggState state;
  for (const Sample& s : series.samples()) {
    if (s.t >= from && s.t < to) state.Add(s);
  }
  return state;
}

TEST(HypertableReductionOrderTest, AggregateMergesChunkPartialsInOrder) {
  SeriesId id;
  HypertableStore store = MakeRandomSealedStore(&id);
  // Clips chunks 1 and 8; chunks 2..7 answer from their cached partials.
  const Interval range{kHour + 20 * kMinute, 8 * kHour + 40 * kMinute};
  auto series = store.Materialize(id, range);
  ASSERT_TRUE(series.ok());
  const auto reference = ReducePerChunk(*series, range.start, 1000 * kDay);
  ASSERT_EQ(reference.size(), 1u);
  const AggState& want = reference[0].second;
  // The data makes the order observable: one running fold sums differently.
  EXPECT_NE(std::bit_cast<uint64_t>(want.sum),
            std::bit_cast<uint64_t>(
                RunningFold(*series, range.start, range.end).sum));
  for (AggKind kind : kAllKinds) {
    SCOPED_TRACE(AggKindName(kind));
    store.ResetStats();
    auto got = store.Aggregate(id, range, kind);
    auto expected = want.Finalize(kind);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(*got), std::bit_cast<uint64_t>(*expected))
        << *got << " vs " << *expected;
    EXPECT_EQ(store.stats().chunks_from_cache, 6u);
    EXPECT_EQ(store.stats().chunks_scanned, 2u);
  }
}

TEST(HypertableReductionOrderTest, WindowMergesPartialsAcrossChunkSeams) {
  SeriesId id;
  HypertableStore store = MakeRandomSealedStore(&id);
  // 50-minute windows anchored at 1h20m: [1h20m, 2h10m) spans the boundary
  // between chunks 1 and 2, and so do most windows after it.
  const Interval range{kHour + 20 * kMinute, 8 * kHour + 40 * kMinute};
  const Duration width = 50 * kMinute;
  auto series = store.Materialize(id, range);
  ASSERT_TRUE(series.ok());
  const auto reference = ReducePerChunk(*series, range.start, width);
  size_t order_sensitive = 0;
  for (const auto& [window, state] : reference) {
    const Timestamp from = range.start + window * width;
    const AggState running = RunningFold(*series, from, from + width);
    if (std::bit_cast<uint64_t>(running.sum) !=
        std::bit_cast<uint64_t>(state.sum)) {
      ++order_sensitive;
    }
  }
  EXPECT_GT(order_sensitive, 0u);
  for (AggKind kind : kAllKinds) {
    SCOPED_TRACE(AggKindName(kind));
    auto got = store.WindowAggregate(id, range, width, kind);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      auto expected = reference[i].second.Finalize(kind);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(got->at(i).t, range.start + reference[i].first * width);
      EXPECT_EQ(std::bit_cast<uint64_t>(got->at(i).value),
                std::bit_cast<uint64_t>(*expected))
          << "window " << i << ": " << got->at(i).value << " vs "
          << *expected;
    }
  }
}

TEST(HypertableCompressionTest, ColdChunksAreSealed) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 600);  // 10 chunks
  EXPECT_GE(store.stats().chunks_sealed, 9u);
  const HypertableMemory mem = store.MemoryUsage();
  // Only the newest chunk stays hot.
  EXPECT_EQ(mem.hot_samples, 60u);
  EXPECT_EQ(mem.sealed_samples, 540u);
  EXPECT_GT(mem.sealed_bytes, 0u);
  // Regular grid + small integral values compress far below raw layout.
  EXPECT_LE(mem.sealed_bytes_per_sample(), 4.0);
  EXPECT_GT(store.stats().bytes_raw, store.stats().bytes_compressed);
}

TEST(HypertableCompressionTest, CompressionOffKeepsEverythingHot) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  options.compress_sealed_chunks = false;
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  for (size_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        store.Insert(id, static_cast<Timestamp>(i) * kMinute, 1.0).ok());
  }
  EXPECT_EQ(store.stats().chunks_sealed, 0u);
  const HypertableMemory mem = store.MemoryUsage();
  EXPECT_EQ(mem.hot_samples, 600u);
  EXPECT_EQ(mem.sealed_samples, 0u);
}

TEST(HypertableCompressionTest, OnOffAnswerIdentically) {
  HypertableOptions on;
  on.chunk_duration = kHour;
  HypertableOptions off = on;
  off.compress_sealed_chunks = false;
  HypertableStore a(on);
  HypertableStore b(off);
  const SeriesId ida = a.Create("s");
  const SeriesId idb = b.Create("s");
  Rng rng(42);
  for (int i = 0; i < 777; ++i) {
    // Mostly in-order with occasional backfill into older chunks.
    Timestamp t = static_cast<Timestamp>(i) * 13 * kMinute;
    if (rng.NextBernoulli(0.1)) t -= 3 * kHour;
    const double v = rng.NextGaussian() * 10.0;
    ASSERT_TRUE(a.Insert(ida, t, v).ok());
    ASSERT_TRUE(b.Insert(idb, t, v).ok());
  }
  const Interval range{2 * kHour, 140 * kHour};
  auto scan_a = a.Scan(ida, range);
  auto scan_b = b.Scan(idb, range);
  ASSERT_TRUE(scan_a.ok());
  ASSERT_TRUE(scan_b.ok());
  EXPECT_EQ(*scan_a, *scan_b);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kMin,
                       AggKind::kMax, AggKind::kAvg}) {
    EXPECT_DOUBLE_EQ(*a.Aggregate(ida, range, kind),
                     *b.Aggregate(idb, range, kind))
        << AggKindName(kind);
  }
  auto win_a = a.WindowAggregate(ida, range, 45 * kMinute, AggKind::kAvg);
  auto win_b = b.WindowAggregate(idb, range, 45 * kMinute, AggKind::kAvg);
  ASSERT_TRUE(win_a.ok());
  ASSERT_TRUE(win_b.ok());
  EXPECT_EQ(*win_a, *win_b);
}

TEST(HypertableCompressionTest, OutOfOrderInsertUnsealsAndReseals) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 300);  // 5 chunks
  ASSERT_GE(store.stats().chunks_sealed, 4u);
  // Backfill into the (sealed) first chunk.
  ASSERT_TRUE(store.Insert(id, 30 * kMinute + 1, 999.0).ok());
  EXPECT_EQ(store.stats().chunks_unsealed, 1u);
  // The touched chunk was resealed immediately: still only one hot chunk.
  const HypertableMemory mem = store.MemoryUsage();
  EXPECT_EQ(mem.hot_samples, 60u);
  EXPECT_EQ(mem.sealed_samples, 241u);
  auto samples = store.Scan(id, Interval{30 * kMinute, 31 * kMinute});
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), 2u);
  EXPECT_DOUBLE_EQ((*samples)[1].value, 999.0);
}

TEST(HypertableCompressionTest, DuplicateTimestampReplacesInSealedChunk) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 300);
  ASSERT_TRUE(store.Insert(id, 10 * kMinute, -5.0).ok());  // chunk 0, sealed
  EXPECT_EQ(*store.SampleCount(id), 300u);  // replaced, not added
  auto samples = store.Scan(id, Interval::At(10 * kMinute));
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), 1u);
  EXPECT_DOUBLE_EQ((*samples)[0].value, -5.0);
  // The aggregate cache of the resealed chunk reflects the new value.
  EXPECT_DOUBLE_EQ(*store.Aggregate(id, Interval{0, kHour}, AggKind::kMin),
                   -5.0);
}

TEST(HypertableCompressionTest, RetainDropsSealedChunksWithoutDecoding) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 600);
  store.ResetStats();
  // Chunk-aligned retain: whole sealed chunks drop with no unseal.
  auto removed = store.Retain(id, Interval{2 * kHour, 8 * kHour});
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 240u);
  EXPECT_EQ(store.stats().chunks_unsealed, 0u);
  EXPECT_EQ(*store.SampleCount(id), 360u);
  // Misaligned retain: the boundary chunk must unseal, trim, reseal.
  auto trimmed = store.Retain(id, Interval{150 * kMinute, 8 * kHour});
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 30u);
  EXPECT_GE(store.stats().chunks_unsealed, 1u);
  auto samples = store.Scan(id, Interval::All());
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples->front().t, 150 * kMinute);
  EXPECT_EQ(samples->back().t, 479 * kMinute);
}

TEST(HypertableCompressionTest, ZoneMapSkipsChunksUnderValuePredicate) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  // Chunk k holds values in [100k, 100k + 59].
  for (int i = 0; i < 600; ++i) {
    const double v = (i / 60) * 100.0 + (i % 60);
    ASSERT_TRUE(
        store.Insert(id, static_cast<Timestamp>(i) * kMinute, v).ok());
  }
  store.ResetStats();
  // Values [320, 340] live only in chunk 3: the other eight sealed chunks
  // are skipped from their zone maps alone; only hot chunk 9 also scans.
  auto n = store.CountMatching(id, Interval::All(),
                               ScanPredicate{320.0, 340.0});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 21u);
  EXPECT_EQ(store.stats().chunks_zonemap_skipped, 8u);
  store.ResetStats();
  // A whole sealed chunk inside the bounds is counted without decoding
  // (interval excludes the hot newest chunk, which would always scan).
  auto whole = store.CountMatching(id, Interval{0, 9 * kHour},
                                   ScanPredicate{300.0, 359.0});
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, 60u);
  EXPECT_EQ(store.stats().chunks_from_cache, 1u);
  EXPECT_EQ(store.stats().samples_scanned, 0u);
}

TEST(HypertableCompressionTest, BoundedPredicateIgnoresNonFiniteValues) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 120; ++i) {
    const double v = (i % 10 == 0) ? nan : 5.0;
    ASSERT_TRUE(
        store.Insert(id, static_cast<Timestamp>(i) * kMinute, v).ok());
  }
  // Bounded predicate never selects NaN (SQL comparison semantics)...
  auto bounded =
      store.CountMatching(id, Interval::All(), ScanPredicate{0.0, 10.0});
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(*bounded, 108u);
  // ...while the unbounded scan still streams every sample, NaN included.
  size_t total = 0;
  ASSERT_TRUE(
      store.ScanVisit(id, Interval::All(), [&](const Sample&) { ++total; })
          .ok());
  EXPECT_EQ(total, 120u);
}

TEST(HypertableCompressionTest, ScanVisitStreamsSealedChunksInOrder) {
  SeriesId id;
  HypertableStore store = MakeStoreWithSeries(&id, 300);
  std::vector<Sample> streamed;
  ASSERT_TRUE(store
                  .ScanVisit(id, Interval{30 * kMinute, 250 * kMinute},
                             [&](const Sample& s) { streamed.push_back(s); })
                  .ok());
  auto scanned = store.Scan(id, Interval{30 * kMinute, 250 * kMinute});
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(streamed, *scanned);
  ASSERT_EQ(streamed.size(), 220u);
  EXPECT_EQ(streamed.front().t, 30 * kMinute);
}

TEST(HypertableCompressionTest, BulkLoadSealsOncePerChunk) {
  HypertableOptions options;
  options.chunk_duration = kHour;
  HypertableStore store(options);
  const SeriesId id = store.Create("s");
  Series bulk("bulk");
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(bulk.Append(static_cast<Timestamp>(i) * kMinute,
                            static_cast<double>(i % 40))
                    .ok());
  }
  ASSERT_TRUE(store.InsertSeries(id, bulk).ok());
  // Deferred sealing: exactly one seal per cold chunk, zero unseals.
  EXPECT_EQ(store.stats().chunks_sealed, 9u);
  EXPECT_EQ(store.stats().chunks_unsealed, 0u);
  EXPECT_EQ(*store.SampleCount(id), 600u);
}

}  // namespace
}  // namespace hygraph::ts
