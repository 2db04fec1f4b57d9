#include "storage/durable.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/all_in_graph.h"
#include "storage/env.h"
#include "storage/fault_injection_env.h"
#include "storage/polyglot.h"
#include "storage/segment/segment_store.h"
#include "ts/hypertable.h"

namespace hygraph::storage {
namespace {

using BackendFactory = std::function<std::unique_ptr<query::QueryBackend>()>;

struct Arch {
  const char* name;
  BackendFactory make;
};

// Narrow chunks so a short ingest produces many sealed chunks for the
// tier to swallow: 4 samples per chunk at the stride used by Ingest().
ts::HypertableOptions NarrowChunks() {
  ts::HypertableOptions o;
  o.chunk_duration = 16;
  return o;
}

/// Crash-matrix and recovery tests for the cold tier (DESIGN.md §15).
/// Every store runs on a FaultInjectionEnv so individual tests can crash
/// the "machine" at arbitrary mutating-operation boundaries and model
/// what a real filesystem presents after power loss.
class TieringRecoveryTest : public ::testing::TestWithParam<Arch> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_tiering_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    dir_ = root_ + "/store";
    env_ = std::make_unique<FaultInjectionEnv>(Env::Default());
  }
  void TearDown() override {
    std::system(("rm -rf " + root_).c_str());
  }

  static DurableOptions Tiered(size_t cache_budget = 1u << 20) {
    DurableOptions options;
    options.tiering.enabled = true;
    options.tiering.cache_budget_bytes = cache_budget;
    return options;
  }

  std::unique_ptr<DurableStore> MakeStore(DurableOptions options = Tiered()) {
    return std::make_unique<DurableStore>(env_.get(), dir_, GetParam().make(),
                                          options);
  }

  // Canonical logical-state signature (topology + all series). On a tiered
  // store this pins every cold chunk's bytes, so signature equality means
  // the recovered samples are bit-identical, cold data included.
  static std::string Signature(const query::QueryBackend& backend) {
    auto text = BuildSnapshotText(backend);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.value_or("<error>");
  }

  // Mixed workload whose series span many chunks: 48 samples at stride 4
  // against chunk_duration 16 is 12 chunks per series, 11 of them sealed
  // (and spillable) the moment the newest chunk opens.
  static void Ingest(DurableStore* store) {
    auto v0 = store->AddVertex({"Station"}, {{"city", Value("berlin")}});
    ASSERT_TRUE(v0.ok()) << v0.status().ToString();
    auto v1 = store->AddVertex({"Station"}, {{"city", Value("munich")}});
    ASSERT_TRUE(v1.ok());
    auto e0 = store->AddEdge(*v0, *v1, "route", {{"km", Value(int64_t{584})}});
    ASSERT_TRUE(e0.ok()) << e0.status().ToString();
    ASSERT_TRUE(store->SetVertexProperty(*v1, "open", Value(true)).ok());
    for (int i = 0; i < 48; ++i) {
      ASSERT_TRUE(store->AppendSample({true, *v0, "temp"}, i * 4,
                                      20.0 + 0.25 * i)
                      .ok());
      ASSERT_TRUE(
          store->AppendSample({false, *e0, "load"}, i * 4, 0.5 * i).ok());
    }
  }
  // All eight aggregate kinds over the full axis for v0."temp" — the
  // bit-identical cold-vs-resident comparison vector.
  static std::vector<double> AggVector(const DurableStore& store) {
    std::vector<double> out;
    for (int k = 0; k <= static_cast<int>(ts::AggKind::kLast); ++k) {
      auto r = store.SeriesAggregate({true, 0, "temp"}, Interval::All(),
                                     static_cast<ts::AggKind>(k));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(r.value_or(-1.0));
    }
    return out;
  }

  // The embedded hypertable, or null for architectures without one
  // (all-in-graph), where tiering is documented to no-op.
  static ts::HypertableStore* Hypertable(DurableStore* store) {
    return store->inner()->series_hypertable();
  }

  std::vector<std::string> ColdFiles(const std::string& substr) {
    std::vector<std::string> children;
    if (!env_->GetChildren(dir_ + "/cold", &children).ok()) return {};
    std::vector<std::string> out;
    for (const auto& name : children) {
      if (name.find(substr) != std::string::npos) out.push_back(name);
    }
    return out;
  }

  std::string root_;
  std::string dir_;
  std::unique_ptr<FaultInjectionEnv> env_;
};

// -- spill mechanics ---------------------------------------------------------

TEST_P(TieringRecoveryTest, CheckpointSpillsSealedChunksCold) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  const std::string before = Signature(*store->inner());
  const auto aggs = AggVector(*store);
  ASSERT_TRUE(store->Checkpoint().ok());

  if (ts::HypertableStore* ht = Hypertable(store.get())) {
    ASSERT_NE(store->cold_tier(), nullptr);
    const auto stats = ht->stats();
    EXPECT_GE(stats.cold_chunks_spilled, 22u);  // 11 sealed chunks x 2 series
    EXPECT_GT(stats.cold_bytes_spilled, 0u);
    const auto mem = ht->MemoryUsage();
    EXPECT_EQ(mem.sealed_samples, 0u);  // every sealed chunk went cold
    EXPECT_GT(mem.cold_samples, 0u);
    EXPECT_GT(mem.hot_samples, 0u);  // the newest chunk stays hot
  } else {
    EXPECT_EQ(store->cold_tier(), nullptr);  // tiering no-ops gracefully
  }

  // Spilling is physically invasive but logically invisible: scans and
  // aggregates read back bit-identical through the tier.
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_EQ(AggVector(*store), aggs);
}

TEST_P(TieringRecoveryTest, ReopenAdoptsColdChunksWithoutReplayingThem) {
  std::string before;
  std::vector<double> aggs;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    before = Signature(*store->inner());
    aggs = AggVector(*store);
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_TRUE(store->recovery().snapshot_loaded);
  // Recovery is O(hot data): the WAL was truncated at the checkpoint, so
  // nothing replays — cold chunks re-attach as catalog metadata only.
  EXPECT_EQ(store->recovery().wal_records_replayed, 0u);
  if (Hypertable(store.get()) != nullptr) {
    EXPECT_GE(store->recovery().cold_chunks_adopted, 22u);
    EXPECT_EQ(Hypertable(store.get())->stats().cold_chunks_adopted,
              store->recovery().cold_chunks_adopted);
  } else {
    EXPECT_EQ(store->recovery().cold_chunks_adopted, 0u);
  }
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_EQ(AggVector(*store), aggs);
}

TEST_P(TieringRecoveryTest, WalTailReplaysOntoAdoptedChunks) {
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    // Post-checkpoint tail: an in-order append plus an out-of-order write
    // that lands inside a chunk the checkpoint just spilled cold — replay
    // must pin + unseal the adopted chunk to merge it.
    ASSERT_TRUE(store->AppendSample({true, 0, "temp"}, 48 * 4, 99.0).ok());
    ASSERT_TRUE(store->AppendSample({true, 0, "temp"}, 2, -7.5).ok());
    before = Signature(*store->inner());
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->recovery().wal_records_replayed, 2u);
  if (Hypertable(store.get()) != nullptr) {
    EXPECT_GT(store->recovery().cold_chunks_adopted, 0u);
    // The out-of-order replay unsealed exactly one adopted chunk.
    EXPECT_GE(Hypertable(store.get())->stats().chunks_unsealed, 1u);
  }
  EXPECT_EQ(Signature(*store->inner()), before);
}

TEST_P(TieringRecoveryTest, RepeatedCheckpointsKeepOneCatalog) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  ASSERT_TRUE(store->Checkpoint().ok());
  const std::string before = Signature(*store->inner());
  // A checkpoint with nothing new to spill is a cheap no-op re-snapshot.
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->AppendSample({true, 0, "temp"}, 48 * 4, 99.0).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  if (Hypertable(store.get()) != nullptr) {
    // Catalog GC keeps exactly the one paired with the live snapshot.
    EXPECT_EQ(ColdFiles(".cold").size(), 1u);
    EXPECT_EQ(ColdFiles(".tmp").size(), 0u);
  }
  auto reopened = MakeStore();
  ASSERT_TRUE(reopened->Open().ok());
  auto range = reopened->SeriesRange({true, 0, "temp"}, Interval::All());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->samples().size(), 49u);
  // The pre-tail signature is a strict prefix of the recovered state's
  // sample set; re-derive the full signature for the equality check.
  EXPECT_NE(Signature(*reopened->inner()), before);
}

// -- cache behavior ----------------------------------------------------------

TEST_P(TieringRecoveryTest, TinyCacheBudgetThrashesButStaysBitIdentical) {
  std::string before;
  std::vector<double> aggs;
  {
    auto store = MakeStore(Tiered(/*cache_budget=*/1));
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    before = Signature(*store->inner());
    aggs = AggVector(*store);
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  auto store = MakeStore(Tiered(/*cache_budget=*/1));
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_EQ(AggVector(*store), aggs);
  if (Hypertable(store.get()) != nullptr) {
    const auto cache = store->cold_tier()->cache_stats();
    // A 1-byte budget can never hold a chunk: every pin is a miss and the
    // inserted entry is evicted immediately.
    EXPECT_GT(cache.misses, 0u);
    EXPECT_GT(cache.evictions, 0u);
    EXPECT_EQ(cache.cached_bytes, 0u);
  }
}

TEST_P(TieringRecoveryTest, WarmCacheServesRepeatScansFromRam) {
  {
    auto store = MakeStore(Tiered(/*cache_budget=*/64u << 20));
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // Reopen so the tier's cache starts empty — in the writing process the
  // write-through Put path leaves every spilled chunk already resident.
  auto store = MakeStore(Tiered(/*cache_budget=*/64u << 20));
  ASSERT_TRUE(store->Open().ok());
  if (Hypertable(store.get()) == nullptr) return;  // no tier to exercise
  // Range scans (unlike whole-chunk aggregates, which are answered from
  // cached AggStates without touching the tier) pin every cold chunk.
  auto first = store->SeriesRange({true, 0, "temp"}, Interval::All());
  ASSERT_TRUE(first.ok());
  const auto after_first = store->cold_tier()->cache_stats();
  EXPECT_GT(after_first.misses, 0u);
  auto second = store->SeriesRange({true, 0, "temp"}, Interval::All());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->samples().size(), first->samples().size());
  const auto after_second = store->cold_tier()->cache_stats();
  // The second sweep re-pins the same chunks; with an ample budget they
  // are all resident, so misses stay flat while hits advance.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
}

// -- crash matrix ------------------------------------------------------------

// Crashes a tiered checkpoint after every single mutating filesystem
// operation in its protocol (segment appends, syncs, catalog write,
// renames, WAL rotation, GC removes), models power loss, recovers, and
// requires the recovered state to be bit-identical to the acknowledged
// state. Runs the whole sweep twice: once with fsync barriers honored
// (kDropAll) and once with deterministic torn tails (kKeepPrefix).
TEST_P(TieringRecoveryTest, CrashMatrixAcrossCheckpoint) {
  for (const auto loss : {FaultInjectionEnv::UnsyncedLoss::kDropAll,
                          FaultInjectionEnv::UnsyncedLoss::kKeepPrefix}) {
    SCOPED_TRACE(loss == FaultInjectionEnv::UnsyncedLoss::kDropAll
                     ? "drop_all"
                     : "keep_prefix");
    dir_ = root_ + (loss == FaultInjectionEnv::UnsyncedLoss::kDropAll
                        ? "/drop_all"
                        : "/keep_prefix");
    std::string acked;
    {
      auto store = MakeStore();
      ASSERT_TRUE(store->Open().ok());
      Ingest(store.get());
      acked = Signature(*store->inner());
    }
    bool completed = false;
    for (uint64_t k = 0; k < 500 && !completed; ++k) {
      auto store = MakeStore();
      ASSERT_TRUE(store->Open().ok()) << "crash point " << k;
      ASSERT_EQ(Signature(*store->inner()), acked) << "crash point " << k;
      env_->SetCrashAfter(k);
      const Status s = store->Checkpoint();
      if (env_->crashed()) {
        // The "machine" died mid-checkpoint. Tear the process down, roll
        // un-synced bytes back, restart — the outer loop re-verifies.
        store.reset();
        ASSERT_TRUE(env_->DropUnsyncedData(loss).ok());
        env_->Revive();
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        // Disarm the leftover crash budget — the sweep is done, and an
        // armed env would fire mid-verify (or in the next loss mode).
        env_->Revive();
        completed = true;
      }
    }
    ASSERT_TRUE(completed) << "checkpoint never outran the crash point";
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    EXPECT_EQ(Signature(*store->inner()), acked);
    EXPECT_TRUE(store->recovery().snapshot_loaded);
    if (Hypertable(store.get()) != nullptr) {
      EXPECT_GT(store->recovery().cold_chunks_adopted, 0u);
    }
  }
}

// A checkpoint that crashes after its segment fsync and before the snapshot
// rename leaves a segment file that no catalog will ever reference. The
// next checkpoint's GC must collect it, while keeping the files an earlier
// checkpoint's records still live in. Swept over every crash point of the
// checkpoint, so the invariant holds wherever the crash lands.
TEST_P(TieringRecoveryTest, CrashedCheckpointSegmentFilesAreCollected) {
  bool crashed = true;
  for (uint64_t k = 0; crashed && k < 500; ++k) {
    SCOPED_TRACE("crash point " + std::to_string(k));
    dir_ = root_ + "/gc_" + std::to_string(k);
    {  // First process: a clean checkpoint puts a segment file on disk.
      auto store = MakeStore();
      ASSERT_TRUE(store->Open().ok());
      Ingest(store.get());
      ASSERT_TRUE(store->Checkpoint().ok());
      if (Hypertable(store.get()) == nullptr) return;  // no segments exist
    }
    {  // Second process: new sealed chunks, then a checkpoint that crashes.
      auto store = MakeStore();
      ASSERT_TRUE(store->Open().ok());
      for (int i = 48; i < 96; ++i) {
        ASSERT_TRUE(
            store->AppendSample({true, 0, "temp"}, i * 4, 1.0 * i).ok());
      }
      env_->SetCrashAfter(k);
      const Status s = store->Checkpoint();
      crashed = env_->crashed();
      if (!crashed) {
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    }
    if (crashed) {
      ASSERT_TRUE(env_->DropUnsyncedData().ok());
    }
    env_->Revive();
    {  // Third process: recover and checkpoint again.
      auto store = MakeStore();
      ASSERT_TRUE(store->Open().ok());
      ASSERT_TRUE(store->Checkpoint().ok());
    }
    const auto catalogs = ColdFiles(".cold");
    ASSERT_EQ(catalogs.size(), 1u);
    std::string bytes;
    ASSERT_TRUE(
        env_->ReadFileToString(dir_ + "/cold/" + catalogs[0], &bytes).ok());
    auto entries = ParseColdCatalog(bytes);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    std::set<std::string> referenced;
    for (const ColdCatalogEntry& e : *entries) referenced.insert(e.file);
    const auto on_disk = ColdFiles(".seg");
    EXPECT_EQ(std::set<std::string>(on_disk.begin(), on_disk.end()),
              referenced);
  }
  EXPECT_FALSE(crashed) << "checkpoint never outran the crash point";
}

// Records a retention forgets keep their segment file alive while the
// process runs (a published version may still pin them); after a restart
// nothing points into the file, and the next checkpoint collects it.
TEST_P(TieringRecoveryTest, RetainedSegmentFileIsCollectedAfterRestart) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    if (Hypertable(store.get()) == nullptr) return;  // no segments exist
  }
  const auto spilled = ColdFiles(".seg");
  ASSERT_EQ(spilled.size(), 1u);
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    // Keep only the hot newest chunk of each series: every cold chunk goes.
    const Interval keep{47 * 4, kMaxTimestamp};
    for (const bool vertex : {true, false}) {
      auto sid =
          store->inner()->EnsureSeries({vertex, 0, vertex ? "temp" : "load"});
      ASSERT_TRUE(sid.ok()) << sid.status().ToString();
      ASSERT_TRUE(Hypertable(store.get())->Retain(*sid, keep).ok());
    }
    ASSERT_EQ(store->cold_tier()->cache_stats().live_records, 0u);
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(ColdFiles(".seg"), spilled);  // forgotten, still pinnable
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_TRUE(ColdFiles(".seg").empty());
}

TEST_P(TieringRecoveryTest, CrashMidIngestRecoversAcknowledgedPrefix) {
  std::vector<std::pair<Timestamp, double>> oracle;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    auto v0 = store->AddVertex({"Station"}, {});
    ASSERT_TRUE(v0.ok());
    // Crash somewhere in the middle of the append stream; with sync_wal on,
    // every OK append is a durability promise the recovery must keep.
    env_->SetCrashAfter(37);
    for (int i = 0; i < 64; ++i) {
      const Status s = store->AppendSample({true, *v0, "temp"}, i * 4, 1.5 * i);
      if (!s.ok()) break;
      oracle.emplace_back(i * 4, 1.5 * i);
    }
    ASSERT_TRUE(env_->crashed());  // 64 appends comfortably pass op 37
    ASSERT_FALSE(oracle.empty());
  }
  // kDropAll honors the fsync barrier exactly, so the recovered state is
  // precisely the acknowledged prefix — a record whose WAL append landed
  // but whose fsync did not was never acknowledged and must vanish.
  ASSERT_TRUE(
      env_->DropUnsyncedData(FaultInjectionEnv::UnsyncedLoss::kDropAll)
          .ok());
  env_->Revive();
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  auto range = store->SeriesRange({true, 0, "temp"}, Interval::All());
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_EQ(range->samples().size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(range->samples()[i].t, oracle[i].first);
    EXPECT_EQ(range->samples()[i].value, oracle[i].second);
  }
}

// -- deliberate media corruption ---------------------------------------------

TEST_P(TieringRecoveryTest, BitFlippedSegmentIsDetectedNotServed) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    if (Hypertable(store.get()) == nullptr) return;  // no segments exist
  }
  const auto segments = ColdFiles(".seg");
  ASSERT_FALSE(segments.empty());
  const std::string path = dir_ + "/cold/" + segments.front();
  std::string bytes;
  ASSERT_TRUE(env_->ReadFileToString(path, &bytes).ok());
  ASSERT_FALSE(bytes.empty());
  bytes.back() ^= 0x40;  // flip one payload bit in the last record
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env_->NewWritableFile(path, &f).ok());
    ASSERT_TRUE(f->Append(bytes).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  // Adoption is metadata-only, so the store opens fine; the first scan
  // that pins the poisoned chunk must surface kCorruption, never data.
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  auto text = BuildSnapshotText(*store->inner());
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kCorruption)
      << text.status().ToString();
}

TEST_P(TieringRecoveryTest, TruncatedSegmentTailIsDetectedNotServed) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    if (Hypertable(store.get()) == nullptr) return;
  }
  const auto segments = ColdFiles(".seg");
  ASSERT_FALSE(segments.empty());
  const std::string path = dir_ + "/cold/" + segments.front();
  auto size = env_->GetFileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env_->TruncateFile(path, *size - 3).ok());
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  auto text = BuildSnapshotText(*store->inner());
  ASSERT_FALSE(text.ok());
  EXPECT_TRUE(text.status().code() == StatusCode::kCorruption ||
              text.status().code() == StatusCode::kOutOfRange)
      << text.status().ToString();
}

TEST_P(TieringRecoveryTest, MissingCatalogOpensAsPreTieringCheckpoint) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    if (Hypertable(store.get()) == nullptr) return;
  }
  for (const auto& name : ColdFiles(".cold")) {
    ASSERT_TRUE(env_->RemoveFile(dir_ + "/cold/" + name).ok());
  }
  // A snapshot with no catalog is indistinguishable from one written
  // before tiering existed: the store opens with an empty cold tier
  // instead of refusing service.
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_TRUE(store->recovery().snapshot_loaded);
  EXPECT_EQ(store->recovery().cold_chunks_adopted, 0u);
  auto range = store->SeriesRange({true, 0, "temp"}, Interval::All());
  ASSERT_TRUE(range.ok());
  EXPECT_GT(range->samples().size(), 0u);  // the hot tail is still there
}

// -- probabilistic transient faults ------------------------------------------

TEST_P(TieringRecoveryTest, SurvivesProbabilisticTransientFaults) {
  DurableOptions options = Tiered();
  options.retry.max_attempts = 8;
  options.retry_sleep = [](Duration) {};  // spin, don't stall the test
  std::string before;
  {
    auto store = MakeStore(options);
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    // A deterministic two-fault burst on the append path: the plain
    // append fails, the first WAL-rebuild attempt fails, the second
    // rebuild heals — all invisible to the caller.
    env_->SetTransientFailNext(2);
    ASSERT_TRUE(store->AppendSample({true, 0, "temp"}, 48 * 4, 99.0).ok());
    EXPECT_GE(env_->transient_faults(), 2u);
    // A low-rate probabilistic stream across the whole tiered checkpoint
    // (segment spill, segment fsync, catalog install, snapshot, GC, WAL
    // rotation): every stage retries as an idempotent unit, so scattered
    // hiccups must be absorbed. The rate stays low because a WAL-append
    // retry replays the entire epoch — per-op faults compound across it.
    env_->SetTransientProbability(0.03, /*seed=*/0xC01DCAFE);
    ASSERT_TRUE(store->Checkpoint().ok());
    env_->ClearTransientFaults();
    before = Signature(*store->inner());
  }
  auto store = MakeStore(options);
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), before);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, TieringRecoveryTest,
    ::testing::Values(
        Arch{"all_in_graph",
             [] {
               return std::unique_ptr<query::QueryBackend>(
                   std::make_unique<AllInGraphStore>());
             }},
        Arch{"polyglot",
             [] {
               return std::unique_ptr<query::QueryBackend>(
                   std::make_unique<PolyglotStore>(NarrowChunks()));
             }}),
    [](const ::testing::TestParamInfo<Arch>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hygraph::storage
