#include "storage/durable.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "storage/all_in_graph.h"
#include "storage/env.h"
#include "storage/polyglot.h"

namespace hygraph::storage {
namespace {

using BackendFactory = std::function<std::unique_ptr<query::QueryBackend>()>;

struct Arch {
  const char* name;
  BackendFactory make;
};

class RecoveryTest : public ::testing::TestWithParam<Arch> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_recovery_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    dir_ = root_ + "/store";
    env_ = Env::Default();
  }
  void TearDown() override {
    std::system(("rm -rf " + root_).c_str());
  }

  std::unique_ptr<DurableStore> MakeStore(DurableOptions options = {}) {
    return std::make_unique<DurableStore>(env_, dir_, GetParam().make(),
                                          options);
  }

  // Canonical logical-state signature (topology + all series).
  static std::string Signature(const query::QueryBackend& backend) {
    auto text = BuildSnapshotText(backend);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.value_or("<error>");
  }

  // A small mixed workload: 3 vertices, 2 edges, static properties, and
  // samples on both a vertex and an edge.
  static void Ingest(DurableStore* store) {
    auto v0 = store->AddVertex({"Station"}, {{"city", Value("berlin")}});
    ASSERT_TRUE(v0.ok()) << v0.status().ToString();
    auto v1 = store->AddVertex({"Station"}, {{"city", Value("munich")}});
    ASSERT_TRUE(v1.ok());
    auto v2 = store->AddVertex({"Sensor"}, {});
    ASSERT_TRUE(v2.ok());
    auto e0 = store->AddEdge(*v0, *v1, "route", {{"km", Value(int64_t{584})}});
    ASSERT_TRUE(e0.ok()) << e0.status().ToString();
    auto e1 = store->AddEdge(*v2, *v0, "observes", {});
    ASSERT_TRUE(e1.ok());
    ASSERT_TRUE(store->SetVertexProperty(*v1, "open", Value(true)).ok());
    ASSERT_TRUE(store->SetEdgeProperty(*e0, "toll", Value(2.5)).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          store->AppendSample({true, *v0, "temp"}, 100 + i, 20.0 + i).ok());
      ASSERT_TRUE(
          store->AppendSample({false, *e0, "load"}, 200 + i, 0.5 * i).ok());
    }
  }

  std::string root_;
  std::string dir_;
  Env* env_ = nullptr;
};

TEST_P(RecoveryTest, ReopenAfterCleanRunRestoresEverything) {
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    before = Signature(*store->inner());
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_FALSE(store->recovery().snapshot_loaded);
  EXPECT_EQ(store->recovery().wal_records_replayed, 27u);
  EXPECT_EQ(store->recovery().wal_replay_failures, 0u);
  EXPECT_FALSE(store->recovery().wal_torn_tail);
}

TEST_P(RecoveryTest, EmptyDirectoryOpensEmpty) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->topology().VertexCount(), 0u);
  EXPECT_FALSE(store->recovery().snapshot_loaded);
  EXPECT_EQ(store->recovery().wal_records_salvaged, 0u);
  EXPECT_EQ(store->next_seq(), 1u);
}

TEST_P(RecoveryTest, CheckpointPlusTailReplay) {
  std::string before;
  uint64_t seq_before = 0;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    // Post-checkpoint tail that only the WAL covers.
    ASSERT_TRUE(store->AppendSample({true, 0, "temp"}, 500, 99.0).ok());
    ASSERT_TRUE(store->SetVertexProperty(1, "open", Value(false)).ok());
    before = Signature(*store->inner());
    seq_before = store->next_seq();
  }
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(Signature(*store->inner()), before);
  EXPECT_TRUE(store->recovery().snapshot_loaded);
  EXPECT_EQ(store->recovery().wal_records_replayed, 2u);
  EXPECT_EQ(store->recovery().wal_records_skipped, 0u);
  // Sequence numbers keep increasing across restarts.
  EXPECT_EQ(store->next_seq(), seq_before);
}

TEST_P(RecoveryTest, RepeatedCheckpointsKeepOnlyNewestSnapshot) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->AppendSample({true, 0, "temp"}, 500, 1.0).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->AppendSample({true, 0, "temp"}, 501, 2.0).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  size_t snapshots = 0;
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) == 0) ++snapshots;
  }
  EXPECT_EQ(snapshots, 1u);
}

TEST_P(RecoveryTest, RemovalsAreDurableThroughWalReplay) {
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->RemoveEdge(1).ok());
    // Removing vertex 1 (of 0..2) leaves a sparse id space and also drops
    // its incident edge 0.
    ASSERT_TRUE(store->RemoveVertex(1).ok());
    EXPECT_EQ(store->Checkpoint().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(store->topology().VertexCount(), 2u);
    EXPECT_EQ(store->topology().EdgeCount(), 0u);
  }
  // …but the WAL alone still recovers the post-removal state.
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_EQ(store->topology().VertexCount(), 2u);
  EXPECT_EQ(store->topology().EdgeCount(), 0u);
  EXPECT_FALSE(store->topology().HasVertex(1));
  EXPECT_TRUE(store->topology().HasVertex(2));
  EXPECT_FALSE(store->topology().HasEdge(0));
}

TEST_P(RecoveryTest, AutoCheckpointTriggersAndDefersAfterRemovals) {
  DurableOptions options;
  options.checkpoint_every = 5;
  auto store = MakeStore(options);
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  EXPECT_TRUE(store->background_error().ok())
      << store->background_error().ToString();
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  bool has_snapshot = false;
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) == 0) has_snapshot = true;
  }
  EXPECT_TRUE(has_snapshot);
  // Removals make ids sparse; subsequent auto-checkpoints defer silently.
  ASSERT_TRUE(store->RemoveVertex(1).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->AppendSample({true, 0, "temp"}, 1000 + i, 1.0).ok());
  }
  EXPECT_TRUE(store->background_error().ok());
}

TEST_P(RecoveryTest, TornWalTailIsSalvagedOnOpen) {
  std::string before;
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    before = Signature(*store->inner());
  }
  // Chop bytes off the WAL mid-record: the last record is lost, every
  // intact one survives.
  auto size = env_->GetFileSize(dir_ + "/wal.log");
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(env_->TruncateFile(dir_ + "/wal.log", *size - 3).ok());
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  EXPECT_TRUE(store->recovery().wal_torn_tail);
  EXPECT_GT(store->recovery().wal_bytes_dropped, 0u);
  EXPECT_EQ(store->recovery().wal_records_replayed, 26u);
  // The salvaged state is the full state minus exactly the last mutation
  // (an edge sample): replaying it reproduces the original state.
  ASSERT_TRUE(store->AppendSample({false, 0, "load"}, 209, 0.5 * 9).ok());
  EXPECT_EQ(Signature(*store->inner()), before);
}

TEST_P(RecoveryTest, CorruptSnapshotIsRejectedNotParsed) {
  {
    auto store = MakeStore();
    ASSERT_TRUE(store->Open().ok());
    Ingest(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // Flip one bit in the installed snapshot.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  std::string snapshot;
  for (const std::string& child : children) {
    if (child.rfind("snapshot-", 0) == 0) snapshot = dir_ + "/" + child;
  }
  ASSERT_FALSE(snapshot.empty());
  std::string text;
  ASSERT_TRUE(env_->ReadFileToString(snapshot, &text).ok());
  // Flip a bit inside a string value: the file still parses record by
  // record, so only the checksum can catch the rot.
  const size_t pos = text.find("berlin");
  ASSERT_NE(pos, std::string::npos);
  text[pos] ^= 0x04;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(snapshot, &file).ok());
    ASSERT_TRUE(file->Append(text).ok());
    ASSERT_TRUE(file->Close().ok());
  }
  auto store = MakeStore();
  EXPECT_EQ(store->Open().code(), StatusCode::kCorruption);
}

TEST_P(RecoveryTest, SnapshotTextRoundTripsBackendState) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  auto text = BuildSnapshotText(*store->inner());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto restored = GetParam().make();
  ASSERT_TRUE(RestoreFromSnapshotText(*text, restored.get()).ok());
  EXPECT_EQ(Signature(*restored), *text);
  // Series round-trip specifically.
  auto range = restored->SeriesRange({true, 0, "temp"}, Interval::All());
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->samples().size(), 10u);
  EXPECT_DOUBLE_EQ(range->samples()[3].value, 23.0);
}

TEST_P(RecoveryTest, RestoreRequiresChecksumTrailer) {
  auto store = MakeStore();
  ASSERT_TRUE(store->Open().ok());
  Ingest(store.get());
  auto text = BuildSnapshotText(*store->inner());
  ASSERT_TRUE(text.ok());
  // Drop the trailer line entirely — a parseable but truncated snapshot.
  const size_t pos = text->rfind("CHECKSUM ");
  ASSERT_NE(pos, std::string::npos);
  std::string truncated = text->substr(0, pos);
  auto restored = GetParam().make();
  EXPECT_EQ(RestoreFromSnapshotText(truncated, restored.get()).code(),
            StatusCode::kCorruption);
}

TEST_P(RecoveryTest, MutationsBeforeOpenAreRejected) {
  auto store = MakeStore();
  EXPECT_EQ(store->AddVertex({}, {}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store->AppendSample({true, 0, "k"}, 1, 1.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store->Checkpoint().code(), StatusCode::kFailedPrecondition);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, RecoveryTest,
    ::testing::Values(
        Arch{"all_in_graph",
             [] {
               return std::unique_ptr<query::QueryBackend>(
                   std::make_unique<AllInGraphStore>());
             }},
        Arch{"polyglot",
             [] {
               return std::unique_ptr<query::QueryBackend>(
                   std::make_unique<PolyglotStore>());
             }}),
    [](const ::testing::TestParamInfo<Arch>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hygraph::storage
