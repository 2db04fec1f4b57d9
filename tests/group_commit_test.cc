// Group commit (src/server/group_commit.h): under N concurrent writers a
// batch of WAL appends is covered by ONE fsync — wal.syncs grows per batch
// while wal.appends grows per record — and every acked write survives a
// crash-reopen. Runs under TSan in CI like every other test.

#include "server/group_commit.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/executor.h"
#include "slow_sync_env.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"

namespace hygraph::server {
namespace {

using storage::DurableOptions;
using storage::DurableStore;

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_group_commit_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    env_ = storage::Env::Default();
  }

  std::unique_ptr<DurableStore> OpenStore(storage::Env* env = nullptr) {
    DurableOptions options;
    options.sync_wal = false;  // group-commit mode: sync only on SyncWal()
    auto store = std::make_unique<DurableStore>(
        env ? env : env_, dir_, std::make_unique<storage::PolyglotStore>(),
        options);
    if (!store->Open().ok()) return nullptr;
    return store;
  }

  uint64_t WalCounter(DurableStore& store, const std::string& name) {
    const auto snap = store.metrics()->Snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  std::string dir_;
  storage::Env* env_ = nullptr;
};

TEST_F(GroupCommitTest, SingleThreadCommitSyncsEachBatch) {
  auto store = OpenStore();
  ASSERT_NE(store, nullptr);
  auto v = store->AddVertex({"Sensor"}, {});
  ASSERT_TRUE(v.ok());

  GroupCommitter committer(store.get());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(committer
                    .Commit([&] {
                      return store->AppendSample({true, *v, "load"}, 1000 * i,
                                                 double(i));
                    })
                    .ok());
  }
  // No concurrency, no batching opportunity: one sync per commit.
  EXPECT_EQ(committer.batches(), 10u);
}

TEST_F(GroupCommitTest, ConcurrentWritersShareSyncsAndSurviveReopen) {
  constexpr int kWriters = 8;
  constexpr int kAppendsPerWriter = 50;

  uint64_t appends_before = 0;
  uint64_t syncs_after = 0;
  uint64_t appends_after = 0;
  graph::VertexId vertex = 0;
  {
    // A slow fsync makes batching deterministic: while the leader syncs,
    // the other writers append and park, so one sync covers many tickets.
    // Without it, a loaded machine can serialize the writers and collapse
    // every batch to size 1 (the assertion below would then flake). 20ms
    // spans several scheduler timeslices even on a single busy core.
    storage::SlowSyncEnv slow_env(env_, 20);
    auto store = OpenStore(&slow_env);
    ASSERT_NE(store, nullptr);
    auto v = store->AddVertex({"Sensor"}, {});
    ASSERT_TRUE(v.ok());
    vertex = *v;
    appends_before = WalCounter(*store, "wal.appends");
    const uint64_t syncs_before = WalCounter(*store, "wal.syncs");

    GroupCommitter committer(store.get());
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kAppendsPerWriter; ++i) {
          const Timestamp t = (int64_t{w} * kAppendsPerWriter + i) * 100;
          const Status status = committer.Commit([&] {
            return store->AppendSample({true, vertex, "load"}, t, double(w));
          });
          if (!status.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& thread : writers) thread.join();
    ASSERT_EQ(failures.load(), 0);

    appends_after = WalCounter(*store, "wal.appends");
    syncs_after = WalCounter(*store, "wal.syncs");
    EXPECT_EQ(appends_after - appends_before,
              uint64_t{kWriters} * kAppendsPerWriter);
    // The point of group commit: one fsync covers many appends. With 8
    // writers parked on the committer the batching factor is far above 2
    // in practice; assert a conservative bound so slow CI cannot flake.
    EXPECT_LT(syncs_after - syncs_before,
              (appends_after - appends_before) / 2)
        << "wal.syncs=" << syncs_after - syncs_before << " wal.appends="
        << appends_after - appends_before;
    EXPECT_EQ(committer.batches(), syncs_after - syncs_before);
  }

  // Every acked write must be on disk: reopen the directory and count.
  auto reopened = OpenStore();
  ASSERT_NE(reopened, nullptr);
  auto result = query::Execute(
      *reopened,
      "MATCH (s:Sensor) RETURN ts_count(s.load, 0, 1000000000) AS n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->row_count(), 1u);
  auto n = result->At(0, "n");
  ASSERT_TRUE(n.ok());
  auto count = n->ToDouble();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, double(kWriters) * kAppendsPerWriter);
}

TEST_F(GroupCommitTest, FailedAppendDoesNotTicket) {
  auto store = OpenStore();
  ASSERT_NE(store, nullptr);
  GroupCommitter committer(store.get());
  const Status status =
      committer.Commit([&] { return Status::IOError("synthetic"); });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(committer.batches(), 0u);
}

TEST_F(GroupCommitTest, NoSyncCommitSkipsTheWait) {
  auto store = OpenStore();
  ASSERT_NE(store, nullptr);
  auto v = store->AddVertex({"Sensor"}, {});
  ASSERT_TRUE(v.ok());
  GroupCommitter committer(store.get());
  ASSERT_TRUE(committer
                  .CommitNoSync([&] {
                    return store->AppendSample({true, *v, "load"}, 1, 1.0);
                  })
                  .ok());
  EXPECT_EQ(committer.batches(), 0u);
}

}  // namespace
}  // namespace hygraph::server
