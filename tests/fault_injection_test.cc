#include "storage/fault_injection_env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"

namespace hygraph::storage {
namespace {

using BackendFactory = std::function<std::unique_ptr<query::QueryBackend>()>;

std::unique_ptr<query::QueryBackend> MakeAllInGraph() {
  return std::make_unique<AllInGraphStore>();
}
std::unique_ptr<query::QueryBackend> MakePolyglot() {
  return std::make_unique<PolyglotStore>();
}

// The workload: a fixed script of logical operations, each applied through
// whatever interface the caller supplies. No removals — ids stay dense so
// BuildSnapshotText is usable as the state signature throughout.
struct Op {
  enum Kind { kAddVertex, kAddEdge, kSetVertexProp, kAppendVertexSample,
              kAppendEdgeSample } kind;
  uint64_t a = 0, b = 0;
  int64_t t = 0;
  double value = 0.0;
};

std::vector<Op> Workload() {
  std::vector<Op> ops;
  ops.push_back({Op::kAddVertex});
  ops.push_back({Op::kAddVertex});
  ops.push_back({Op::kAddEdge, 0, 1});
  ops.push_back({Op::kSetVertexProp, 0});
  for (int i = 0; i < 4; ++i) {
    ops.push_back({Op::kAppendVertexSample, 0, 0, 100 + i, 1.5 * i});
    ops.push_back({Op::kAppendEdgeSample, 0, 0, 200 + i, 2.5 * i});
  }
  ops.push_back({Op::kAddVertex});
  ops.push_back({Op::kAddEdge, 2, 0});
  ops.push_back({Op::kAppendVertexSample, 2, 0, 300, 7.0});
  return ops;
}

// Applies one op to a DurableStore (logged path).
Status ApplyDurable(DurableStore* store, const Op& op) {
  switch (op.kind) {
    case Op::kAddVertex:
      return store->AddVertex({"L"}, {{"n", Value(int64_t{7})}}).status();
    case Op::kAddEdge:
      return store->AddEdge(op.a, op.b, "rel", {}).status();
    case Op::kSetVertexProp:
      return store->SetVertexProperty(op.a, "flag", Value(true));
    case Op::kAppendVertexSample:
      return store->AppendSample({true, op.a, "temp"}, op.t, op.value);
    case Op::kAppendEdgeSample:
      return store->AppendSample({false, op.a, "load"}, op.t, op.value);
  }
  return Status::Internal("unreachable");
}

// Applies one op directly to a plain backend (the oracle).
Status ApplyOracle(query::QueryBackend* backend, const Op& op) {
  switch (op.kind) {
    case Op::kAddVertex:
      backend->mutable_topology()->AddVertex({"L"}, {{"n", Value(int64_t{7})}});
      return Status::OK();
    case Op::kAddEdge:
      return backend->mutable_topology()->AddEdge(op.a, op.b, "rel", {})
          .status();
    case Op::kSetVertexProp:
      return backend->mutable_topology()->SetVertexProperty(op.a, "flag",
                                                            Value(true));
    case Op::kAppendVertexSample:
      return backend->AppendSample({true, op.a, "temp"}, op.t, op.value);
    case Op::kAppendEdgeSample:
      return backend->AppendSample({false, op.a, "load"}, op.t, op.value);
  }
  return Status::Internal("unreachable");
}

// State signature of the first `acked` workload ops, built on a fresh
// oracle backend.
std::string OracleSignature(const BackendFactory& make, size_t acked) {
  auto oracle = make();
  const std::vector<Op> ops = Workload();
  for (size_t i = 0; i < acked; ++i) {
    EXPECT_TRUE(ApplyOracle(oracle.get(), ops[i]).ok());
  }
  auto text = BuildSnapshotText(*oracle);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.value_or("<oracle error>");
}

struct MatrixCase {
  const char* name;
  BackendFactory make;
  FaultInjectionEnv::UnsyncedLoss loss;
};

class FaultMatrixTest : public ::testing::TestWithParam<MatrixCase> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_fault_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::system(("rm -rf " + root_).c_str());
  }
  std::string root_;
};

// The heart of the PR: crash after every possible k-th filesystem
// operation, drop un-synced data, recover, and require the recovered state
// to equal the oracle of acknowledged operations — never a crash, never a
// corrupt result.
TEST_P(FaultMatrixTest, RecoveredStateMatchesAckedPrefixForEveryCrashPoint) {
  const MatrixCase& param = GetParam();
  const std::vector<Op> ops = Workload();

  // First, an uninterrupted run to learn the total op budget.
  uint64_t total_fs_ops = 0;
  {
    FaultInjectionEnv fenv(Env::Default());
    DurableStore store(&fenv, root_ + "/probe", param.make());
    ASSERT_TRUE(store.Open().ok());
    for (const Op& op : ops) ASSERT_TRUE(ApplyDurable(&store, op).ok());
    total_fs_ops = fenv.op_count();
  }

  size_t torn_tails_seen = 0;
  for (uint64_t k = 0; k < total_fs_ops; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " fs ops");
    const std::string dir = root_ + "/run" + std::to_string(k);
    FaultInjectionEnv fenv(Env::Default());

    size_t acked = 0;
    {
      DurableStore store(&fenv, dir, param.make());
      fenv.SetCrashAfter(k);  // may land inside Open() itself
      if (store.Open().ok()) {
        for (const Op& op : ops) {
          if (!ApplyDurable(&store, op).ok()) break;
          ++acked;
        }
      }
    }

    ASSERT_TRUE(fenv.DropUnsyncedData(param.loss).ok());
    fenv.Revive();

    // Recovery must succeed and must never crash the process.
    DurableStore recovered(&fenv, dir, param.make());
    Status open = recovered.Open();
    ASSERT_TRUE(open.ok()) << open.ToString();
    if (recovered.recovery().wal_torn_tail) ++torn_tails_seen;

    auto text = BuildSnapshotText(*recovered.inner());
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    if (param.loss == FaultInjectionEnv::UnsyncedLoss::kDropAll) {
      // fsync barrier honored: an acknowledged op is durable, an
      // unacknowledged one leaves no trace.
      EXPECT_EQ(*text, OracleSignature(param.make, acked));
    } else {
      // A surviving un-synced prefix may complete the in-flight record, so
      // recovery may legitimately include one more op than was acked.
      const std::string exact = OracleSignature(param.make, acked);
      const std::string plus_one =
          acked < ops.size() ? OracleSignature(param.make, acked + 1) : exact;
      EXPECT_TRUE(*text == exact || *text == plus_one)
          << "recovered state matches neither acked=" << acked
          << " nor acked+1";
    }

    // The revived store must be writable again: recovery ends in a
    // functional epoch, not a read-only wreck.
    if (recovered.topology().VertexCount() >= 1) {
      EXPECT_TRUE(
          recovered.AppendSample({true, 0, "temp"}, 9000, 1.0).ok());
    }
  }
  // The matrix must actually exercise torn tails under kKeepPrefix.
  if (param.loss == FaultInjectionEnv::UnsyncedLoss::kKeepPrefix) {
    EXPECT_GT(torn_tails_seen, 0u);
  }
}

// With sync disabled, group commit trades the per-op guarantee for
// throughput: only SyncWal()-covered records must survive kDropAll.
TEST_P(FaultMatrixTest, GroupCommitPreservesSyncedPrefix) {
  const MatrixCase& param = GetParam();
  const std::vector<Op> ops = Workload();
  const std::string dir = root_ + "/group";
  FaultInjectionEnv fenv(Env::Default());
  DurableOptions options;
  options.sync_wal = false;

  size_t synced_ops = 0;
  {
    DurableStore store(&fenv, dir, param.make(), options);
    ASSERT_TRUE(store.Open().ok());
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_TRUE(ApplyDurable(&store, ops[i]).ok());
      if (i + 1 == ops.size() / 2) {
        ASSERT_TRUE(store.SyncWal().ok());
        synced_ops = i + 1;
      }
    }
    fenv.Crash();
  }
  ASSERT_TRUE(
      fenv.DropUnsyncedData(FaultInjectionEnv::UnsyncedLoss::kDropAll).ok());
  fenv.Revive();

  DurableStore recovered(&fenv, dir, param.make(), options);
  ASSERT_TRUE(recovered.Open().ok());
  auto text = BuildSnapshotText(*recovered.inner());
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, OracleSignature(param.make, synced_ops));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultMatrixTest,
    ::testing::Values(
        MatrixCase{"all_in_graph_drop_all", MakeAllInGraph,
                   FaultInjectionEnv::UnsyncedLoss::kDropAll},
        MatrixCase{"all_in_graph_keep_prefix", MakeAllInGraph,
                   FaultInjectionEnv::UnsyncedLoss::kKeepPrefix},
        MatrixCase{"polyglot_drop_all", MakePolyglot,
                   FaultInjectionEnv::UnsyncedLoss::kDropAll},
        MatrixCase{"polyglot_keep_prefix", MakePolyglot,
                   FaultInjectionEnv::UnsyncedLoss::kKeepPrefix}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hygraph::storage
