// Chaos matrix for the fault-tolerance layer: sweep transient-I/O fault
// schedules (bounded bursts, every-Nth, probabilistic) against the durable
// store over both storage architectures and require one of exactly two
// outcomes for every schedule:
//
//   * the workload eventually completes — the retry layer absorbed every
//     hiccup (durable.retries observable, store never degraded, final
//     state equals the full oracle), or
//   * the store enters degraded read-only mode — mutations fail fast with
//     kUnavailable, reads and pinned snapshots keep serving a consistent
//     acked-prefix state, and clearing the faults + TryExitDegraded()
//     restores a writable store whose directory reopens cleanly.
//
// Never a crash, never data loss, never a third outcome. Complements
// fault_injection_test.cc, which covers the crash/recovery (terminal
// fault) half of the same matrix.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/fault_injection_env.h"
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

// Same workload script as the crash matrix: no removals, so ids stay dense
// and BuildSnapshotText is usable as the state signature throughout.
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

// The durable store applies to memory before logging, so when a mutation
// dies in the WAL the in-memory state may legitimately sit one op ahead of
// the acknowledged prefix. Every consistency check in this file accepts
// exactly {acked, acked + 1} and nothing else.
::testing::AssertionResult MatchesAckedPrefix(const BackendFactory& make,
                                              const std::string& signature,
                                              size_t acked, size_t total) {
  const std::string exact = OracleSignature(make, acked);
  if (signature == exact) return ::testing::AssertionSuccess();
  if (acked < total && signature == OracleSignature(make, acked + 1)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "state matches neither acked=" << acked << " nor acked+1";
}

// State signature of a live backend, tolerant to snapshot failure (the
// expectation fires; the sentinel keeps later comparisons meaningful).
std::string SignatureOf(const query::QueryBackend& backend) {
  auto text = BuildSnapshotText(backend);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.value_or("<snapshot error>");
}

// Retries must not sleep in tests; the schedule stays observable through
// the durable.retries counter instead.
DurableOptions FastRetryOptions() {
  DurableOptions options;
  options.retry_sleep = [](uint64_t) {};
  return options;
}

struct MatrixCase {
  const char* name;
  BackendFactory make;
};

class ChaosMatrixTest : public ::testing::TestWithParam<MatrixCase> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_chaos_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    std::system(("rm -rf " + root_).c_str());
  }

  std::string root_;
};

// What actually happened under one fault schedule.
struct ChaosOutcome {
  size_t acked = 0;       ///< ops acknowledged before the run ended
  bool completed = false; ///< every workload op acknowledged
  bool degraded = false;  ///< store flipped to read-only
};

// Runs the workload under `schedule` (applied to the env after Open) and
// checks the shared invariants: exactly one of the two legal outcomes, a
// consistent state either way, and — when degraded — fail-fast mutations,
// pinned snapshots, recoverability, and a clean reopen.
ChaosOutcome RunSchedule(
    const MatrixCase& param, const std::string& dir,
    const std::function<void(FaultInjectionEnv*)>& schedule) {
  const std::vector<Op> ops = Workload();
  ChaosOutcome outcome;

  FaultInjectionEnv fenv(Env::Default());
  DurableStore store(&fenv, dir, param.make(), FastRetryOptions());
  EXPECT_TRUE(store.Open().ok());
  schedule(&fenv);

  for (const Op& op : ops) {
    if (!ApplyDurable(&store, op).ok()) break;
    ++outcome.acked;
  }
  outcome.completed = outcome.acked == ops.size();
  outcome.degraded = store.degraded();

  // Outcome dichotomy: a workload that did not complete must have ended in
  // degraded mode — retries either absorb a fault or poison the store;
  // nothing in between.
  EXPECT_EQ(outcome.completed, !outcome.degraded)
      << "acked " << outcome.acked << " of " << ops.size();
  EXPECT_EQ(store.metrics()->gauge("durable.degraded")->value(),
            outcome.degraded ? 1.0 : 0.0);

  if (outcome.completed) {
    // The retry layer absorbed everything: full state, still writable.
    EXPECT_EQ(SignatureOf(*store.inner()),
              OracleSignature(param.make, ops.size()));
    return outcome;
  }

  // Degraded path. Reads keep serving a consistent acked-prefix state.
  const std::string live = SignatureOf(*store.inner());
  EXPECT_TRUE(
      MatchesAckedPrefix(param.make, live, outcome.acked, ops.size()));

  // A snapshot pinned now must stay bit-identical across later rejected
  // mutation attempts.
  std::shared_ptr<const query::QueryBackend> pinned = store.BeginSnapshot();
  EXPECT_TRUE(pinned != nullptr) << "backend lost snapshot support";
  const std::string pinned_before =
      pinned != nullptr ? SignatureOf(*pinned) : "<no snapshot>";

  // Every mutation now fails fast with kUnavailable — no retry loop, no
  // partial application.
  Status rejected = store.AppendSample({true, 0, "temp"}, 9'999, 3.5);
  EXPECT_TRUE(rejected.IsUnavailable()) << rejected.ToString();
  EXPECT_TRUE(store.AddVertex({"L"}, {}).status().IsUnavailable());

  if (pinned != nullptr) {
    EXPECT_EQ(pinned_before, SignatureOf(*pinned));
  }
  EXPECT_EQ(live, SignatureOf(*store.inner()))
      << "rejected mutations leaked state";

  // The hiccup clears; the operator asks the store to rejoin.
  fenv.ClearTransientFaults();
  Status exit = store.TryExitDegraded();
  EXPECT_TRUE(exit.ok()) << exit.ToString();
  EXPECT_FALSE(store.degraded());
  EXPECT_EQ(store.metrics()->gauge("durable.degraded")->value(), 0.0);
  EXPECT_TRUE(store.AppendSample({true, 0, "temp"}, 10'000, 4.5).ok());

  // The directory the degraded store left behind reopens cleanly and
  // agrees with the live store — no data loss across the whole episode.
  const std::string final_text = SignatureOf(*store.inner());
  DurableStore reopened(&fenv, dir, param.make(), FastRetryOptions());
  Status open = reopened.Open();
  EXPECT_TRUE(open.ok()) << open.ToString();
  if (open.ok()) {
    EXPECT_EQ(SignatureOf(*reopened.inner()), final_text);
  }
  return outcome;
}

// A burst shorter than the retry budget is invisible to the workload: it
// completes, and the only trace is the durable.retries counter.
TEST_P(ChaosMatrixTest, BoundedBurstsAreAbsorbedByRetries) {
  const MatrixCase& param = GetParam();
  for (uint64_t burst = 1; burst <= 3; ++burst) {
    SCOPED_TRACE("burst of " + std::to_string(burst));
    const std::string dir = root_ + "/burst" + std::to_string(burst);
    FaultInjectionEnv fenv(Env::Default());
    DurableStore store(&fenv, dir, param.make(), FastRetryOptions());
    ASSERT_TRUE(store.Open().ok());
    fenv.SetTransientFailNext(burst);

    for (const Op& op : Workload()) {
      ASSERT_TRUE(ApplyDurable(&store, op).ok());
    }
    EXPECT_FALSE(store.degraded());
    EXPECT_EQ(fenv.transient_faults(), burst);
    EXPECT_GE(store.metrics()->counter("durable.retries")->value(), burst);
    EXPECT_EQ(SignatureOf(*store.inner()),
              OracleSignature(param.make, Workload().size()));
  }
}

// A fault that outlasts every retry poisons the store: degraded read-only
// mode with the full invariant suite checked by RunSchedule.
TEST_P(ChaosMatrixTest, UnboundedFaultsEnterDegradedReadOnlyMode) {
  const ChaosOutcome outcome =
      RunSchedule(GetParam(), root_ + "/unbounded", [](FaultInjectionEnv* e) {
        e->SetTransientFailNext(1'000'000);
      });
  EXPECT_TRUE(outcome.degraded);
  EXPECT_FALSE(outcome.completed);
  // The very first logged mutation hits the wall.
  EXPECT_EQ(outcome.acked, 0u);
}

// Every-Nth-op faults: whether a given N lands as absorbed hiccups or
// retry exhaustion depends on how many fs ops each mutation issues — the
// test pins no prediction, only that the outcome is one of the two legal
// ones (RunSchedule enforces that plus all degraded-mode invariants).
TEST_P(ChaosMatrixTest, PeriodicFaultsResolveToExactlyOneLegalOutcome) {
  const MatrixCase& param = GetParam();
  for (uint64_t n = 2; n <= 6; ++n) {
    SCOPED_TRACE("fail every " + std::to_string(n));
    RunSchedule(param, root_ + "/every" + std::to_string(n),
                [n](FaultInjectionEnv* e) { e->SetTransientEveryN(n); });
  }
}

// Probabilistic faults across seeds and intensities: deterministic per
// seed, unpredictable by hand — exactly what the dichotomy check is for.
TEST_P(ChaosMatrixTest, ProbabilisticFaultsNeverProduceAThirdOutcome) {
  const MatrixCase& param = GetParam();
  int degraded_runs = 0;
  int completed_runs = 0;
  int run = 0;
  for (const double p : {0.05, 0.35, 0.75}) {
    for (const uint64_t seed : {7u, 23u, 61u}) {
      SCOPED_TRACE("p=" + std::to_string(p) +
                   " seed=" + std::to_string(seed));
      const ChaosOutcome outcome = RunSchedule(
          param, root_ + "/prob" + std::to_string(run++),
          [p, seed](FaultInjectionEnv* e) {
            e->SetTransientProbability(p, seed);
          });
      (outcome.degraded ? degraded_runs : completed_runs) += 1;
    }
  }
  // The sweep must exercise both halves of the matrix, or it proves
  // nothing about one of them.
  EXPECT_GT(degraded_runs, 0);
  EXPECT_GT(completed_runs, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ChaosMatrixTest,
    ::testing::Values(MatrixCase{"all_in_graph", MakeAllInGraph},
                      MatrixCase{"polyglot", MakePolyglot}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hygraph::storage
