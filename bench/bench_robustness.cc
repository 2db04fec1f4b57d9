// Robustness-layer benchmarks (ISSUE 6 acceptance numbers):
//   * cancellation-checkpoint overhead: an uncancelled sealed-chunk scan
//     with a governed QueryContext installed vs the ungoverned baseline —
//     the Charge() fast path must stay within ~2% (two counter bumps and
//     a relaxed atomic load per batch)
//   * deadline-abort latency: how long past its deadline a cut query
//     actually runs (p99 over many aborts; the contract is < 2x deadline,
//     granularity one checkpoint interval)
//   * degraded-mode read throughput: reads served while the durable store
//     is poisoned read-only vs the same store healthy
//
// Results go to stdout and to BENCH_robustness.json in the working
// directory. `--smoke` shrinks workloads for CI.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/context.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/fault_injection_env.h"
#include "storage/polyglot.h"
#include "ts/hypertable.h"

namespace hygraph::bench {
namespace {

struct JsonResult {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<JsonResult>& Results() {
  static std::vector<JsonResult> results;
  return results;
}

void Record(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-48s %12.3f %s\n", name.c_str(), value, unit.c_str());
  Results().push_back({name, value, unit});
}

std::string FreshDir() {
  char tmpl[] = "/tmp/hygraph_bench_robustness_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return tmpl;
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(xs.size()));
  return xs[std::min(idx, xs.size() - 1)];
}

// -- cancellation-checkpoint overhead ----------------------------------------

void BenchCheckpointOverhead(bool smoke) {
  PrintHeader("Cancellation-checkpoint overhead (sealed-chunk scan)");
  const int samples = smoke ? 200'000 : 2'000'000;
  const size_t repetitions = smoke ? 5 : 11;

  ts::HypertableStore table;
  const SeriesId id = table.Create("load");
  for (int i = 0; i < samples; ++i) {
    (void)table.Insert(id, i * kMinute, 0.5 * i);
  }

  double checksum = 0.0;
  auto scan_all = [&] {
    auto scanned = table.Scan(id, Interval::All());
    if (!scanned.ok()) std::exit(1);
    checksum += static_cast<double>(scanned->size());
  };

  const RunningStats baseline = Repeat(repetitions, scan_all);
  const RunningStats governed = Repeat(repetitions, [&] {
    // A live context with no deadline or budget: every sample still passes
    // through Charge()'s fast path — this is the pure checkpoint cost.
    QueryContext ctx;
    QueryContext::Scope scope(&ctx);
    scan_all();
  });

  const double base_ms = baseline.mean();
  const double gov_ms = governed.mean();
  const double overhead_pct =
      base_ms > 0.0 ? (gov_ms - base_ms) / base_ms * 100.0 : 0.0;
  Record("scan_ungoverned", base_ms, "ms");
  Record("scan_governed", gov_ms, "ms");
  Record("checkpoint_overhead", overhead_pct, "%");
  if (checksum < 0.0) std::printf("%f", checksum);  // keep the scans live
}

// -- deadline-abort latency --------------------------------------------------

void BenchDeadlineAbort(bool smoke) {
  PrintHeader("Deadline-abort latency (combinatorial match, 25ms deadline)");
  const int vertices = smoke ? 120 : 300;
  const int aborts = smoke ? 10 : 40;
  const double deadline_ms = 25.0;

  storage::AllInGraphStore store;
  graph::PropertyGraph* g = store.mutable_topology();
  for (int i = 0; i < vertices; ++i) {
    g->AddVertex({"V"}, {{"id", Value(int64_t{i})}});
  }
  auto ast = query::Parse("MATCH (a), (b), (c) RETURN a.id TIMEOUT 25");
  if (!ast.ok()) std::exit(1);
  auto plan = query::CompileQuery(*ast);
  if (!plan.ok()) std::exit(1);

  std::vector<double> latencies;
  for (int i = 0; i < aborts; ++i) {
    const double ms = TimeMs([&] {
      auto result = query::ExecutePlan(store, *plan);
      if (result.ok() || !result.status().IsDeadlineExceeded()) {
        std::fprintf(stderr, "expected a deadline abort\n");
        std::exit(1);
      }
    });
    latencies.push_back(ms);
  }
  Record("deadline_ms", deadline_ms, "ms");
  Record("abort_latency_p50", Percentile(latencies, 0.50), "ms");
  Record("abort_latency_p99", Percentile(latencies, 0.99), "ms");
  Record("abort_overrun_p99",
         Percentile(latencies, 0.99) / deadline_ms, "x deadline");
}

// -- degraded-mode read throughput -------------------------------------------

void BenchDegradedReads(bool smoke) {
  PrintHeader("Degraded read-only mode: read throughput");
  const int samples = smoke ? 5'000 : 50'000;
  const int reads = smoke ? 200 : 2'000;

  storage::FaultInjectionEnv fenv(storage::Env::Default());
  const std::string dir = FreshDir();
  storage::DurableOptions options;
  options.retry_sleep = [](uint64_t) {};  // exhaust retries instantly
  storage::DurableStore store(&fenv, dir + "/store",
                              std::make_unique<storage::PolyglotStore>(),
                              options);
  if (!store.Open().ok()) std::exit(1);
  auto v = store.AddVertex({"Sensor"}, {});
  if (!v.ok()) std::exit(1);
  for (int i = 0; i < samples; ++i) {
    (void)store.AppendSample({true, *v, "temp"}, 1000 + i * kMinute, 0.25 * i);
  }

  double checksum = 0.0;
  auto read_pass = [&] {
    for (int i = 0; i < reads; ++i) {
      auto agg = store.SeriesAggregate({true, *v, "temp"}, Interval::All(),
                                       ts::AggKind::kSum);
      if (!agg.ok()) std::exit(1);
      checksum += *agg;
    }
  };

  const double healthy_ms = TimeMs(read_pass);
  Record("healthy_reads", reads / (healthy_ms / 1000.0), "aggregates/s");

  // Poison the store: unbounded transient faults exhaust the retry budget
  // on the next mutation and flip it to degraded read-only.
  fenv.SetTransientFailNext(~uint64_t{0} / 2);
  (void)store.AppendSample({true, *v, "temp"}, 0, 0.0);
  if (!store.degraded()) {
    std::fprintf(stderr, "store did not enter degraded mode\n");
    std::exit(1);
  }
  const double degraded_ms = TimeMs(read_pass);
  Record("degraded_reads", reads / (degraded_ms / 1000.0), "aggregates/s");
  Record("degraded_read_retention",
         healthy_ms > 0.0 ? healthy_ms / degraded_ms * 100.0 : 0.0, "%");

  std::system(("rm -rf " + dir).c_str());
  if (checksum < 0.0) std::printf("%f", checksum);
}

void WriteJson() {
  FILE* f = std::fopen("BENCH_robustness.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_robustness.json\n");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"robustness\",\n  \"results\": [\n");
  const auto& results = Results();
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\"}%s\n",
                 results[i].name.c_str(), results[i].value,
                 results[i].unit.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_robustness.json (%zu results)\n", results.size());
}

}  // namespace
}  // namespace hygraph::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  hygraph::bench::BenchCheckpointOverhead(smoke);
  hygraph::bench::BenchDeadlineAbort(smoke);
  hygraph::bench::BenchDegradedReads(smoke);
  hygraph::bench::WriteJson();
  return 0;
}
