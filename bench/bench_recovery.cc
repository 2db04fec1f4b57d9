// Durability-layer benchmarks:
//   * WAL append throughput, fsync-per-record vs group commit (the cost of
//     the per-op durability guarantee DurableOptions::sync_wal buys)
//   * recovery (Open) time as a function of WAL length, with and without a
//     covering snapshot
//
// Results go to stdout and to BENCH_recovery.json in the working directory.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "storage/wal.h"

namespace hygraph::bench {
namespace {

using storage::DurableOptions;
using storage::DurableStore;
using storage::Env;
using storage::WalWriter;

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
  std::printf("  %-48s %12.2f %s\n", name.c_str(), value, unit.c_str());
  Results().push_back({name, value, unit});
}

std::string FreshDir() {
  char tmpl[] = "/tmp/hygraph_bench_recovery_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return tmpl;
}

void BenchWalAppend() {
  PrintHeader("WAL append throughput");
  Env* env = Env::Default();
  const std::string payload(128, 'x');
  const int kSynced = 400;     // fsync per record is slow by design
  const int kUnsynced = 20000;

  {
    const std::string dir = FreshDir();
    auto writer = WalWriter::Create(env, dir + "/wal.log");
    const double ms = TimeMs([&] {
      for (int i = 0; i < kSynced; ++i) {
        (void)(*writer)->Append(payload, /*sync=*/true);
      }
    });
    Record("wal_append_sync_per_record", kSynced / (ms / 1000.0), "records/s");
    std::system(("rm -rf " + dir).c_str());
  }
  {
    const std::string dir = FreshDir();
    auto writer = WalWriter::Create(env, dir + "/wal.log");
    const double ms = TimeMs([&] {
      for (int i = 0; i < kUnsynced; ++i) {
        (void)(*writer)->Append(payload, /*sync=*/false);
      }
      (void)(*writer)->Sync();  // one group commit at the end
    });
    Record("wal_append_group_commit", kUnsynced / (ms / 1000.0), "records/s");
    std::system(("rm -rf " + dir).c_str());
  }
}

// Ingests `samples` logged sample-appends into a durable store at `dir`.
void Ingest(Env* env, const std::string& dir, int samples, bool checkpoint) {
  DurableOptions options;
  options.sync_wal = false;  // WAL length, not fsync count, is the variable
  DurableStore store(env, dir, std::make_unique<storage::PolyglotStore>(),
                     options);
  if (!store.Open().ok()) std::exit(1);
  auto v = store.AddVertex({"Sensor"}, {});
  if (!v.ok()) std::exit(1);
  for (int i = 0; i < samples; ++i) {
    (void)store.AppendSample({true, *v, "temp"}, 1000 + i, 0.25 * i);
  }
  if (checkpoint && !store.Checkpoint().ok()) std::exit(1);
  (void)store.SyncWal();
}

void BenchRecovery() {
  PrintHeader("Recovery time vs WAL length (polyglot backend)");
  Env* env = Env::Default();
  for (int samples : {1000, 10000, 50000}) {
    const std::string dir = FreshDir();
    Ingest(env, dir + "/store", samples, /*checkpoint=*/false);
    DurableStore store(env, dir + "/store",
                       std::make_unique<storage::PolyglotStore>());
    const double ms = TimeMs([&] {
      if (!store.Open().ok()) std::exit(1);
    });
    Record("recover_wal_" + std::to_string(samples) + "_records", ms, "ms");
    std::system(("rm -rf " + dir).c_str());
  }

  PrintHeader("Recovery time with a covering snapshot");
  for (int samples : {50000}) {
    const std::string dir = FreshDir();
    Ingest(env, dir + "/store", samples, /*checkpoint=*/true);
    DurableStore store(env, dir + "/store",
                       std::make_unique<storage::PolyglotStore>());
    const double ms = TimeMs([&] {
      if (!store.Open().ok()) std::exit(1);
    });
    Record("recover_snapshot_" + std::to_string(samples) + "_records", ms,
           "ms");
    std::system(("rm -rf " + dir).c_str());
  }
}

void WriteJson() {
  FILE* f = std::fopen("BENCH_recovery.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_recovery.json\n");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"recovery\",\n  \"results\": [\n");
  const auto& results = Results();
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\"}%s\n",
                 results[i].name.c_str(), results[i].value,
                 results[i].unit.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_recovery.json (%zu results)\n", results.size());
}

}  // namespace
}  // namespace hygraph::bench

int main() {
  hygraph::bench::BenchWalAppend();
  hygraph::bench::BenchRecovery();
  hygraph::bench::WriteJson();
  return 0;
}
