// Cold-tier benchmarks (DESIGN.md §15):
//   * full-series scan latency over spilled chunks as a function of the
//     chunk-cache budget (all-resident, partial, thrash), cold vs warm
//   * checkpoint spill throughput (sealed samples moved to segment files),
//     with the segment files created and fsyncs run per checkpoint, for
//     one series and for many
//   * recovery (Open) time as a function of the cold fraction — the
//     tentpole claim is that recovery cost tracks HOT data, not history
//
// Results go to stdout and to BENCH_tiering.json in the working directory.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "storage/segment/segment_store.h"
#include "ts/hypertable.h"

namespace hygraph::bench {
namespace {

using storage::DurableOptions;
using storage::DurableStore;
using storage::Env;

// --smoke shrinks the workload so CI just proves the paths run.
int kSamples = 40000;
int kSpillSeries = 300;

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
  char tmpl[] = "/tmp/hygraph_bench_tiering_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return tmpl;
}

DurableOptions Tiered(size_t cache_budget) {
  DurableOptions options;
  options.sync_wal = false;
  options.tiering.enabled = true;
  options.tiering.cache_budget_bytes = cache_budget;
  return options;
}

std::unique_ptr<storage::PolyglotStore> Backend() {
  // ~256 samples per chunk: kSamples yields ~156 chunks, enough that the
  // cache-budget sweep has real residency ratios to vary.
  ts::HypertableOptions o;
  o.chunk_duration = 256;
  return std::make_unique<storage::PolyglotStore>(o);
}

std::unique_ptr<DurableStore> OpenStore(const std::string& dir,
                                        size_t cache_budget) {
  auto store = std::make_unique<DurableStore>(Env::Default(), dir, Backend(),
                                              Tiered(cache_budget));
  if (!store->Open().ok()) std::exit(1);
  return store;
}

/// Ingests kSamples appends; `cold_fraction` of them are checkpointed into
/// the cold tier, the rest stay hot (snapshot + WAL tail).
void Ingest(const std::string& dir, double cold_fraction) {
  auto store = OpenStore(dir, 64u << 20);
  auto v = store->AddVertex({"Sensor"}, {});
  if (!v.ok()) std::exit(1);
  const int boundary = static_cast<int>(kSamples * cold_fraction);
  for (int i = 0; i < boundary; ++i) {
    (void)store->AppendSample({true, *v, "temp"}, i, 0.25 * i);
  }
  if (boundary > 0 && !store->Checkpoint().ok()) std::exit(1);
  for (int i = boundary; i < kSamples; ++i) {
    (void)store->AppendSample({true, *v, "temp"}, i, 0.25 * i);
  }
  (void)store->SyncWal();
}

double SweepMs(DurableStore* store) {
  return TimeMs([&] {
    auto range = store->SeriesRange({true, 0, "temp"}, Interval::All());
    if (!range.ok() || range->samples().size() < size_t(kSamples) / 2) {
      std::fprintf(stderr, "scan lost samples\n");
      std::exit(1);
    }
  });
}

void BenchScanVsCacheBudget() {
  PrintHeader("Cold scan latency vs chunk-cache budget");
  const std::string dir = FreshDir();
  Ingest(dir + "/store", /*cold_fraction=*/1.0);
  struct Point {
    const char* label;
    size_t budget;
  };
  // All-resident, roughly half the encoded cold bytes, and a budget
  // smaller than one chunk (every pin is a miss).
  for (const Point p : {Point{"resident", 64u << 20},
                        Point{"partial", 24u << 10}, Point{"thrash", 64}}) {
    auto store = OpenStore(dir + "/store", p.budget);
    const double cold_ms = SweepMs(store.get());
    const double warm_ms = SweepMs(store.get());
    const auto stats = store->cold_tier()->cache_stats();
    Record(std::string("scan_cold_") + p.label, cold_ms, "ms");
    Record(std::string("scan_warm_") + p.label, warm_ms, "ms");
    Record(std::string("cache_miss_rate_") + p.label,
           stats.hits + stats.misses == 0
               ? 0.0
               : 100.0 * double(stats.misses) /
                     double(stats.hits + stats.misses),
           "%");
  }
  std::system(("rm -rf " + dir).c_str());
}

/// One checkpoint spilling `series` series of `per_series` samples each:
/// its throughput, and the segment files and fsyncs it cost.
void SpillCase(const std::string& suffix, int series, int per_series) {
  const std::string dir = FreshDir();
  auto store = OpenStore(dir + "/store", 64u << 20);
  for (int s = 0; s < series; ++s) {
    auto v = store->AddVertex({"Sensor"}, {});
    if (!v.ok()) std::exit(1);
    for (int i = 0; i < per_series; ++i) {
      (void)store->AppendSample({true, *v, "temp"}, i, 0.25 * i);
    }
  }
  const size_t sealed =
      store->inner()->series_hypertable()->MemoryUsage().sealed_samples;
  obs::MetricsRegistry* metrics = store->metrics();
  const double ms = TimeMs([&] {
    if (!store->Checkpoint().ok()) std::exit(1);
  });
  Record("checkpoint_spill_sealed_samples" + suffix, double(sealed),
         "samples");
  Record("checkpoint_spill_throughput" + suffix, sealed / (ms / 1000.0),
         "samples/s");
  const auto hs = store->inner()->series_hypertable()->stats();
  Record("checkpoint_cold_bytes" + suffix, double(hs.cold_bytes_spilled),
         "bytes");
  Record("checkpoint_segment_files" + suffix,
         double(metrics->counter("coldtier.segment_files")->value()), "files");
  Record("checkpoint_segment_fsyncs" + suffix,
         double(metrics->counter("coldtier.segment_syncs")->value()),
         "fsyncs");
  std::system(("rm -rf " + dir).c_str());
}

void BenchSpillThroughput() {
  PrintHeader("Checkpoint spill throughput");
  SpillCase("", 1, kSamples);
  // Four chunks per series: the checkpoint spills three from each.
  SpillCase("_many_series", kSpillSeries, 4 * 256);
}

void BenchRecoveryVsColdFraction() {
  PrintHeader("Recovery time vs cold fraction (same total history)");
  for (const double fraction : {0.0, 0.5, 1.0}) {
    const std::string dir = FreshDir();
    Ingest(dir + "/store", fraction);
    auto store = std::make_unique<DurableStore>(Env::Default(), dir + "/store",
                                                Backend(), Tiered(64u << 20));
    const double ms = TimeMs([&] {
      if (!store->Open().ok()) std::exit(1);
    });
    const uint64_t adopted = store->recovery().cold_chunks_adopted;
    Record("recover_cold_fraction_" + std::to_string(int(fraction * 100)), ms,
           "ms");
    Record("recover_adopted_chunks_" + std::to_string(int(fraction * 100)),
           double(adopted), "chunks");
    std::system(("rm -rf " + dir).c_str());
  }
}

void WriteJson() {
  FILE* f = std::fopen("BENCH_tiering.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_tiering.json\n");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"tiering\",\n  \"results\": [\n");
  const auto& results = Results();
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\"}%s\n",
                 results[i].name.c_str(), results[i].value,
                 results[i].unit.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_tiering.json (%zu results)\n", results.size());
}

}  // namespace
}  // namespace hygraph::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      hygraph::bench::kSamples = 4000;
      hygraph::bench::kSpillSeries = 20;
    }
  }
  hygraph::bench::BenchScanVsCacheBudget();
  hygraph::bench::BenchSpillThroughput();
  hygraph::bench::BenchRecoveryVsColdFraction();
  hygraph::bench::WriteJson();
  return 0;
}
