// Concurrency bench (DESIGN.md §10), emitted to BENCH_concurrency.json:
//
//   1. Single-writer ingest latency — per-append latency of the polyglot
//      backend under a bike-sharing-shaped load, p50/p99 from an obs
//      histogram (the baseline the mixed phase is compared against).
//   2. N-reader scan throughput — N threads scanning a sealed hypertable
//      series, N = 1, 2, 4. Sealed-chunk reads decode outside any lock, so
//      aggregate throughput must not collapse as readers are added (on the
//      single-core reference machine the expectation is roughly flat
//      scans/sec, not linear speedup).
//   3. Lock-freedom verification — the read-only phase is bracketed with
//      the "concurrency.*" counters: a scan of a sealed series must take
//      exactly two shared lock acquisitions (series-map + shard pin),
//      ZERO exclusive acquisitions, and pin every sealed chunk it reads.
//      The bench exits non-zero if the sealed-chunk read path ever takes
//      an exclusive lock — the acceptance criterion for the PR.
//   4. Mixed 1 writer + N readers — ingest p99 while scan threads churn,
//      showing writer latency under read load (shard locks are per-series,
//      so cross-series readers barely move the writer's tail).
//
// `--smoke` shrinks the workload for CI.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "storage/polyglot.h"
#include "ts/hypertable.h"
#include "workloads/bike_sharing.h"

namespace hygraph::bench {
namespace {

struct JsonResult {
  std::string name;
  double value;
  std::string unit;
};

std::vector<JsonResult>& Results() {
  static std::vector<JsonResult> results;
  return results;
}

void Record(const std::string& name, double value, const std::string& unit) {
  Results().push_back({name, value, unit});
}

double ValueAt(Timestamp t) {
  return std::sin(static_cast<double>(t) * 1e-3) * 100.0;
}

// ---------------------------------------------------------------------------
// 1. Single-writer ingest latency (polyglot backend, bike-sharing shape).

void BenchIngestBaseline(bool smoke) {
  PrintHeader("Single-writer ingest latency (polyglot)");
  workloads::BikeSharingConfig config;
  config.stations = smoke ? 12 : 60;
  config.districts = 4;
  config.days = smoke ? 1 : 3;
  config.sample_interval = 5 * kMinute;
  config.seed = 7;
  auto dataset = workloads::GenerateBikeSharing(config);
  if (!dataset.ok()) std::exit(1);

  storage::PolyglotStore store;
  auto stations = workloads::LoadIntoBackend(*dataset, &store);
  if (!stations.ok()) std::exit(1);

  const obs::Clock* clock = obs::SystemClock::Instance();
  obs::Histogram latency;
  const Timestamp from = dataset->end();
  const size_t appends = smoke ? 20000 : 200000;
  for (size_t i = 0; i < appends; ++i) {
    const auto v = (*stations)[i % stations->size()];
    const Timestamp t = from + static_cast<Timestamp>(i) * 1000;
    const uint64_t start = clock->NowNanos();
    if (!store.AppendSample({true, v, "bikes"}, t, ValueAt(t)).ok()) {
      std::exit(1);
    }
    latency.Record(clock->NowNanos() - start);
  }
  const auto snap = latency.Snapshot();
  std::printf("appends: %zu  p50: %" PRIu64 " ns  p99: %" PRIu64
              " ns  max: %" PRIu64 " ns\n",
              appends, snap.Quantile(0.5), snap.Quantile(0.99), snap.max);
  Record("ingest_baseline_p50_ns", static_cast<double>(snap.Quantile(0.5)),
         "ns");
  Record("ingest_baseline_p99_ns", static_cast<double>(snap.Quantile(0.99)),
         "ns");
}

// ---------------------------------------------------------------------------
// 2 + 3. N-reader scan throughput over a sealed series, with lock-freedom
// verification via the concurrency.* counters.

int BenchReaderScaling(bool smoke) {
  PrintHeader("N-reader sealed-scan throughput (hypertable)");
  ts::HypertableOptions options;
  options.chunk_duration = kHour;
  ts::HypertableStore store(options);
  const SeriesId id = store.Create("scaling");
  const size_t samples = smoke ? 20000 : 200000;
  for (size_t i = 0; i < samples; ++i) {
    const Timestamp t = static_cast<Timestamp>(i) * 1000;  // 1s cadence
    if (!store.Insert(id, t, ValueAt(t)).ok()) std::exit(1);
  }

  obs::Counter* shared = store.metrics()->counter("concurrency.lock_shared");
  obs::Counter* exclusive =
      store.metrics()->counter("concurrency.lock_exclusive");
  obs::Counter* pins = store.metrics()->counter("concurrency.chunk_pins");

  const size_t scans_per_reader = smoke ? 40 : 200;
  const Interval window{0, static_cast<Timestamp>(samples) * 1000};
  double single_reader_per_sec = 0.0;
  bool lock_free_ok = true;

  for (int readers : {1, 2, 4}) {
    const uint64_t shared_before = shared->value();
    const uint64_t exclusive_before = exclusive->value();
    const uint64_t pins_before = pins->value();

    std::atomic<size_t> total{0};
    const double ms = TimeMs([&] {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<size_t>(readers));
      for (int r = 0; r < readers; ++r) {
        pool.emplace_back([&] {
          for (size_t i = 0; i < scans_per_reader; ++i) {
            size_t count = 0;
            auto status = store.ScanVisit(
                id, window, [&count](const ts::Sample&) { ++count; });
            if (!status.ok() || count != samples) std::exit(1);
            total.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (auto& t : pool) t.join();
    });

    const uint64_t scans = total.load();
    const double per_sec = static_cast<double>(scans) / (ms / 1e3);
    if (readers == 1) single_reader_per_sec = per_sec;
    const uint64_t shared_delta = shared->value() - shared_before;
    const uint64_t exclusive_delta = exclusive->value() - exclusive_before;
    const uint64_t pins_delta = pins->value() - pins_before;
    std::printf(
        "readers=%d  scans/sec: %8.1f  shared-locks/scan: %.2f  "
        "exclusive: %" PRIu64 "  pinned chunks: %" PRIu64 "\n",
        readers, per_sec, static_cast<double>(shared_delta) / scans,
        exclusive_delta, pins_delta);
    Record("scan_throughput_r" + std::to_string(readers), per_sec,
           "scans/sec");

    // Lock-freedom acceptance: the pin is the ONLY lock activity — two
    // shared acquisitions per scan (series map + shard), no exclusive.
    if (exclusive_delta != 0 || shared_delta != 2 * scans ||
        pins_delta == 0) {
      std::fprintf(stderr,
                   "FAIL: sealed-chunk scan path touched locks beyond the "
                   "pin (shared=%" PRIu64 " exclusive=%" PRIu64
                   " pins=%" PRIu64 " scans=%" PRIu64 ")\n",
                   shared_delta, exclusive_delta, pins_delta, scans);
      lock_free_ok = false;
    }
  }
  Record("scan_lock_free", lock_free_ok ? 1.0 : 0.0, "bool");
  Record("scan_throughput_single", single_reader_per_sec, "scans/sec");
  return lock_free_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// 4. Mixed: one writer ingesting its own series while N readers scan a
// different, sealed series — shard locking keeps them independent.

void BenchMixed(bool smoke) {
  PrintHeader("Mixed 1 writer + N readers (independent series)");
  ts::HypertableOptions options;
  options.chunk_duration = kHour;
  ts::HypertableStore store(options);
  const SeriesId read_id = store.Create("read-side");
  const SeriesId write_id = store.Create("write-side");
  const size_t samples = smoke ? 10000 : 100000;
  for (size_t i = 0; i < samples; ++i) {
    const Timestamp t = static_cast<Timestamp>(i) * 1000;
    if (!store.Insert(read_id, t, ValueAt(t)).ok()) std::exit(1);
  }

  for (int readers : {0, 2}) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(readers));
    const Interval window{0, static_cast<Timestamp>(samples) * 1000};
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          size_t count = 0;
          auto status = store.ScanVisit(
              read_id, window, [&count](const ts::Sample&) { ++count; });
          if (!status.ok() || count != samples) std::exit(1);
        }
      });
    }

    const obs::Clock* clock = obs::SystemClock::Instance();
    obs::Histogram latency;
    const size_t appends = smoke ? 20000 : 100000;
    for (size_t i = 0; i < appends; ++i) {
      const Timestamp t = static_cast<Timestamp>(i) * 1000;
      const uint64_t start = clock->NowNanos();
      if (!store.Insert(write_id, t, ValueAt(t)).ok()) std::exit(1);
      latency.Record(clock->NowNanos() - start);
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : pool) t.join();
    // Empty the series between rounds so both rounds do identical write
    // work (every sample is older than the keep interval).
    if (!store.Retain(write_id, Interval{kMaxTimestamp - 1, kMaxTimestamp})
             .ok()) {
      std::exit(1);
    }

    const auto snap = latency.Snapshot();
    std::printf("readers=%d  ingest p50: %" PRIu64 " ns  p99: %" PRIu64
                " ns\n",
                readers, snap.Quantile(0.5), snap.Quantile(0.99));
    Record("mixed_ingest_p99_r" + std::to_string(readers),
           static_cast<double>(snap.Quantile(0.99)), "ns");
  }
}

void WriteJson() {
  FILE* f = std::fopen("BENCH_concurrency.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_concurrency.json\n");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"concurrency\",\n  \"results\": [\n");
  const auto& results = Results();
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\"}%s\n",
                 results[i].name.c_str(), results[i].value,
                 results[i].unit.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_concurrency.json (%zu results)\n",
              results.size());
}

}  // namespace
}  // namespace hygraph::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  hygraph::bench::BenchIngestBaseline(smoke);
  const int rc = hygraph::bench::BenchReaderScaling(smoke);
  hygraph::bench::BenchMixed(smoke);
  hygraph::bench::WriteJson();
  return rc;
}
