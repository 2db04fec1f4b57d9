// Server load bench (DESIGN.md §14), emitted to BENCH_server.json:
//
//   1. Open-loop HGQL query sweep — a Poisson arrival process at each
//      offered QPS level; W worker threads with their own HgqlClient drain
//      a shared precomputed arrival schedule over loopback TCP. Latency is
//      measured from the SCHEDULED arrival, not the actual send, so queueing
//      delay under overload is charged to the server instead of silently
//      dropped (no coordinated omission). Per level: achieved QPS and
//      p50/p99/p999. The knee is the first level where the server can no
//      longer keep up (achieved < 90% of offered, or p99 beyond 20x the
//      unloaded baseline); if the sweep never saturates, the knee reports
//      the last level as a lower bound.
//   2. Group-commit wire ingest — 8 concurrent writer connections issuing
//      durable single-sample appends, reporting the fsync batching factor
//      (wal.appends / wal.syncs — far above 1 whenever writers overlap).
//      The deterministic batching guarantee is asserted in
//      tests/group_commit_test.cc; here the factor is a measurement.
//
// `--smoke` shrinks the sweep for CI.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "obs/clock.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"

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

uint64_t Counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

uint64_t QuantileNs(std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(
      sorted.size() - 1, static_cast<size_t>(q * double(sorted.size())));
  return sorted[idx];
}

// ---------------------------------------------------------------------------
// Fixture: a durable store with a small station graph behind a server.

struct Fixture {
  std::unique_ptr<storage::DurableStore> store;
  std::unique_ptr<server::HgqlServer> server;
  graph::VertexId vertex = 0;
};

Fixture StartFixture() {
  Fixture f;
  char tmpl[] = "/tmp/hygraph_bench_server_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) std::exit(1);
  storage::DurableOptions options;
  options.sync_wal = false;  // group-commit mode
  f.store = std::make_unique<storage::DurableStore>(
      storage::Env::Default(), tmpl,
      std::make_unique<storage::PolyglotStore>(), options);
  if (!f.store->Open().ok()) std::exit(1);
  const char* cities[] = {"berlin", "munich", "hamburg", "cologne"};
  for (const char* city : cities) {
    auto v = f.store->AddVertex({"Station"}, {{"city", Value(city)}});
    if (!v.ok()) std::exit(1);
    f.vertex = *v;
    for (int i = 0; i < 100; ++i) {
      if (!f.store->AppendSample({true, *v, "load"}, 1000 * i, double(i))
               .ok()) {
        std::exit(1);
      }
    }
  }
  server::ServerOptions server_options;
  server_options.max_connections = 64;
  server_options.max_inflight = 64;
  f.server = std::make_unique<server::HgqlServer>(
      f.store.get(), f.store.get(), server_options);
  if (!f.server->Start().ok()) std::exit(1);
  return f;
}

// ---------------------------------------------------------------------------
// 1. Open-loop Poisson query sweep.

struct LevelResult {
  double offered_qps = 0;
  double achieved_qps = 0;
  uint64_t p50 = 0, p99 = 0, p999 = 0;
  size_t errors = 0;
};

LevelResult RunLevel(const Fixture& f, double qps, double seconds,
                     size_t workers) {
  // Precompute the Poisson arrival schedule (exponential inter-arrival
  // gaps) so workers only consume it — the generator never throttles the
  // load it is supposed to offer.
  Rng rng(42);
  std::vector<int64_t> arrivals;
  const size_t count = std::min<size_t>(
      static_cast<size_t>(qps * seconds), 40000);
  arrivals.reserve(count);
  double t_ns = 0;
  for (size_t i = 0; i < count; ++i) {
    t_ns += rng.NextExponential(1e9 / qps);
    arrivals.push_back(static_cast<int64_t>(t_ns));
  }

  const std::string query = "MATCH (s:Station) RETURN s.city AS c LIMIT 1";
  const obs::Clock* clock = obs::SystemClock::Instance();
  std::atomic<size_t> next{0};
  std::atomic<size_t> errors{0};
  std::vector<std::vector<uint64_t>> latencies(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const int64_t start_ns = static_cast<int64_t>(clock->NowNanos());
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      auto client =
          server::HgqlClient::Connect("127.0.0.1", f.server->port(), "bench");
      if (!client.ok()) {
        errors.fetch_add(arrivals.size());  // poison the level
        return;
      }
      latencies[w].reserve(arrivals.size() / workers + 1);
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= arrivals.size()) break;
        const int64_t target = start_ns + arrivals[i];
        const int64_t now = static_cast<int64_t>(clock->NowNanos());
        if (now < target) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
        }
        auto result = client->Query(query);
        const int64_t done = static_cast<int64_t>(clock->NowNanos());
        if (result.ok()) {
          // From the scheduled arrival: queueing delay counts.
          latencies[w].push_back(static_cast<uint64_t>(done - target));
        } else {
          errors.fetch_add(1);
        }
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();
  const int64_t end_ns = static_cast<int64_t>(clock->NowNanos());

  std::vector<uint64_t> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  LevelResult r;
  r.offered_qps = qps;
  r.errors = errors.load();
  const double wall_s = double(end_ns - start_ns) / 1e9;
  r.achieved_qps = wall_s > 0 ? double(all.size()) / wall_s : 0;
  r.p50 = QuantileNs(all, 0.50);
  r.p99 = QuantileNs(all, 0.99);
  r.p999 = QuantileNs(all, 0.999);
  return r;
}

void BenchQuerySweep(const Fixture& f, bool smoke) {
  PrintHeader("Open-loop HGQL query sweep (Poisson arrivals, loopback TCP)");
  const std::vector<double> levels =
      smoke ? std::vector<double>{200, 1000}
            : std::vector<double>{500, 2000, 8000, 16000, 32000, 64000};
  const double seconds = smoke ? 0.5 : 2.0;
  const size_t workers = smoke ? 4 : 8;

  double knee_qps = 0;
  uint64_t base_p99 = 0;
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelResult r = RunLevel(f, levels[i], seconds, workers);
    if (i == 0) base_p99 = r.p99 > 0 ? r.p99 : 1;
    std::printf("offered %8.0f qps  achieved %8.0f qps  p50 %8" PRIu64
                " ns  p99 %9" PRIu64 " ns  p999 %9" PRIu64 " ns  errors %zu\n",
                r.offered_qps, r.achieved_qps, r.p50, r.p99, r.p999, r.errors);
    const std::string prefix =
        "qps" + std::to_string(static_cast<int64_t>(r.offered_qps));
    Record(prefix + "_achieved_qps", r.achieved_qps, "qps");
    Record(prefix + "_p50_ns", double(r.p50), "ns");
    Record(prefix + "_p99_ns", double(r.p99), "ns");
    Record(prefix + "_p999_ns", double(r.p999), "ns");
    const bool saturated = r.achieved_qps < 0.9 * r.offered_qps ||
                           r.p99 > 20 * base_p99;
    if (saturated && knee_qps == 0) knee_qps = r.offered_qps;
  }
  if (knee_qps == 0) {
    // Never saturated: the last level is a lower bound on capacity.
    knee_qps = levels.back();
    std::printf("sweep did not saturate; knee >= %.0f qps\n", knee_qps);
  } else {
    std::printf("knee (first overloaded level): %.0f qps\n", knee_qps);
  }
  Record("knee_qps", knee_qps, "qps");
}

// ---------------------------------------------------------------------------
// 2. Group-commit wire ingest: 8 writers, fsyncs must batch.

int BenchGroupCommitIngest(const Fixture& f, bool smoke) {
  PrintHeader("Group-commit wire ingest (8 durable writers)");
  const size_t writers = 8;
  const size_t appends_per_writer = smoke ? 50 : 400;
  const auto before = f.server->MergedMetrics();
  const uint64_t appends_before = Counter(before, "wal.appends");
  const uint64_t syncs_before = Counter(before, "wal.syncs");

  const obs::Clock* clock = obs::SystemClock::Instance();
  std::atomic<size_t> errors{0};
  std::vector<std::vector<uint64_t>> latencies(writers);
  std::vector<std::thread> threads;
  threads.reserve(writers);
  const uint64_t start_ns = clock->NowNanos();
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto client =
          server::HgqlClient::Connect("127.0.0.1", f.server->port(), "bench");
      if (!client.ok()) {
        errors.fetch_add(appends_per_writer);
        return;
      }
      for (size_t i = 0; i < appends_per_writer; ++i) {
        server::SampleUpdate s;
        s.id = f.vertex;
        s.timestamp =
            static_cast<Timestamp>(5000000 + w * appends_per_writer + i);
        s.value = double(w);
        s.key = "bench";
        const uint64_t t0 = clock->NowNanos();
        if (client->Append({s}).ok()) {
          latencies[w].push_back(clock->NowNanos() - t0);
        } else {
          errors.fetch_add(1);
        }
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = double(clock->NowNanos() - start_ns) / 1e9;

  const auto after = f.server->MergedMetrics();
  const uint64_t appends = Counter(after, "wal.appends") - appends_before;
  const uint64_t syncs = Counter(after, "wal.syncs") - syncs_before;
  std::vector<uint64_t> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  const double batching = syncs > 0 ? double(appends) / double(syncs) : 0;
  std::printf("appends %" PRIu64 "  fsyncs %" PRIu64
              "  batching %.1fx  throughput %.0f appends/s  commit p50 %"
              PRIu64 " ns  p99 %" PRIu64 " ns  errors %zu\n",
              appends, syncs, batching,
              wall_s > 0 ? double(all.size()) / wall_s : 0,
              QuantileNs(all, 0.50), QuantileNs(all, 0.99), errors.load());
  Record("group_commit_appends", double(appends), "count");
  Record("group_commit_syncs", double(syncs), "count");
  Record("group_commit_batching", batching, "x");
  Record("group_commit_p50_ns", double(QuantileNs(all, 0.50)), "ns");
  Record("group_commit_p99_ns", double(QuantileNs(all, 0.99)), "ns");

  if (errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %zu append errors\n", errors.load());
    return 1;
  }
  // Accounting sanity: the committer can never sync more often than it
  // appends. Batching DEPTH is workload- and disk-dependent (a fast fsync
  // shrinks the window writers can pile into), so it is reported above and
  // asserted deterministically in tests/group_commit_test.cc instead.
  if (syncs > appends) {
    std::fprintf(stderr,
                 "FAIL: more fsyncs than appends (syncs=%" PRIu64
                 " appends=%" PRIu64 ")\n",
                 syncs, appends);
    return 1;
  }
  if (batching < 2.0) {
    std::fprintf(stderr,
                 "WARN: low batching factor %.1fx — fsync on this volume may "
                 "be too fast for writers to overlap\n",
                 batching);
  }
  return 0;
}

void WriteJson() {
  FILE* f = std::fopen("BENCH_server.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_server.json\n");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"server\",\n  \"results\": [\n");
  const auto& results = Results();
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\"}%s\n",
                 results[i].name.c_str(), results[i].value,
                 results[i].unit.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_server.json (%zu results)\n", results.size());
}

}  // namespace
}  // namespace hygraph::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  hygraph::bench::Fixture fixture = hygraph::bench::StartFixture();
  hygraph::bench::BenchQuerySweep(fixture, smoke);
  const int rc = hygraph::bench::BenchGroupCommitIngest(fixture, smoke);
  fixture.server->Stop();
  hygraph::bench::WriteJson();
  return rc;
}
