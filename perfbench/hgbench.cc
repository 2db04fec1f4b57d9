// hgbench: closed-loop end-to-end benchmark of the HGQL server over a
// bike-sharing DurableStore(PolyglotStore), with an in-process traced
// replay that splits every request into its layers. perfbench/README.md
// describes the fixture, the workloads and every metric.
//
//   hgbench --workload <dashboard|analytics_cold|ingest_live> --seed N
//           --seconds S --trace 0|1 [--work-dir DIR] [--spans-dir DIR]
//   hgbench selftest --work-dir DIR
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones. A wrong answer or a lost acknowledged sample prints
// correct=false and exits 1.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_core.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "query/executor.h"
#include "storage/polyglot.h"

namespace hgbench {

using namespace hygraph;  // NOLINT(build/namespaces)

int SelfTest(const std::string& work_dir);  // selftest.cc

namespace {

// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 3;
// analytics_cold's cold-cache budget: about a quarter of the 5.2 MB of
// segments the set-up checkpoint spills, so the working set does not fit.
constexpr size_t kColdCacheBudget = 1280u << 10;
// Requests whose wire answers are also checked against an untiered twin.
constexpr size_t kTwinSamples = 24;
// Threads of the --trace 0 answer-check replay.
constexpr size_t kCheckThreads = 3;

struct Args {
  Workload workload = Workload::kDashboard;
  bool have_workload = false;
  uint64_t seed = 1;
  size_t seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string spans_dir = ".bench_build/perfbench-traces";
};

StoreConfig ConfigFor(Workload w, const FixtureSize& size, size_t seconds) {
  StoreConfig c;
  switch (w) {
    case Workload::kDashboard:
      break;  // in RAM: no checkpoint, no cold tier
    case Workload::kAnalyticsCold:
      c.tiered = true;
      c.checkpoint = true;
      c.cache_budget_bytes = kColdCacheBudget;
      break;
    case Workload::kIngestLive:
      c.tiered = true;
      c.checkpoint = true;
      // Three automatic checkpoints during the live phase: one WAL record
      // per sample, a quarter of the records (plus one) between them.
      c.checkpoint_every = seconds * kTicksPerSecond * size.stations / 4 + 1;
      break;
  }
  return c;
}

struct Usage {
  double cpu_ms = 0;
  uint64_t minflt = 0;
  double maxrss_mib = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_ms = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
             (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  u.minflt = static_cast<uint64_t>(ru.ru_minflt);
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Latencies and failure counts of one phase, split by request class.
struct Tally {
  std::map<std::string, std::vector<double>> ms;  // successful only
  std::map<std::string, uint64_t> attempted;
  std::map<std::string, uint64_t> failed;
  std::vector<double> query_ms;
  std::vector<double> append_ms;
  uint64_t attempted_total = 0;  // warm-up included
  uint64_t failed_total = 0;
  uint64_t warmup_attempted = 0;
  uint64_t warmup_failed = 0;
  uint64_t samples_acked = 0;
  std::string first_error;
};

Tally Count(const RequestList& list, const PhaseRun& run) {
  Tally t;
  for (size_t c = 0; c < run.warmup.size(); ++c) {
    for (size_t i = 0; i < run.warmup[c].size(); ++i) {
      const Outcome& o = run.warmup[c][i];
      ++t.warmup_attempted;
      if (o.ok) continue;
      ++t.warmup_failed;
      if (t.first_error.empty()) t.first_error = o.error;
    }
  }
  t.attempted_total = t.warmup_attempted;
  t.failed_total = t.warmup_failed;
  for (size_t c = 0; c < run.by_conn.size(); ++c) {
    const std::vector<Request>& reqs = list.by_conn[c];
    for (size_t i = 0; i < run.by_conn[c].size(); ++i) {
      const Request& r = reqs[i % reqs.size()];
      const Outcome& o = run.by_conn[c][i];
      ++t.attempted[r.cls];
      ++t.attempted_total;
      if (!o.ok) {
        ++t.failed[r.cls];
        ++t.failed_total;
        if (t.first_error.empty()) t.first_error = o.error;
        continue;
      }
      t.ms[r.cls].push_back(o.ms);
      if (r.is_append) {
        t.append_ms.push_back(o.ms);
        t.samples_acked += r.count;
      } else {
        t.query_ms.push_back(o.ms);
      }
    }
  }
  return t;
}

void PrintTally(const char* phase, const Tally& t) {
  if (t.warmup_attempted > 0) {
    std::printf("%s warm-up: %llu queries, %llu failed (untimed)\n", phase,
                static_cast<unsigned long long>(t.warmup_attempted),
                static_cast<unsigned long long>(t.warmup_failed));
  }
  for (const auto& [cls, n] : t.attempted) {
    const auto it = t.ms.find(cls);
    const std::vector<double> none;
    const std::vector<double>& ms = it == t.ms.end() ? none : it->second;
    const auto f = t.failed.find(cls);
    std::printf(
        "%s class %-6s attempted %6llu failed %llu p50 %.3f ms p99 %.3f ms "
        "(n=%zu)\n",
        phase, cls.c_str(), static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(f == t.failed.end() ? 0 : f->second),
        Percentile(ms, 50), Percentile(ms, 99), ms.size());
  }
  if (!t.first_error.empty()) {
    std::printf("%s first failure: %s\n", phase, t.first_error.c_str());
  }
}

/// Where each request of a re-partitioned list came from: (connection,
/// index) in the original list.
using Origin = std::vector<std::vector<std::pair<size_t, size_t>>>;

/// The fixed-work requests of `list` dealt round-robin over `threads`
/// connections, so a read-only check replay runs on every core.
RequestList Respread(const RequestList& list, size_t threads,
                     Origin* origin) {
  RequestList out;
  out.by_conn.resize(threads);
  origin->assign(threads, {});
  size_t next = 0;
  for (size_t c = 0; c < list.by_conn.size(); ++c) {
    if (static_cast<int>(c) == list.open_ended) continue;
    for (size_t i = 0; i < list.by_conn[c].size(); ++i) {
      out.by_conn[next].push_back(list.by_conn[c][i]);
      (*origin)[next].emplace_back(c, i);
      next = (next + 1) % threads;
    }
  }
  return out;
}

/// Wire answers against the in-process replay of the same requests (the
/// store is read-only, so both must be bit-identical). `origin` maps a
/// re-partitioned replay back to the list (null: same partition). Returns
/// mismatches.
size_t CheckAgainstReplay(const RequestList& list, const PhaseRun& wire,
                          const PhaseRun& replay, const Origin* origin) {
  size_t bad = 0;
  for (size_t k = 0; k < replay.by_conn.size(); ++k) {
    for (size_t j = 0; j < replay.by_conn[k].size(); ++j) {
      const auto [c, i] =
          origin != nullptr ? (*origin)[k][j] : std::make_pair(k, j);
      const Outcome& w = wire.by_conn[c][i];
      const Outcome& r = replay.by_conn[k][j];
      if (!w.ok || !r.ok || w.hash == r.hash) continue;
      if (bad++ == 0) {
        std::printf("check: wire answer differs from in-process RunPlan: %s\n",
                    list.by_conn[c][i].text.c_str());
      }
    }
  }
  return bad;
}

/// A seeded sample of requests whose full wire answers are kept for the
/// twin comparison.
std::vector<std::vector<bool>> PickTwinSample(const RequestList& list,
                                              uint64_t seed) {
  std::vector<std::vector<bool>> keep(list.by_conn.size());
  size_t total = 0;
  for (size_t c = 0; c < list.by_conn.size(); ++c) {
    keep[c].assign(list.by_conn[c].size(), false);
    if (static_cast<int>(c) != list.open_ended) total += keep[c].size();
  }
  if (total == 0) return keep;
  SeedRng rng(seed ^ 0x5EEDF00Dull);
  for (size_t k = 0; k < kTwinSamples; ++k) {
    size_t at = rng.Below(total);
    for (size_t c = 0; c < keep.size(); ++c) {
      if (static_cast<int>(c) == list.open_ended) continue;
      if (at < keep[c].size()) {
        keep[c][at] = true;
        break;
      }
      at -= keep[c].size();
    }
  }
  return keep;
}

/// The kept wire answers against an untiered in-RAM PolyglotStore loaded
/// with the same dataset, at bench_table1's tolerance. Returns mismatches.
size_t CheckAgainstTwin(const Fixture& fx, const RequestList& list,
                        const PhaseRun& wire, size_t* checked) {
  storage::PolyglotStore twin;
  auto ids = workloads::LoadIntoBackend(fx.dataset, &twin);
  if (!ids.ok()) {
    std::printf("check: twin load failed: %s\n",
                ids.status().ToString().c_str());
    return 1;
  }
  size_t bad = 0;
  for (const auto& [key, table] : wire.kept) {
    const size_t c = key >> 32;
    const size_t i = key & 0xFFFFFFFFu;
    if (!wire.by_conn[c][i].ok) continue;
    const std::string& text = list.by_conn[c][i].text;
    auto expected = query::Execute(twin, text);
    std::string why;
    ++*checked;
    if (!expected.ok()) {
      why = expected.status().ToString();
    } else if (SameResult(*expected, table, 1e-9, &why)) {
      continue;
    }
    if (bad++ == 0) {
      std::printf("check: twin disagrees (%s): %s\n", why.c_str(),
                  text.c_str());
    }
  }
  return bad;
}

/// After the restart every acknowledged live sample must read back with
/// its value, and the checkpointed history must be whole.
size_t CheckAcknowledged(const Fixture& fx, const RequestList& list,
                         const PhaseRun& wire, size_t* checked) {
  std::map<uint64_t, std::vector<std::pair<Timestamp, double>>> acked;
  for (size_t c = 0; c < list.by_conn.size(); ++c) {
    if (static_cast<int>(c) == list.open_ended) continue;
    for (size_t i = 0; i < wire.by_conn[c].size(); ++i) {
      if (!wire.by_conn[c][i].ok) continue;
      for (const auto& s : list.Samples(list.by_conn[c][i])) {
        acked[s.id].emplace_back(s.timestamp, s.value);
      }
    }
  }
  size_t lost = 0;
  const Interval live{list.live_start, list.live_end};
  const Interval history{fx.shape.start, list.live_start};
  const double per_station =
      static_cast<double>(fx.dataset.samples_per_station());
  for (uint64_t id : fx.shape.station_ids) {
    auto count = fx.store->VertexSeriesAggregate(id, "bikes", history,
                                                 ts::AggKind::kCount);
    if (!count.ok() || *count != per_station) {
      if (lost++ == 0) {
        std::printf("check: station %llu lost history after restart\n",
                    static_cast<unsigned long long>(id));
      }
    }
    auto range = fx.store->VertexSeriesRange(id, "bikes", live);
    std::vector<std::pair<Timestamp, double>> got;
    if (range.ok()) {
      for (const auto& s : range->samples()) got.emplace_back(s.t, s.value);
    }
    for (const auto& [t, value] : acked[id]) {
      ++*checked;
      const auto it = std::lower_bound(
          got.begin(), got.end(), std::make_pair(t, -HUGE_VAL));
      if (it != got.end() && it->first == t && it->second == value) continue;
      if (lost++ == 0) {
        std::printf("check: acknowledged sample lost: station %llu t=%lld\n",
                    static_cast<unsigned long long>(id),
                    static_cast<long long>(t));
      }
    }
  }
  return lost;
}

/// Span-derived layer times of a traced replay.
struct SpanFigures {
  std::vector<double> codec_us, parse_us, compile_us, pin_ms, release_ms;
  std::map<std::string, std::vector<double>> execute_ms;
  std::vector<double> apply_us_per_sample, commit_wait_ms;
  double coverage = 0;
};

SpanFigures Analyze(const std::vector<SpanLog>& logs,
                    const RequestList& list) {
  SpanFigures f;
  uint64_t covered = 0;
  uint64_t wall = 0;
  for (size_t c = 0; c < logs.size(); ++c) {
    const SpanLog& log = logs[c];
    if (log.spans.empty()) continue;
    wall += log.spans.back().end - log.spans.front().start;
    const std::vector<uint64_t> self = SelfNanos(log);
    std::map<uint32_t, double> codec;
    for (size_t i = 0; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      const double ns = static_cast<double>(s.end - s.start);
      const std::string name = s.name;
      if (s.parent >= 0) covered += self[i];
      if (name == "codec.in" || name == "codec.out") {
        codec[s.request] += ns / 1e3;
      } else if (name == "parse") {
        f.parse_us.push_back(ns / 1e3);
      } else if (name == "compile") {
        f.compile_us.push_back(ns / 1e3);
      } else if (name == "snapshot.pin") {
        f.pin_ms.push_back(ns / 1e6);
      } else if (name == "snapshot.release") {
        f.release_ms.push_back(ns / 1e6);
      } else if (name == "execute") {
        f.execute_ms[s.tag].push_back(ns / 1e6);
      } else if (name == "commit") {
        f.commit_wait_ms.push_back(static_cast<double>(self[i]) / 1e6);
      } else if (name == "apply") {
        const std::vector<Request>& reqs = list.by_conn[c];
        const size_t at = (s.request & 0xFFFFFF) % reqs.size();
        f.apply_us_per_sample.push_back(
            ns / 1e3 / static_cast<double>(reqs[at].count));
      }
    }
    for (const auto& [id, us] : codec) f.codec_us.push_back(us);
  }
  f.coverage = Ratio(static_cast<double>(covered), static_cast<double>(wall));
  return f;
}

void PrintMetricLines(const std::vector<Metric>& metrics, const char* tag) {
  for (const Metric& m : metrics) {
    std::printf("%s %-34s %16.6f %s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Run(const Args& args) {
  const FixtureSize size;
  const StoreConfig config = ConfigFor(args.workload, size, args.seconds);
  const std::string name = WorkloadName(args.workload);
  const std::string base = args.work_dir + "/" + name + "-" +
                           std::to_string(args.seed);
  const bool ingest = args.workload == Workload::kIngestLive;
  const bool read_only = !ingest;
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  std::printf("hgbench workload=%s seed=%llu seconds=%zu trace=%d "
              "fan-out threads=%zu\n",
              name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace,
              ThreadPool::Instance()->worker_count() + 1);

  // Set-up: repeated under --trace 0, and setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<Fixture> fx;
  const int setups_wanted = args.trace == 0 ? kSetups : 1;
  for (int k = 0; k < setups_wanted; ++k) {
    TearDown(std::move(fx));
    fx = SetUp(size, config, base + "/store-" + std::to_string(k), true);
    setups.push_back(fx->setup_s);
    std::printf("setup %d: %.3f s\n", k, fx->setup_s);
  }
  std::printf("fixture: %zu stations, %zu history samples, %s\n",
              fx->shape.stations, fx->history_samples,
              config.tiered ? "tiered, checkpointed" : "in RAM");
  const DiskUsage setup_disk = MeasureDisk(fx->dir);

  const RequestList list =
      BuildRequests(args.workload, fx->shape, args.seed, args.seconds);
  std::printf("request list: %016llx\n",
              static_cast<unsigned long long>(HashRequests(list)));
  std::printf("rss after set-up and request list: %.1f MiB\n",
              ReadUsage().maxrss_mib);
  const std::vector<std::vector<bool>> keep =
      read_only ? PickTwinSample(list, args.seed)
                : std::vector<std::vector<bool>>();

  // Measured phase: closed loop over loopback HGQL, tracing off.
  const double probe_before = DriftProbeUs();
  const Usage usage_before = ReadUsage();
  PhaseRun wire = RunWire(fx.get(), list, read_only ? &keep : nullptr);
  const Usage usage_after = ReadUsage();
  const double probe_after = DriftProbeUs();
  std::printf("drift probe (ungated): %.1f us before, %.1f us after\n",
              probe_before, probe_after);
  const Tally tally = Count(list, wire);
  PrintTally("wire", tally);
  std::printf("checkpoints during the phase: %llu, %.3f s in total\n",
              static_cast<unsigned long long>(
                  HistogramDeltaCount(wire, "durable.checkpoint_nanos")),
              static_cast<double>(
                  HistogramDeltaSum(wire, "durable.checkpoint_nanos")) / 1e9);
  const double peak_rss_mb = usage_after.maxrss_mib;
  const DiskUsage disk = MeasureDisk(fx->dir);
  const auto* polyglot =
      dynamic_cast<const storage::PolyglotStore*>(fx->store->inner());
  const ts::HypertableMemory memory = polyglot->SeriesMemoryUsage();
  const obs::MetricsSnapshot store_after = fx->store->metrics()->Snapshot();
  const double samples_held =
      static_cast<double>(fx->history_samples + tally.samples_acked);

  uint64_t attempted = tally.attempted_total;
  uint64_t failed = tally.failed_total;
  bool correct = true;
  size_t checked = 0;
  size_t mismatches = 0;

  // Ingest: restart without a checkpoint, then every ack must be readable.
  double recovery_s = 0;
  storage::RecoveryStats recovery;
  if (ingest) {
    recovery_s = Reopen(fx.get());
    recovery = fx->store->recovery();
    mismatches += CheckAcknowledged(*fx, list, wire, &checked);
  }

  // Read-only workloads: every wire answer against an in-process RunPlan
  // of the same request. Under --trace 0 that replay is spread over
  // kCheckThreads connections to keep the run short.
  if (read_only && args.trace == 0) {
    Origin origin;
    const RequestList spread = Respread(list, kCheckThreads, &origin);
    const PhaseRun run = RunReplay(fx.get(), spread, /*traced=*/false);
    const Tally t = Count(spread, run);
    PrintTally("check", t);
    attempted += t.attempted_total;
    failed += t.failed_total;
    checked += t.attempted_total;
    mismatches += CheckAgainstReplay(list, wire, run, &origin);
  }

  // --trace 1: one untraced and one traced replay with one thread per
  // connection; their difference is the tracing overhead. Appends need a
  // fresh store per replay.
  PhaseRun plain;
  PhaseRun traced;
  for (int k = 0; args.trace == 1 && k < 2; ++k) {
    std::unique_ptr<Fixture> replay_fx;
    if (ingest) {
      replay_fx = SetUp(size, config, base + "/replay-" + std::to_string(k),
                        false);
    }
    Fixture* target = ingest ? replay_fx.get() : fx.get();
    PhaseRun run = RunReplay(target, list, /*traced=*/k == 1);
    const Tally t = Count(list, run);
    PrintTally(k == 1 ? "traced" : "replay", t);
    attempted += t.attempted_total;
    failed += t.failed_total;
    if (read_only) {
      checked += t.attempted_total;
      mismatches += CheckAgainstReplay(list, wire, run, nullptr);
    }
    (k == 1 ? traced : plain) = std::move(run);
    TearDown(std::move(replay_fx));
  }
  if (read_only) mismatches += CheckAgainstTwin(*fx, list, wire, &checked);
  correct = mismatches == 0;
  std::printf("check: %zu answers checked, %zu wrong or lost -> %s\n",
              checked, mismatches, correct ? "ok" : "FAILED");

  // End-to-end figures (tracing off). Query metrics cover successful
  // queries only; failures are counted above.
  const size_t nq = tally.query_ms.size();
  const double query_qps = Ratio(static_cast<double>(nq), wire.wall_s);
  const double p50 = Percentile(tally.query_ms, 50);
  const double p99 = Percentile(tally.query_ms, 99);
  std::printf("e2e query_p50_ms %.4f ms (n=%zu); query_p99_ms %.4f ms "
              "(n=%zu, %zu beyond)\n",
              p50, nq, p99, nq, SamplesBeyond(nq, 99));
  const size_t na = tally.append_ms.size();
  const double ingest_rate =
      Ratio(static_cast<double>(tally.samples_acked), wire.fixed_wall_s);
  const double ack_p50 = Percentile(tally.append_ms, 50);
  const double ack_p99 = Percentile(tally.append_ms, 99);
  const double stored_per_sample =
      config.tiered ? Ratio(static_cast<double>(disk.total()), samples_held)
                    : 0.0;
  std::printf("e2e (ungated) ingest_samples_per_s %.1f 1/s; "
              "ingest_ack_p50_ms %.4f ms (n=%zu); ingest_ack_p99_ms %.4f ms "
              "(n=%zu, %zu beyond); recovery_s %.4f s; "
              "stored_bytes_per_sample %.4f B\n",
              ingest_rate, ack_p50, na, ack_p99, na, SamplesBeyond(na, 99),
              recovery_s, stored_per_sample);
  std::printf("disk after set-up: snapshot %llu, segment %llu, catalog %llu, "
              "wal %llu bytes\n",
              static_cast<unsigned long long>(setup_disk.snapshot),
              static_cast<unsigned long long>(setup_disk.segment),
              static_cast<unsigned long long>(setup_disk.catalog),
              static_cast<unsigned long long>(setup_disk.wal));

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", Median(setups), "s"},
        {"query_qps", query_qps, "1/s"},
        {"query_p50_ms", p50, "ms"},
        {"query_p99_ms", p99, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    PrintMetricLines(metrics, "metric");
  } else {
    const SpanFigures sf = Analyze(traced.spans, list);
    const Tally plain_tally = Count(list, plain);
    // Counter deltas start after the warm-up, so per-op means leave it out.
    const double ops =
        static_cast<double>(tally.attempted_total - tally.warmup_attempted);
    auto delta = [&wire](const char* n) {
      return static_cast<double>(CounterDelta(wire, n));
    };
    auto per_op = [&](const char* n) { return Ratio(delta(n), ops); };
    const obs::HistogramSnapshot* cps = nullptr;
    if (auto it = store_after.histograms.find("durable.checkpoint_nanos");
        it != store_after.histograms.end()) {
      cps = &it->second;
    }
    auto store_counter = [&store_after](const char* n) {
      auto it = store_after.counters.find(n);
      return it == store_after.counters.end()
                 ? 0.0
                 : static_cast<double>(it->second);
    };
    const double wal_appends = delta("wal.appends");
    const double replay_p50 = Percentile(plain_tally.query_ms, 50);
    metrics = {
        {"server.codec_us", Median(sf.codec_us), "us"},
        {"server.request_ms",
         HistogramDeltaQuantile(wire, "server.request_nanos", 0.5) / 1e6,
         "ms"},
        {"server.wire_ms", p50 - replay_p50, "ms"},
        {"server.commit_batch",
         Ratio(delta("server.commits"), delta("server.commit_batches")),
         "count"},
        {"server.failed_frac",
         Ratio(delta("server.requests_shed") + delta("server.request_errors"),
               delta("server.requests")),
         "ratio"},
        {"query.parse_us", Median(sf.parse_us), "us"},
        {"query.compile_us", Median(sf.compile_us), "us"},
    };
    for (const char* cls :
         {"q1", "q2", "q3", "q4", "q5", "q5h", "q6", "q7", "q8"}) {
      const auto it = sf.execute_ms.find(cls);
      metrics.push_back({std::string("query.execute_ms.") + cls,
                         it == sf.execute_ms.end() ? 0.0 : Median(it->second),
                         "ms"});
    }
    const double hits = delta("coldtier.cache_hits");
    const double misses = delta("coldtier.cache_misses");
    const std::vector<Metric> rest = {
        {"query.memo_hit_frac",
         Ratio(delta("query.memo_hits"),
               delta("query.memo_hits") + delta("query.memo_misses")),
         "ratio"},
        {"query.samples_per_row",
         Ratio(delta("hypertable.samples_scanned"), delta("query.rows")),
         "count"},
        {"snapshot.pin_ms", Median(sf.pin_ms), "ms"},
        {"snapshot.release_ms", Median(sf.release_ms), "ms"},
        {"snapshot.cow_per_append",
         Ratio(delta("concurrency.series_cow_copies"), wal_appends), "count"},
        {"wal.append_us", Median(sf.apply_us_per_sample), "us"},
        {"wal.bytes_per_sample", Ratio(delta("wal.bytes_appended"), wal_appends),
         "B"},
        {"wal.fsync_ms", HistogramDeltaQuantile(wire, "wal.sync_nanos", 0.5) / 1e6,
         "ms"},
        {"commit.wait_ms", Median(sf.commit_wait_ms), "ms"},
        {"durable.checkpoint_ms",
         cps == nullptr ? 0.0 : static_cast<double>(cps->Quantile(0.5)) / 1e6,
         "ms"},
        {"durable.checkpoint_max_ms",
         cps == nullptr ? 0.0 : static_cast<double>(cps->max) / 1e6, "ms"},
        {"durable.checkpoints", store_counter("durable.checkpoints"), "count"},
        {"recovery.wal_records_replayed",
         static_cast<double>(recovery.wal_records_replayed), "count"},
        {"recovery.cold_chunks_adopted",
         static_cast<double>(recovery.cold_chunks_adopted), "count"},
        {"coldtier.hit_frac", Ratio(hits, hits + misses), "ratio"},
        {"coldtier.misses_per_op", Ratio(misses, ops), "count"},
        {"coldtier.evictions_per_op", per_op("coldtier.cache_evictions"),
         "count"},
        {"disk.snapshot_bytes", static_cast<double>(disk.snapshot), "B"},
        {"disk.segment_bytes", static_cast<double>(disk.segment), "B"},
        {"disk.catalog_bytes", static_cast<double>(disk.catalog), "B"},
        {"disk.wal_bytes", static_cast<double>(disk.wal), "B"},
        {"ts.decoded_per_op", per_op("hypertable.chunks_decoded"), "count"},
        {"ts.cold_pins_per_op", per_op("hypertable.cold_pins"), "count"},
        {"ts.cache_answered_per_op", per_op("hypertable.chunks_from_cache"),
         "count"},
        {"ts.samples_per_op", per_op("hypertable.samples_scanned"), "count"},
        {"ts.seals", delta("hypertable.chunks_sealed"), "count"},
        {"ts.unseals", delta("hypertable.chunks_unsealed"), "count"},
        {"ts.resident_bytes_per_sample",
         Ratio(static_cast<double>(memory.total_bytes()), samples_held), "B"},
        {"pool.morsels_per_op", per_op("hypertable.morsels_dispatched"),
         "count"},
        {"pool.stolen_frac",
         Ratio(delta("hypertable.morsels_stolen"),
               delta("hypertable.morsels_dispatched")),
         "ratio"},
        {"pool.busy_ms_per_op", per_op("concurrency.pool_busy_nanos") / 1e6,
         "ms"},
        {"lock.contended_per_op", per_op("concurrency.lock_contentions"),
         "count"},
        {"lock.wait_ms_per_op",
         Ratio(static_cast<double>(HistogramDeltaSum(
                   wire, "concurrency.lock_contention_nanos")),
               ops) / 1e6,
         "ms"},
        {"proc.cpu_ms_per_op", Ratio(usage_after.cpu_ms - usage_before.cpu_ms, ops),
         "ms"},
        {"proc.minflt_per_op",
         Ratio(static_cast<double>(usage_after.minflt - usage_before.minflt),
               ops),
         "count"},
        {"trace.coverage_frac", sf.coverage, "ratio"},
        {"trace.overhead_frac",
         Ratio(traced.wall_s - plain.wall_s, plain.wall_s), "ratio"},
        {"replay.query_p50_ms", replay_p50, "ms"},
        {"ingest_samples_per_s", ingest_rate, "1/s"},
        {"ingest_ack_p50_ms", ack_p50, "ms"},
        {"ingest_ack_p99_ms", ack_p99, "ms"},
        {"recovery_s", recovery_s, "s"},
        {"stored_bytes_per_sample", stored_per_sample, "B"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    PrintMetricLines(metrics, "layer");
    std::filesystem::create_directories(args.spans_dir, ec);
    const std::string trace_path = args.spans_dir + "/" + name + "-" +
                                   std::to_string(args.seed) + ".jsonl";
    if (WriteSpans(traced.spans, trace_path)) {
      std::printf("spans written to %s\n", trace_path.c_str());
    }
    if (sf.coverage < 0.9) {
      std::printf("warning: span self times cover only %.1f%% of the traced "
                  "replay's wall time\n", 100 * sf.coverage);
    }
  }

  TearDown(std::move(fx));
  std::filesystem::remove_all(base, ec);
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <dashboard|analytics_cold|ingest_live> "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--spans-dir DIR]\n"
               "       %s selftest [--work-dir DIR]\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace hgbench

int main(int argc, char** argv) {
  using namespace hgbench;  // NOLINT(build/namespaces)
  // A fixed mmap threshold: glibc otherwise raises it after each large
  // free, and whether a checkpoint's multi-MB buffers then stay in an arena
  // depends on thread timing, which made peak_rss_mb bimodal (+30 MiB in
  // some runs). With it fixed, peak RSS tracks live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // Two threads per query fan-out (the caller and one pool worker) unless
  // HYGRAPH_THREADS says otherwise. With the default of one thread per vCPU
  // the pool, the server sessions and the clients together outnumber 4
  // vCPUs, and a fan-out's join then waits on whichever morsel the
  // scheduler preempted: analytics_cold ran no faster with 4 threads than
  // with 2, and its run-to-run spread was about twice as wide.
  setenv("HYGRAPH_THREADS", "2", /*overwrite=*/0);
  Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return PrintUsage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args.workload)) return PrintUsage(argv[0]);
      args.have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (selftest) return SelfTest(args.work_dir);
  if (!args.have_workload || args.seconds == 0) return PrintUsage(argv[0]);
  return Run(args);
}
