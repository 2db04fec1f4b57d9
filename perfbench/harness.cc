#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "common/context.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/client.h"
#include "server/wire.h"
#include "storage/env.h"
#include "storage/polyglot.h"

namespace hgbench {

using namespace hygraph;  // NOLINT(build/namespaces)

namespace {

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "hgbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

double Since(uint64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e9;
}

storage::DurableOptions OptionsFor(const StoreConfig& config) {
  storage::DurableOptions options;
  options.sync_wal = false;  // acks wait for the group-commit fsync
  options.checkpoint_every = config.checkpoint_every;
  options.tiering.enabled = config.tiered;
  options.tiering.cache_budget_bytes = config.cache_budget_bytes;
  return options;
}

constexpr char kWarmupQuery[] =
    "MATCH (s:Station {name: 'S0'}) RETURN s.name";

}  // namespace

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

std::unique_ptr<Fixture> SetUp(const FixtureSize& size,
                               const StoreConfig& config,
                               const std::string& dir, bool serve) {
  const uint64_t start = NowNanos();
  auto f = std::make_unique<Fixture>();
  f->dir = dir;
  f->config = config;

  workloads::BikeSharingConfig gen;
  gen.stations = size.stations;
  gen.districts = size.districts;
  gen.days = size.days;
  gen.sample_interval = 5 * kMinute;
  gen.trips_per_station = size.trips_per_station;
  gen.seed = 1234;  // fixed: the workload seed drives only the requests
  auto dataset = workloads::GenerateBikeSharing(gen);
  if (!dataset.ok()) Die("generate", dataset.status());
  f->dataset = std::move(*dataset);

  // A crashed earlier run may have left a store behind; start empty.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(
      std::filesystem::path(dir).parent_path(), ec);
  f->store = std::make_unique<storage::DurableStore>(
      storage::Env::Default(), dir, std::make_unique<storage::PolyglotStore>(),
      OptionsFor(config));
  const Status opened = f->store->Open();
  if (!opened.ok()) Die("open " + dir, opened);

  // Bulk load through the unlogged inner store, like mutable_topology():
  // it becomes durable only at the next checkpoint.
  auto ids = workloads::LoadIntoBackend(f->dataset, f->store->inner());
  if (!ids.ok()) Die("load", ids.status());
  if (config.checkpoint) {
    const Status cp = f->store->Checkpoint();
    if (!cp.ok()) Die("checkpoint", cp);
  }

  f->shape.start = f->dataset.start();
  f->shape.days = size.days;
  f->shape.stations = size.stations;
  f->shape.districts = size.districts;
  f->shape.interval = gen.sample_interval;
  for (graph::VertexId v : *ids) f->shape.station_ids.push_back(v);
  f->history_samples = f->dataset.stations.size() *
                       f->dataset.samples_per_station();
  for (const auto& trip : f->dataset.trips) {
    f->history_samples += trip.daily_trips.size();
  }

  if (serve) {
    server::ServerOptions so;
    so.enable_metrics_http = false;
    f->server = std::make_unique<server::HgqlServer>(f->store.get(),
                                                     f->store.get(), so);
    const Status started = f->server->Start();
    if (!started.ok()) Die("server start", started);
    auto client =
        server::HgqlClient::Connect("127.0.0.1", f->server->port(), "warmup");
    if (!client.ok()) Die("connect", client.status());
    auto first = client->Query(kWarmupQuery);
    if (!first.ok()) Die("first request", first.status());
    if (first->row_count() != 1) {
      Die("first request", Status::Internal("expected one row"));
    }
    client->Close();
  }
  f->setup_s = Since(start);
  return f;
}

void TearDown(std::unique_ptr<Fixture> fixture) {
  if (fixture == nullptr) return;
  const std::string dir = fixture->dir;
  if (fixture->server != nullptr) fixture->server->Stop();
  fixture.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

double Reopen(Fixture* fixture) {
  if (fixture->server != nullptr) {
    fixture->server->Stop();
    fixture->server.reset();
  }
  fixture->store.reset();
  fixture->store = std::make_unique<storage::DurableStore>(
      storage::Env::Default(), fixture->dir,
      std::make_unique<storage::PolyglotStore>(), OptionsFor(fixture->config));
  const uint64_t start = NowNanos();
  const Status opened = fixture->store->Open();
  const double seconds = Since(start);
  if (!opened.ok()) Die("reopen " + fixture->dir, opened);
  return seconds;
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

namespace {

/// Runs one request on one connection and keeps its answer when asked.
class Connection {
 public:
  virtual ~Connection() = default;
  /// `samples` is the materialized batch of an append (empty for queries).
  virtual Outcome Run(const Request& r,
                      const std::vector<server::SampleUpdate>& samples,
                      uint32_t id, query::QueryResult* keep) = 0;
};

class WireConnection final : public Connection {
 public:
  explicit WireConnection(server::HgqlClient client)
      : client_(std::move(client)) {}
  ~WireConnection() override { client_.Close(); }

  Outcome Run(const Request& r, const std::vector<server::SampleUpdate>& samples,
              uint32_t, query::QueryResult* keep) override {
    Outcome o;
    const uint64_t start = NowNanos();
    if (r.is_append) {
      const Status s = client_.Append(samples);
      o.ms = static_cast<double>(NowNanos() - start) / 1e6;
      o.ok = s.ok();
      if (!o.ok) o.error = s.ToString();
      return o;
    }
    auto result = client_.Query(r.text);
    o.ms = static_cast<double>(NowNanos() - start) / 1e6;
    o.ok = result.ok();
    if (!o.ok) {
      o.error = result.status().ToString();
      return o;
    }
    o.hash = HashResult(*result);
    if (keep != nullptr) *keep = std::move(*result);
    return o;
  }

 private:
  server::HgqlClient client_;
};

/// The server's request path without the socket: each layer is called
/// through its public entry point, in the order the server calls them,
/// and (when traced) wrapped in a span of its own.
class ReplayConnection final : public Connection {
 public:
  ReplayConnection(storage::DurableStore* store,
                   server::GroupCommitter* committer, SpanLog* spans)
      : store_(store), committer_(committer), spans_(spans) {}

  Outcome Run(const Request& r, const std::vector<server::SampleUpdate>& samples,
              uint32_t id, query::QueryResult* keep) override {
    Outcome o;
    query::QueryResult table;
    const uint64_t start = NowNanos();
    Status status;
    {
      ScopedSpan request(spans_, "request", id, r.cls);
      status = r.is_append ? Append(samples, id) : Query(r, id, &table);
    }
    o.ms = static_cast<double>(NowNanos() - start) / 1e6;
    o.ok = status.ok();
    if (!o.ok) {
      o.error = status.ToString();
      return o;
    }
    if (!r.is_append) {
      o.hash = HashResult(table);
      if (keep != nullptr) *keep = std::move(table);
    }
    return o;
  }

 private:
  static Result<server::Request> DecodeClientFrame(const std::string& bytes) {
    server::DecodeResult frame = server::DecodeFrame(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    if (frame.progress != server::DecodeProgress::kFrame) {
      return Status::Internal("replay: request frame did not decode");
    }
    return server::DecodeRequest(frame.frame);
  }

  static Status RoundTripResponse(server::WireResponse resp,
                                  query::QueryResult* table) {
    const std::string bytes = server::EncodeResultFrame(resp);
    server::DecodeResult frame = server::DecodeFrame(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    if (frame.progress != server::DecodeProgress::kFrame) {
      return Status::Internal("replay: result frame did not decode");
    }
    auto back = server::DecodeResponse(frame.frame);
    if (!back.ok()) return back.status();
    *table = std::move(back->table);
    return Status::OK();
  }

  Status Query(const Request& r, uint32_t id, query::QueryResult* table) {
    Result<server::Request> req = Status::OK();
    {
      ScopedSpan s(spans_, "codec.in", id);
      server::QueryRequest q;
      q.text = r.text;
      req = DecodeClientFrame(server::EncodeQueryFrame(q));
    }
    if (!req.ok()) return req.status();
    Result<query::QueryAst> ast = Status::OK();
    {
      ScopedSpan s(spans_, "parse", id);
      ast = query::Parse(req->query.text);
    }
    if (!ast.ok()) return ast.status();
    Result<query::Plan> plan = Status::OK();
    {
      ScopedSpan s(spans_, "compile", id);
      plan = query::CompileQuery(*ast, {});
    }
    if (!plan.ok()) return plan.status();
    std::shared_ptr<const query::QueryBackend> snapshot;
    {
      ScopedSpan s(spans_, "snapshot.pin", id);
      snapshot = store_->BeginSnapshot();
    }
    const query::QueryBackend& view =
        snapshot != nullptr ? *snapshot : *store_;
    Result<query::QueryResult> result = Status::OK();
    {
      ScopedSpan s(spans_, "execute", id, r.cls);
      QueryContext ctx;
      result = query::RunPlan(view, *plan, nullptr, &ctx);
    }
    if (!result.ok()) return result.status();
    Status coded;
    {
      ScopedSpan s(spans_, "codec.out", id);
      server::WireResponse resp;
      resp.has_table = true;
      resp.table = std::move(*result);
      coded = RoundTripResponse(std::move(resp), table);
    }
    {
      ScopedSpan s(spans_, "snapshot.release", id);
      snapshot.reset();
    }
    return coded;
  }

  Status Append(const std::vector<server::SampleUpdate>& batch, uint32_t id) {
    Result<server::Request> req = Status::OK();
    {
      ScopedSpan s(spans_, "codec.in", id);
      server::AppendRequest a;
      a.samples = batch;
      req = DecodeClientFrame(server::EncodeAppendFrame(a));
    }
    if (!req.ok()) return req.status();
    const std::vector<server::SampleUpdate>& samples = req->append.samples;
    Status committed;
    {
      // The commit span's self time is the wait for the covering fsync;
      // the apply step (WAL append + hypertable insert) is its child.
      ScopedSpan s(spans_, "commit", id);
      committed = committer_->Commit([&]() -> Status {
        ScopedSpan apply(spans_, "apply", id);
        for (const server::SampleUpdate& u : samples) {
          HYGRAPH_RETURN_IF_ERROR(store_->AppendVertexSample(
              u.id, u.key, u.timestamp, u.value));
        }
        return Status::OK();
      });
    }
    if (!committed.ok()) return committed;
    query::QueryResult ack;
    ScopedSpan s(spans_, "codec.out", id);
    server::WireResponse resp;
    resp.has_table = true;
    resp.table.columns = {"appended"};
    resp.table.rows.push_back({Value(static_cast<int64_t>(samples.size()))});
    return RoundTripResponse(std::move(resp), &ack);
  }

  storage::DurableStore* store_;
  server::GroupCommitter* committer_;
  SpanLog* spans_;
};

/// Runs every connection of `list` on its own thread. With `warm` each
/// thread first runs its warm-up queries. All threads then start together
/// (`at_start` runs just before); each runs its list closed-loop (next
/// request after the reply).
template <typename MakeConnection, typename AtStart>
PhaseRun RunConnections(const RequestList& list,
                        const std::vector<std::vector<bool>>* keep, bool warm,
                        MakeConnection make_connection, AtStart at_start) {
  const size_t n = list.by_conn.size();
  PhaseRun run;
  run.by_conn.resize(n);
  run.warmup.resize(n);
  std::vector<std::map<uint64_t, query::QueryResult>> kept(n);
  std::vector<uint64_t> finished(n, 0);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  size_t fixed = 0;
  for (size_t c = 0; c < n; ++c) fixed += static_cast<int>(c) != list.open_ended;
  std::atomic<size_t> fixed_running{fixed};

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<Connection> conn = make_connection(c);
      const std::vector<Request>& reqs = list.by_conn[c];
      const bool open_ended = static_cast<int>(c) == list.open_ended;
      std::vector<Outcome>& out = run.by_conn[c];
      out.reserve(reqs.size());
      if (warm && c < list.warmup.size()) {
        for (const Request& r : list.warmup[c]) {
          run.warmup[c].push_back(conn->Run(r, {}, 0, nullptr));
        }
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0;; ++i) {
        if (open_ended) {
          if (fixed_running.load(std::memory_order_acquire) == 0) break;
        } else if (i == reqs.size()) {
          break;
        }
        const size_t at = i % reqs.size();
        query::QueryResult* keep_out = nullptr;
        if (keep != nullptr && !open_ended && (*keep)[c][at]) {
          keep_out = &kept[c][KeepKey(c, at)];
        }
        const std::vector<server::SampleUpdate> samples =
            list.Samples(reqs[at]);
        out.push_back(conn->Run(reqs[at], samples,
                                static_cast<uint32_t>((c << 24) |
                                                      (i & 0xFFFFFF)),
                                keep_out));
      }
      finished[c] = NowNanos();
      if (!open_ended) fixed_running.fetch_sub(1, std::memory_order_release);
      conn.reset();
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  at_start();
  const uint64_t start = NowNanos();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < n; ++c) {
    const double wall = static_cast<double>(finished[c] - start) / 1e9;
    run.wall_s = std::max(run.wall_s, wall);
    if (static_cast<int>(c) != list.open_ended) {
      run.fixed_wall_s = std::max(run.fixed_wall_s, wall);
    }
    run.kept.merge(kept[c]);
  }
  return run;
}

}  // namespace

PhaseRun RunWire(Fixture* fixture, const RequestList& list,
                 const std::vector<std::vector<bool>>* keep) {
  const uint16_t port = fixture->server->port();
  obs::MetricsSnapshot before;
  PhaseRun run = RunConnections(
      list, keep, /*warm=*/true,
      [port](size_t c) {
        auto client = server::HgqlClient::Connect(
            "127.0.0.1", port, "hgbench-" + std::to_string(c));
        if (!client.ok()) Die("connect", client.status());
        return std::unique_ptr<Connection>(
            std::make_unique<WireConnection>(std::move(*client)));
      },
      [&] { before = Merged(*fixture); });
  run.before = std::move(before);
  run.after = Merged(*fixture);
  return run;
}

PhaseRun RunReplay(Fixture* fixture, const RequestList& list, bool traced) {
  obs::MetricsRegistry commit_registry;
  server::GroupCommitter committer(fixture->store.get(), &commit_registry);
  std::vector<SpanLog> logs(traced ? list.by_conn.size() : 0);
  obs::MetricsSnapshot before = Merged(*fixture, &commit_registry);
  storage::DurableStore* store = fixture->store.get();
  PhaseRun run = RunConnections(
      list, nullptr, /*warm=*/false,
      [&](size_t c) -> std::unique_ptr<Connection> {
        return std::make_unique<ReplayConnection>(
            store, &committer, traced ? &logs[c] : nullptr);
      },
      [] {});
  run.before = std::move(before);
  run.after = Merged(*fixture, &commit_registry);
  run.spans = std::move(logs);
  return run;
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

obs::MetricsSnapshot Merged(const Fixture& fixture,
                            const obs::MetricsRegistry* extra) {
  if (fixture.server != nullptr) {
    obs::MetricsSnapshot snap = fixture.server->MergedMetrics();
    if (extra != nullptr) snap.Merge(extra->Snapshot());
    return snap;
  }
  obs::MetricsSnapshot snap = fixture.store->metrics()->Snapshot();
  if (const obs::MetricsRegistry* inner = fixture.store->inner()->metrics()) {
    snap.Merge(inner->Snapshot());
  }
  snap.Merge(obs::MetricsRegistry::Global().Snapshot());
  if (extra != nullptr) snap.Merge(extra->Snapshot());
  return snap;
}

uint64_t CounterDelta(const PhaseRun& run, const std::string& name) {
  const auto a = run.after.counters.find(name);
  if (a == run.after.counters.end()) return 0;
  const auto b = run.before.counters.find(name);
  const uint64_t base = b == run.before.counters.end() ? 0 : b->second;
  return a->second >= base ? a->second - base : 0;
}

namespace {

obs::HistogramSnapshot HistogramDelta(const PhaseRun& run,
                                      const std::string& name) {
  obs::HistogramSnapshot d;
  const auto a = run.after.histograms.find(name);
  if (a == run.after.histograms.end()) return d;
  const auto b = run.before.histograms.find(name);
  const obs::HistogramSnapshot empty;
  const obs::HistogramSnapshot& base =
      b == run.before.histograms.end() ? empty : b->second;
  d.count = a->second.count - base.count;
  d.sum = a->second.sum - base.sum;
  size_t lo = obs::kHistogramBuckets;
  size_t hi = 0;
  for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    d.buckets[i] = a->second.buckets[i] - base.buckets[i];
    if (d.buckets[i] != 0) {
      lo = std::min(lo, i);
      hi = i;
    }
  }
  if (d.count != 0 && lo < obs::kHistogramBuckets) {
    // Exact extremes of the delta are unknown; its buckets bound them.
    d.min = std::max(obs::HistogramBucketLowerBound(lo), a->second.min);
    d.max = std::min(obs::HistogramBucketUpperBound(hi), a->second.max);
  }
  return d;
}

}  // namespace

double HistogramDeltaQuantile(const PhaseRun& run, const std::string& name,
                              double q) {
  return static_cast<double>(HistogramDelta(run, name).Quantile(q));
}

uint64_t HistogramDeltaCount(const PhaseRun& run, const std::string& name) {
  return HistogramDelta(run, name).count;
}

uint64_t HistogramDeltaSum(const PhaseRun& run, const std::string& name) {
  return HistogramDelta(run, name).sum;
}

// ---------------------------------------------------------------------------
// Disk and host
// ---------------------------------------------------------------------------

DiskUsage MeasureDisk(const std::string& dir) {
  DiskUsage usage;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const uint64_t bytes = it->file_size(ec);
    const std::string name = it->path().filename().string();
    auto ends_with = [&name](const char* suffix) {
      const std::string s(suffix);
      return name.size() >= s.size() &&
             name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (name.rfind("snapshot-", 0) == 0 && ends_with(".hyg")) {
      usage.snapshot += bytes;
    } else if (name.rfind("seg-", 0) == 0 && ends_with(".seg")) {
      usage.segment += bytes;
    } else if (name.rfind("catalog-", 0) == 0 && ends_with(".cold")) {
      usage.catalog += bytes;
    } else if (name == "wal.log") {
      usage.wal += bytes;
    } else {
      usage.other += bytes;
    }
  }
  return usage;
}

double DriftProbeUs() {
  // A dependent walk over one fixed random cycle through 1 MiB: memory
  // latency bound, no allocation, nothing shared with the engine.
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> cycle(1u << 18);
    for (uint32_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
    SeedRng rng(0x0DDBA11);
    for (size_t i = cycle.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(cycle[i], cycle[rng.Below(i)]);
    }
    return cycle;
  }();
  double best = 1e300;
  uint32_t at = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t start = NowNanos();
    for (size_t step = 0; step < next.size(); ++step) at = next[at];
    best = std::min(best, static_cast<double>(NowNanos() - start) / 1e3);
  }
  if (at == 0xFFFFFFFFu) std::fprintf(stderr, " ");  // keeps the walk live
  return best;
}

}  // namespace hgbench
