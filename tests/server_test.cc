// End-to-end tests for the HGQL TCP server (src/server/server.h) over
// loopback: sessions, snapshot isolation, admission shedding, hostile
// frames, the metrics endpoint, group commit through the wire, and clean
// shutdown with requests in flight. Runs under TSan in CI.

#include "server/server.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/slow_query.h"
#include "server/client.h"
#include "slow_sync_env.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "ts/hypertable.h"

namespace hygraph::server {
namespace {

using storage::DurableOptions;
using storage::DurableStore;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/hygraph_server_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;

    DurableOptions options;
    options.sync_wal = false;
    store_ = std::make_unique<DurableStore>(
        &slow_env_, dir_, std::make_unique<storage::PolyglotStore>(), options);
    ASSERT_TRUE(store_->Open().ok());

    auto berlin = store_->AddVertex({"Station"}, {{"city", Value("berlin")}});
    ASSERT_TRUE(berlin.ok());
    vertex_ = *berlin;
    ASSERT_TRUE(
        store_->AddVertex({"Station"}, {{"city", Value("munich")}}).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          store_->AppendSample({true, vertex_, "load"}, 1000 * i, double(i))
              .ok());
    }
  }

  std::unique_ptr<HgqlServer> StartServer(ServerOptions options = {}) {
    auto server = std::make_unique<HgqlServer>(store_.get(), store_.get(),
                                               std::move(options));
    if (!server->Start().ok()) return nullptr;
    return server;
  }

  Result<HgqlClient> Connect(const HgqlServer& server) {
    return HgqlClient::Connect("127.0.0.1", server.port(), "server_test");
  }

  static uint64_t Counter(const obs::MetricsSnapshot& snap,
                          const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  std::string dir_;
  /// Slow fsyncs make the group-commit assertions deterministic: while one
  /// wire append's leader syncs, concurrent appenders park behind it, so a
  /// batch provably covers several appends even on a single busy core
  /// (20ms spans several scheduler timeslices). (Declared before store_ so
  /// the store is destroyed first.)
  storage::SlowSyncEnv slow_env_{storage::Env::Default(), 20};
  std::unique_ptr<DurableStore> store_;
  graph::VertexId vertex_ = 0;
};

TEST_F(ServerTest, StartStopIsCleanAndIdempotent) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  EXPECT_NE(server->port(), 0);
  server->Stop();
  server->Stop();  // idempotent
}

TEST_F(ServerTest, HelloQueryGoodbyeRoundTrip) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT(client->session_id(), 0u);

  auto result =
      client->Query("MATCH (s:Station) RETURN s.city AS city ORDER BY city");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->row_count(), 2u);
  EXPECT_EQ(result->rows[0][0], Value("berlin"));
  EXPECT_EQ(result->rows[1][0], Value("munich"));

  auto pong = client->Admin("ping");
  EXPECT_TRUE(pong.ok());
  client->Close();
}

TEST_F(ServerTest, BadQueryKeepsConnectionUsable) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client->Query("THIS IS NOT HGQL").ok());
  auto result = client->Query("MATCH (s:Station) RETURN s.city AS c");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  client->Close();
}

TEST_F(ServerTest, ConcurrentSessionsEachGetTheirOwnId) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = Connect(*server);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto result = client->Query("MATCH (s:Station) RETURN s.city AS c");
        if (!result.ok() || result->row_count() != 2) failures.fetch_add(1);
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server->sessions_opened(), uint64_t{kClients});
  server->Stop();
  EXPECT_EQ(server->connections_active(), 0u);
}

TEST_F(ServerTest, PinnedSessionSnapshotIsolatesFromConcurrentAppends) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());

  const std::string count_query =
      "MATCH (s:Station) WHERE s.city = 'berlin' "
      "RETURN ts_count(s.load, 0, 1000000000) AS n";
  auto before = client->Query(count_query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const Value baseline = before->rows[0][0];

  // Pin the session snapshot, then append through a SECOND connection.
  ASSERT_TRUE(client->Admin("snapshot.begin").ok());
  {
    auto writer = Connect(*server);
    ASSERT_TRUE(writer.ok());
    std::vector<SampleUpdate> batch;
    for (int i = 0; i < 5; ++i) {
      SampleUpdate s;
      s.id = vertex_;
      s.timestamp = 500000 + i;
      s.value = 9.0;
      s.key = "load";
      batch.push_back(s);
    }
    ASSERT_TRUE(writer->Append(batch).ok());
    writer->Close();
  }

  // The pinned view must not see the writer's samples...
  auto pinned = client->Query(count_query);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->rows[0][0], baseline);

  // ...and releasing the snapshot must reveal them (fresh per-request
  // snapshot behavior).
  ASSERT_TRUE(client->Admin("snapshot.release").ok());
  auto fresh = client->Query(count_query);
  ASSERT_TRUE(fresh.ok());
  auto fresh_n = fresh->rows[0][0].ToDouble();
  auto baseline_n = baseline.ToDouble();
  ASSERT_TRUE(fresh_n.ok());
  ASSERT_TRUE(baseline_n.ok());
  EXPECT_EQ(*fresh_n, *baseline_n + 5);
  client->Close();
}

TEST_F(ServerTest, PinnedSessionStaysRepeatableAcrossCheckpointColdSpill) {
  // A tiered store of its own: narrow chunks so the short ingest seals
  // eleven chunks for the checkpoint to spill cold.
  char tmpl[] = "/tmp/hygraph_server_tier_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  DurableOptions options;
  options.sync_wal = false;
  options.tiering.enabled = true;
  ts::HypertableOptions narrow;
  narrow.chunk_duration = 16;
  auto tiered = std::make_unique<DurableStore>(
      storage::Env::Default(), dir,
      std::make_unique<storage::PolyglotStore>(narrow), options);
  ASSERT_TRUE(tiered->Open().ok());
  auto v = tiered->AddVertex({"Station"}, {{"city", Value("berlin")}});
  ASSERT_TRUE(v.ok());
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(tiered->AppendSample({true, *v, "load"}, i * 4, 0.5 * i).ok());
  }

  HgqlServer server(tiered.get(), tiered.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = Connect(server);
  ASSERT_TRUE(client.ok());

  // The sub-interval average cuts across chunk boundaries, so answering it
  // needs the sample bytes themselves — after the spill they can only come
  // from pinned cold chunks, exactly the path the session must keep
  // repeatable.
  const std::string query =
      "MATCH (s:Station) WHERE s.city = 'berlin' "
      "RETURN ts_avg(s.load, 6, 90) AS a, ts_count(s.load, 0, 1000) AS n";
  ASSERT_TRUE(client->Admin("snapshot.begin").ok());
  auto before = client->Query(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Checkpoint under the pinned session: every sealed chunk leaves RAM for
  // the cold tier while the session still holds its version.
  ASSERT_TRUE(tiered->Checkpoint().ok());
  ts::HypertableStore* ht = tiered->inner()->series_hypertable();
  ASSERT_NE(ht, nullptr);
  EXPECT_GT(ht->stats().cold_chunks_spilled, 0u);
  EXPECT_EQ(ht->MemoryUsage().sealed_samples, 0u);

  // A second connection writes INTO the spilled range, forcing cold chunks
  // to unseal (pin + decode + forget) underneath the pinned session.
  {
    auto writer = Connect(server);
    ASSERT_TRUE(writer.ok());
    std::vector<SampleUpdate> batch;
    for (int i = 0; i < 4; ++i) {
      SampleUpdate s;
      s.id = *v;
      s.timestamp = 7 + i * 16;  // inside the pinned aggregate window
      s.value = 1000.0;
      s.key = "load";
      batch.push_back(s);
    }
    ASSERT_TRUE(writer->Append(batch).ok());
    writer->Close();
  }

  // The pinned session's reads stay repeatable across spill and unseal...
  auto after = client->Query(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows[0][0], before->rows[0][0]);
  EXPECT_EQ(after->rows[0][1], before->rows[0][1]);

  // ...and releasing the pin reveals the writer's samples.
  ASSERT_TRUE(client->Admin("snapshot.release").ok());
  auto fresh = client->Query(query);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->rows[0][0], before->rows[0][0]);
  EXPECT_NE(fresh->rows[0][1], before->rows[0][1]);
  client->Close();
  server.Stop();
  std::system(("rm -rf " + dir).c_str());
}

TEST_F(ServerTest, AdmissionControlShedsBeyondMaxInflight) {
  ServerOptions options;
  options.max_inflight = 1;
  options.enable_debug_commands = true;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  // One connection occupies the single in-flight slot for ~600ms...
  std::thread spinner([&] {
    auto client = Connect(*server);
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(client->Admin("debug.spin 600").ok());
    client->Close();
  });

  // ...and only once it holds the slot does a second connection retry
  // until it observes a shed. Querying earlier could take the slot first:
  // the spin would be shed instead, and no query ever would.
  const obs::Clock* clock = obs::SystemClock::Instance();
  const uint64_t admit_deadline = clock->NowNanos() + 5'000'000'000ull;
  auto spin_admitted = [&] {
    const obs::MetricsSnapshot snap = server->MergedMetrics();
    const auto it = snap.gauges.find("server.requests_inflight");
    return it != snap.gauges.end() && it->second >= 1.0;
  };
  while (!spin_admitted() && clock->NowNanos() < admit_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(spin_admitted());
  bool shed_seen = false;
  {
    auto client = Connect(*server);
    ASSERT_TRUE(client.ok());
    const uint64_t deadline = clock->NowNanos() + 5'000'000'000ull;
    while (clock->NowNanos() < deadline) {
      auto result = client->Query("MATCH (s:Station) RETURN s.city AS c");
      if (!result.ok() && result.status().IsResourceExhausted()) {
        shed_seen = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    client->Close();
  }
  spinner.join();
  EXPECT_TRUE(shed_seen);
  EXPECT_GT(Counter(server->MergedMetrics(), "server.requests_shed"), 0u);

  // After the load passes, the server serves normally again.
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Query("MATCH (s:Station) RETURN s.city AS c").ok());
  client->Close();
}

TEST_F(ServerTest, ConnectionLimitRejectsWithResourceExhausted) {
  ServerOptions options;
  options.max_connections = 1;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  auto first = Connect(*server);
  ASSERT_TRUE(first.ok());
  auto second = Connect(*server);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted() ||
              second.status().IsUnavailable())
      << second.status().ToString();
  first->Close();
}

TEST_F(ServerTest, HostileFramesNeverCrashAndNeverBlockOthers) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  const std::string hostile[] = {
      std::string("\x00\x01\x02\x03", 4),           // garbage magic
      std::string("HG\x09\x02zzzzzzzz", 12),        // bad version
      std::string("HG\x01\x7fzzzzzzzz", 12),        // unknown type
      // Valid header claiming a huge payload.
      std::string("HG\x01\x02\xff\xff\xff\x7f\x00\x00\x00\x00", 12),
      // Truncated mid-frame: header promises bytes that never come.
      EncodeQueryFrame({0, "MATCH (v) RETURN v"}).substr(0, 20),
  };
  for (const std::string& bytes : hostile) {
    auto sock = net::Socket::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock->WriteAll(bytes.data(), bytes.size()).ok());
    sock->ShutdownBoth();  // truncation: the server sees EOF mid-frame
  }
  // CRC corruption of an otherwise well-formed frame.
  {
    std::string frame = EncodeQueryFrame({0, "MATCH (v) RETURN v"});
    frame.back() ^= 0x40;
    auto sock = net::Socket::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock->WriteAll(frame.data(), frame.size()).ok());
    char buf[256];
    HYGRAPH_IGNORE_RESULT(sock->ReadSome(buf, sizeof(buf)));
  }

  // A healthy client still gets served after all of that.
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = client->Query("MATCH (s:Station) RETURN s.city AS c");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  client->Close();
}

TEST_F(ServerTest, CleanShutdownCompletesInflightRequest) {
  ServerOptions options;
  options.enable_debug_commands = true;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  std::atomic<bool> got_response{false};
  std::thread inflight([&] {
    auto client = Connect(*server);
    ASSERT_TRUE(client.ok());
    // Stop() lands while this request is executing; the in-flight request
    // must complete and its response must be flushed before teardown.
    auto result = client->Admin("debug.spin 400");
    got_response.store(result.ok());
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->Stop();
  inflight.join();
  EXPECT_TRUE(got_response.load());
  EXPECT_EQ(server->connections_active(), 0u);
}

TEST_F(ServerTest, MetricsEndpointServesPrometheusText) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->metrics_port(), 0);

  // Generate some traffic first.
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Query("MATCH (s:Station) RETURN s.city AS c").ok());
  client->Close();

  auto sock = net::Socket::Connect("127.0.0.1", server->metrics_port());
  ASSERT_TRUE(sock.ok());
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(sock->WriteAll(get.data(), get.size()).ok());
  std::string body;
  char buf[4096];
  for (;;) {
    auto got = sock->ReadSome(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    body.append(buf, *got);
  }
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("hygraph_server_requests"), std::string::npos);
  EXPECT_NE(body.find("hygraph_server_queries"), std::string::npos);
  EXPECT_NE(body.find("hygraph_wal_appends"), std::string::npos);

  // /healthz answers; unknown paths 404.
  auto health = net::Socket::Connect("127.0.0.1", server->metrics_port());
  ASSERT_TRUE(health.ok());
  const std::string hget = "GET /healthz HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(health->WriteAll(hget.data(), hget.size()).ok());
  std::string hbody;
  for (;;) {
    auto got = health->ReadSome(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    hbody.append(buf, *got);
  }
  EXPECT_NE(hbody.find("ok"), std::string::npos);
}

TEST_F(ServerTest, ConcurrentWireAppendsGroupCommit) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const uint64_t appends_before =
      Counter(server->MergedMetrics(), "wal.appends");
  const uint64_t syncs_before = Counter(server->MergedMetrics(), "wal.syncs");

  constexpr int kWriters = 8;
  constexpr int kBatchesPerWriter = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto client = Connect(*server);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        SampleUpdate s;
        s.id = vertex_;
        s.timestamp = 2000000 + (int64_t{w} * kBatchesPerWriter + b);
        s.value = double(w);
        s.key = "wire";
        if (!client->Append({s}).ok()) failures.fetch_add(1);
      }
      client->Close();
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);

  const auto snap = server->MergedMetrics();
  const uint64_t appends = Counter(snap, "wal.appends") - appends_before;
  const uint64_t syncs = Counter(snap, "wal.syncs") - syncs_before;
  EXPECT_EQ(appends, uint64_t{kWriters} * kBatchesPerWriter);
  EXPECT_LT(syncs, appends) << "group commit must batch fsyncs";

  // All acked samples are queryable.
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());
  auto result = client->Query(
      "MATCH (s:Station) WHERE s.city = 'berlin' "
      "RETURN ts_count(s.wire, 0, 1000000000) AS n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto n = result->rows[0][0].ToDouble();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, double(kWriters) * kBatchesPerWriter);
  client->Close();
}

// Times within one chunk of either end of the time axis cannot be
// chunked; the wire refuses them and the series keeps serving.
TEST_F(ServerTest, AppendNearTheEndsOfTheTimeAxisIsRejected) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());
  for (Timestamp t : {kMinTimestamp + 5, kMaxTimestamp - 5}) {
    SampleUpdate s;
    s.id = vertex_;
    s.timestamp = t;
    s.value = 1.0;
    s.key = "load";
    EXPECT_EQ(client->Append({s}).code(), StatusCode::kInvalidArgument) << t;
  }
  auto result = client->Query(
      "MATCH (s:Station) WHERE s.city = 'berlin' "
      "RETURN ts_count(s.load, 0, 1000000000) AS n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto n = result->rows[0][0].ToDouble();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10.0);
  client->Close();
}

// The lowest time the wire accepts lies in a chunk that starts below it.
// A tiered checkpoint spills that chunk cold, and the restarted store must
// adopt it back from the catalog and serve both samples.
TEST_F(ServerTest, AppendAtTheLowestTimeSurvivesATieredRestart) {
  char tmpl[] = "/tmp/hygraph_server_edge_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  DurableOptions options;
  options.sync_wal = false;
  options.tiering.enabled = true;
  auto open_store = [&] {
    return std::make_unique<DurableStore>(
        storage::Env::Default(), dir,
        std::make_unique<storage::PolyglotStore>(), options);
  };
  const Timestamp lowest = kMinTimestamp + kDay;
  {
    auto tiered = open_store();
    ASSERT_TRUE(tiered->Open().ok());
    auto v = tiered->AddVertex({"Station"}, {{"city", Value("berlin")}});
    ASSERT_TRUE(v.ok());
    HgqlServer server(tiered.get(), tiered.get(), ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    auto client = Connect(server);
    ASSERT_TRUE(client.ok());
    std::vector<SampleUpdate> batch;
    for (auto [t, value] : {std::pair{lowest, 1.0}, std::pair{Timestamp{1000}, 2.0}}) {
      SampleUpdate s;
      s.id = *v;
      s.timestamp = t;
      s.value = value;
      s.key = "load";
      batch.push_back(s);
    }
    ASSERT_TRUE(client->Append(batch).ok());
    client->Close();
    server.Stop();
    ASSERT_TRUE(tiered->Checkpoint().ok());
    EXPECT_GT(tiered->inner()->series_hypertable()->stats().cold_chunks_spilled,
              0u);
  }
  auto reopened = open_store();
  const Status open = reopened->Open();
  ASSERT_TRUE(open.ok()) << open.ToString();
  EXPECT_GT(reopened->recovery().cold_chunks_adopted, 0u);
  auto series = reopened->SeriesRange({true, 0, "load"}, Interval::All());
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->size(), 2u);
  EXPECT_EQ(series->at(0).t, lowest);
  EXPECT_EQ(series->at(0).value, 1.0);
  EXPECT_EQ(series->at(1).t, 1000);
  EXPECT_EQ(series->at(1).value, 2.0);
  reopened.reset();
  std::system(("rm -rf " + dir).c_str());
}

TEST_F(ServerTest, ReadOnlyServerRejectsAppends) {
  auto server = std::make_unique<HgqlServer>(store_.get(), nullptr);
  ASSERT_TRUE(server->Start().ok());
  auto client = HgqlClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  SampleUpdate s;
  s.id = vertex_;
  s.timestamp = 1;
  s.value = 1.0;
  s.key = "load";
  const Status status = client->Append({s});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // Queries still work on a read-only server.
  EXPECT_TRUE(client->Query("MATCH (s:Station) RETURN s.city AS c").ok());
  client->Close();
}

TEST_F(ServerTest, SlowQueryLogReachableThroughAdminVerb) {
  ServerOptions options;
  options.slow_query_threshold_ms = 0;  // server leaves the global log off
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  // Arm a 1ns threshold: every query is "slow".
  obs::SlowQueryLog::Global().set_threshold_nanos(1);
  obs::SlowQueryLog::Global().Clear();

  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Query("MATCH (s:Station) RETURN s.city AS c").ok());

  auto slowlog = client->Admin("slowlog");
  ASSERT_TRUE(slowlog.ok()) << slowlog.status().ToString();
  ASSERT_GE(slowlog->row_count(), 1u);
  bool found = false;
  for (const auto& row : slowlog->rows) {
    if (row[0].AsString().find("MATCH (s:Station)") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  ASSERT_TRUE(client->Admin("slowlog.clear").ok());
  auto cleared = client->Admin("slowlog");
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(cleared->row_count(), 0u);
  client->Close();
  obs::SlowQueryLog::Global().set_threshold_nanos(0);
}

TEST_F(ServerTest, AdminIntrospectionVerbs) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = Connect(*server);
  ASSERT_TRUE(client.ok());

  auto info = client->Admin("server.info");
  ASSERT_TRUE(info.ok());
  bool writable = false;
  for (const auto& row : info->rows) {
    if (row[0] == Value("writable")) writable = row[1].AsBool();
  }
  EXPECT_TRUE(writable);

  ASSERT_TRUE(client->Query("MATCH (s:Station) RETURN s.city AS c").ok());
  auto stats = client->Admin("stats");
  ASSERT_TRUE(stats.ok());
  bool saw_queries = false;
  for (const auto& row : stats->rows) {
    if (row[0] == Value("session.queries")) {
      saw_queries = row[1].AsInt() >= 1;
    }
  }
  EXPECT_TRUE(saw_queries);

  EXPECT_FALSE(client->Admin("no.such.verb").ok());
  client->Close();
}

}  // namespace
}  // namespace hygraph::server
