#include "server/server.h"

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

#include "obs/clock.h"
#include "obs/slow_query.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"

namespace hygraph::server {

namespace {

uint64_t NowNanos() { return obs::SystemClock::Instance()->NowNanos(); }

WireResponse ErrorResponse(const Status& status) {
  WireResponse resp;
  resp.code = status.code();
  resp.message = status.message();
  return resp;
}

WireResponse OkResponse(std::string message = {}) {
  WireResponse resp;
  resp.message = std::move(message);
  return resp;
}

/// Two-column key/value table used by the introspection admin verbs.
class KvTable {
 public:
  KvTable() {
    resp_.has_table = true;
    resp_.table.columns = {"key", "value"};
  }
  void Add(const std::string& key, Value value) {
    resp_.table.rows.push_back({Value(key), std::move(value)});
  }
  WireResponse Take() && { return std::move(resp_); }

 private:
  WireResponse resp_;
};

}  // namespace

HgqlServer::HgqlServer(const query::QueryBackend* backend,
                       storage::DurableStore* durable, ServerOptions options)
    : backend_(backend), durable_(durable), options_(std::move(options)) {
  if (durable_ != nullptr) {
    committer_ = std::make_unique<GroupCommitter>(durable_, &metrics_);
  }
  connections_accepted_ = metrics_.counter("server.connections_accepted");
  connections_rejected_ = metrics_.counter("server.connections_rejected");
  connections_active_gauge_ = metrics_.gauge("server.connections_active");
  requests_ = metrics_.counter("server.requests");
  requests_shed_ = metrics_.counter("server.requests_shed");
  request_errors_ = metrics_.counter("server.request_errors");
  inflight_gauge_ = metrics_.gauge("server.requests_inflight");
  request_nanos_ = metrics_.histogram("server.request_nanos");
  queries_ = metrics_.counter("server.queries");
  appends_ = metrics_.counter("server.appends");
  samples_appended_ = metrics_.counter("server.samples_appended");
  admin_requests_ = metrics_.counter("server.admin_requests");
  frames_rejected_ = metrics_.counter("server.frames_rejected");
  bytes_read_ = metrics_.counter("server.bytes_read");
  bytes_written_ = metrics_.counter("server.bytes_written");
  snapshots_pinned_ = metrics_.counter("server.snapshots_pinned");
}

HgqlServer::~HgqlServer() { Stop(); }

Status HgqlServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  auto listener = net::Listener::Listen(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();

  if (options_.enable_metrics_http) {
    auto mlistener =
        net::Listener::Listen(options_.host, options_.metrics_port);
    if (!mlistener.ok()) {
      listener_.Close();
      return mlistener.status();
    }
    metrics_listener_ = std::move(*mlistener);
    metrics_port_ = metrics_listener_.port();
  }

  if (options_.slow_query_threshold_ms > 0) {
    obs::SlowQueryLog::Global().set_threshold_nanos(
        options_.slow_query_threshold_ms * 1'000'000ull);
  }

  started_ = true;
  stopped_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });  // NOLINT(hygraph-raw-thread)
  if (options_.enable_metrics_http) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });  // NOLINT(hygraph-raw-thread)
  }
  return Status::OK();
}

void HgqlServer::Stop() {
  if (!started_ || stopped_.exchange(true)) return;
  // 1. No new connections: the accept thread sees the closed listener (or
  //    its next poll timeout) and exits.
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Nudge every live connection: half-close the read side so a blocked
  //    recv wakes with EOF. A request already executing completes and its
  //    response is written before the connection thread re-reads.
  {
    MutexLock lock(state_mu_);
    for (auto& conn : conns_) conn->sock.ShutdownRead();
  }
  // 3. Join everything.
  ReapConnections(/*all=*/true);
  metrics_listener_.Close();
  if (metrics_thread_.joinable()) metrics_thread_.join();
}

obs::MetricsSnapshot HgqlServer::MergedMetrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  if (durable_ != nullptr) {
    if (durable_->metrics() != nullptr) {
      snap.Merge(durable_->metrics()->Snapshot());
    }
    const query::QueryBackend* inner = durable_->inner();
    if (inner != nullptr && inner->metrics() != nullptr) {
      snap.Merge(inner->metrics()->Snapshot());
    }
  } else if (backend_->metrics() != nullptr) {
    snap.Merge(backend_->metrics()->Snapshot());
  }
  snap.Merge(obs::MetricsRegistry::Global().Snapshot());
  return snap;
}

uint64_t HgqlServer::sessions_opened() const {
  MutexLock lock(state_mu_);
  return sessions_opened_;
}

size_t HgqlServer::connections_active() const {
  return active_conns_.load(std::memory_order_relaxed);
}

void HgqlServer::ReapConnections(bool all) {
  std::vector<std::unique_ptr<Conn>> dead;
  {
    MutexLock lock(state_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || (*it)->done.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : dead) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void HgqlServer::AcceptLoop() {
  while (!stopped_.load(std::memory_order_relaxed)) {
    auto accepted = listener_.AcceptWithTimeout(/*timeout_ms=*/50);
    ReapConnections(/*all=*/false);
    if (!accepted.ok()) break;  // listener closed: Stop() is running
    if (!accepted->valid()) continue;  // poll timeout: re-check stop flag

    connections_accepted_->Increment();
    if (options_.max_connections != 0 &&
        active_conns_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      connections_rejected_->Increment();
      const std::string frame = EncodeResultFrame(ErrorResponse(
          Status::ResourceExhausted("server at connection limit")));
      HYGRAPH_IGNORE_RESULT(accepted->WriteAll(frame.data(), frame.size()));
      continue;  // Socket destructor closes the connection
    }

    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(*accepted);
    Conn* raw = conn.get();
    const size_t active = active_conns_.fetch_add(1) + 1;
    connections_active_gauge_->Set(static_cast<double>(active));
    {
      MutexLock lock(state_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {  // NOLINT(hygraph-raw-thread)
      ServeConnection(raw);
      const size_t now_active = active_conns_.fetch_sub(1) - 1;
      connections_active_gauge_->Set(static_cast<double>(now_active));
      raw->done.store(true, std::memory_order_release);
    });
  }
}

HgqlServer::ReadFrameResult HgqlServer::ReadFrame(net::Socket& sock) {
  ReadFrameResult out;
  uint8_t header[kWireHeaderSize];
  {
    // Between frames an orderly close is the normal end of a session.
    auto first = sock.ReadSome(header, 1);
    if (!first.ok()) {
      out.status = first.status();
      return out;
    }
    if (*first == 0) {
      out.status = Status::OK();
      return out;  // has_frame = false: EOF
    }
  }
  out.status = sock.ReadFull(header + 1, kWireHeaderSize - 1);
  if (!out.status.ok()) return out;

  DecodeResult header_scan =
      DecodeFrame(header, kWireHeaderSize, options_.max_frame_bytes);
  if (header_scan.progress == DecodeProgress::kError) {
    out.status = header_scan.error;
    return out;
  }
  std::string buf(reinterpret_cast<const char*>(header), kWireHeaderSize);
  if (header_scan.progress == DecodeProgress::kNeedMore &&
      header_scan.need > kWireHeaderSize) {
    buf.resize(header_scan.need);
    out.status =
        sock.ReadFull(buf.data() + kWireHeaderSize, buf.size() - kWireHeaderSize);
    if (!out.status.ok()) return out;
  }
  DecodeResult full =
      DecodeFrame(reinterpret_cast<const uint8_t*>(buf.data()), buf.size(),
                  options_.max_frame_bytes);
  if (full.progress != DecodeProgress::kFrame) {
    out.status = full.progress == DecodeProgress::kError
                     ? full.error
                     : Status::Internal("wire: short frame after full read");
    return out;
  }
  bytes_read_->Add(buf.size());
  out.has_frame = true;
  out.frame = std::move(full.frame);
  out.status = Status::OK();
  return out;
}

void HgqlServer::ServeConnection(Conn* conn) {
  Session session = [this] {
    MutexLock lock(state_mu_);
    ++sessions_opened_;
    return Session(next_session_id_++, backend_);
  }();

  for (;;) {
    ReadFrameResult read = ReadFrame(conn->sock);
    if (!read.status.ok()) {
      // A framing violation gets a best-effort error response; the stream
      // is not trustworthy afterwards, so the connection closes either way.
      if (!read.status.IsUnavailable()) {
        frames_rejected_->Increment();
        const std::string frame =
            EncodeResultFrame(ErrorResponse(read.status));
        HYGRAPH_IGNORE_RESULT(
            conn->sock.WriteAll(frame.data(), frame.size()));
      }
      return;
    }
    if (!read.has_frame) return;  // orderly EOF

    auto request = DecodeRequest(read.frame);
    WireResponse resp;
    bool goodbye = false;
    if (!request.ok()) {
      frames_rejected_->Increment();
      resp = ErrorResponse(request.status());
      goodbye = true;  // payload-level garbage: drop the connection too
    } else {
      goodbye = request->type == FrameType::kGoodbye;
      resp = HandleRequest(session, *request);
    }

    const std::string frame = EncodeResultFrame(resp);
    if (!conn->sock.WriteAll(frame.data(), frame.size()).ok()) return;
    bytes_written_->Add(frame.size());
    if (goodbye) return;
  }
}

WireResponse HgqlServer::HandleRequest(Session& session, const Request& req) {
  requests_->Increment();

  // Hello and goodbye are session control, not work: they bypass admission
  // so a saturated server still answers handshakes cheaply.
  if (req.type == FrameType::kHello) {
    session.set_client_name(req.hello.client_name);
    if (req.hello.protocol_version != kWireVersion) {
      session.errors++;
      request_errors_->Increment();
      return ErrorResponse(Status::InvalidArgument(
          "unsupported protocol version " +
          std::to_string(req.hello.protocol_version)));
    }
    KvTable table;
    table.Add("session_id", Value(static_cast<int64_t>(session.id())));
    table.Add("server", Value("hygraph"));
    table.Add("backend", Value(backend_->name()));
    WireResponse resp = std::move(table).Take();
    resp.message = "welcome";
    return resp;
  }
  if (req.type == FrameType::kGoodbye) return OkResponse("bye");

  // Admission gate: shed instead of queue once max_inflight is reached.
  const size_t inflight = in_flight_.fetch_add(1) + 1;
  inflight_gauge_->Set(static_cast<double>(inflight));
  if (options_.max_inflight != 0 && inflight > options_.max_inflight) {
    in_flight_.fetch_sub(1);
    requests_shed_->Increment();
    session.errors++;
    return ErrorResponse(Status::ResourceExhausted(
        "server overloaded: " + std::to_string(inflight - 1) +
        " requests in flight"));
  }

  const uint64_t start = NowNanos();
  WireResponse resp;
  switch (req.type) {
    case FrameType::kQuery:
      resp = HandleQuery(session, req.query);
      break;
    case FrameType::kAppend:
      resp = HandleAppend(session, req.append);
      break;
    case FrameType::kAdmin:
      resp = HandleAdmin(session, req.admin);
      break;
    default:
      resp = ErrorResponse(Status::Internal("unroutable request type"));
      break;
  }
  request_nanos_->Record(NowNanos() - start);
  if (resp.code != StatusCode::kOk) {
    session.errors++;
    request_errors_->Increment();
  }
  in_flight_.fetch_sub(1);
  inflight_gauge_->Set(
      static_cast<double>(in_flight_.load(std::memory_order_relaxed)));
  return resp;
}

WireResponse HgqlServer::HandleQuery(Session& session,
                                     const QueryRequest& req) {
  queries_->Increment();
  session.queries++;

  auto ast = query::Parse(req.text);
  if (!ast.ok()) return ErrorResponse(ast.status());
  auto plan = query::CompileQuery(*ast, {});
  if (!plan.ok()) return ErrorResponse(plan.status());

  std::shared_ptr<const query::QueryBackend> hold;
  const query::QueryBackend& view = session.ViewForRequest(&hold);

  Result<query::QueryResult> result = Status::OK();
  if (plan->mode != query::QueryMode::kNormal) {
    // EXPLAIN / PROFILE render through the executor's own dispatch.
    result = query::ExecutePlan(view, *plan);
  } else {
    QueryContext ctx;
    // Deadline priority: wire timeout, then the query's own TIMEOUT
    // clause, then the server default.
    const uint64_t timeout_ms = req.timeout_ms != 0      ? req.timeout_ms
                                : plan->timeout_ms != 0 ? plan->timeout_ms
                                                        : options_.default_timeout_ms;
    if (timeout_ms != 0) ctx.SetTimeout(timeout_ms, NowNanos);
    if (options_.points_budget != 0) {
      ctx.SetPointsBudget(options_.points_budget);
    }
    obs::SlowQueryLog& slow = obs::SlowQueryLog::Global();
    const uint64_t start = slow.enabled() ? NowNanos() : 0;
    result = query::RunPlan(view, *plan, nullptr, &ctx);
    if (slow.enabled()) {
      slow.MaybeRecord(req.text, view.name(), NowNanos() - start);
    }
  }
  if (!result.ok()) return ErrorResponse(result.status());

  WireResponse resp;
  resp.has_table = true;
  resp.table = std::move(*result);
  return resp;
}

WireResponse HgqlServer::HandleAppend(Session& session,
                                      const AppendRequest& req) {
  appends_->Increment();
  session.appends++;
  if (durable_ == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "server is read-only: no durable store attached"));
  }
  const auto apply = [this, &req]() -> Status {
    for (const SampleUpdate& s : req.samples) {
      HYGRAPH_RETURN_IF_ERROR(durable_->AppendSample(
          query::SeriesSlot{s.kind == SampleUpdate::kVertex, s.id, s.key},
          s.timestamp, s.value));
    }
    return Status::OK();
  };
  const Status status = req.no_sync ? committer_->CommitNoSync(apply)
                                    : committer_->Commit(apply);
  if (!status.ok()) return ErrorResponse(status);
  samples_appended_->Add(req.samples.size());
  WireResponse resp;
  resp.has_table = true;
  resp.table.columns = {"appended"};
  resp.table.rows.push_back(
      {Value(static_cast<int64_t>(req.samples.size()))});
  return resp;
}

WireResponse HgqlServer::HandleAdmin(Session& session,
                                     const AdminRequest& req) {
  admin_requests_->Increment();
  const std::string& cmd = req.command;

  if (cmd == "ping") return OkResponse("pong");

  if (cmd == "server.info") {
    KvTable table;
    table.Add("backend", Value(backend_->name()));
    table.Add("protocol_version", Value(static_cast<int64_t>(kWireVersion)));
    table.Add("port", Value(static_cast<int64_t>(port_)));
    table.Add("writable", Value(durable_ != nullptr));
    return std::move(table).Take();
  }

  if (cmd == "stats") {
    KvTable table;
    table.Add("session.id", Value(static_cast<int64_t>(session.id())));
    table.Add("session.queries",
              Value(static_cast<int64_t>(session.queries)));
    table.Add("session.appends",
              Value(static_cast<int64_t>(session.appends)));
    table.Add("session.errors", Value(static_cast<int64_t>(session.errors)));
    table.Add("session.snapshot_pinned",
              Value(session.has_pinned_snapshot()));
    table.Add("server.sessions_opened",
              Value(static_cast<int64_t>(sessions_opened())));
    table.Add("server.connections_active",
              Value(static_cast<int64_t>(connections_active())));
    table.Add("server.requests",
              Value(static_cast<int64_t>(requests_->value())));
    table.Add("server.requests_shed",
              Value(static_cast<int64_t>(requests_shed_->value())));
    return std::move(table).Take();
  }

  if (cmd == "metrics.json") {
    WireResponse resp;
    resp.has_table = true;
    resp.table.columns = {"json"};
    resp.table.rows.push_back({Value(MergedMetrics().ToJson())});
    return resp;
  }

  if (cmd == "slowlog") {
    WireResponse resp;
    resp.has_table = true;
    resp.table.columns = {"query", "backend", "nanos"};
    for (const obs::SlowQueryEntry& e :
         obs::SlowQueryLog::Global().Entries()) {
      resp.table.rows.push_back({Value(e.query), Value(e.backend),
                                 Value(static_cast<int64_t>(e.nanos))});
    }
    return resp;
  }

  if (cmd == "slowlog.clear") {
    obs::SlowQueryLog::Global().Clear();
    return OkResponse("slow-query log cleared");
  }

  if (cmd == "snapshot.begin") {
    const Status status = session.PinSnapshot();
    if (!status.ok()) return ErrorResponse(status);
    snapshots_pinned_->Increment();
    return OkResponse("session snapshot pinned");
  }

  if (cmd == "snapshot.release") {
    session.ReleaseSnapshot();
    return OkResponse("session snapshot released");
  }

  if (cmd == "sync") {
    if (durable_ == nullptr) {
      return ErrorResponse(
          Status::FailedPrecondition("no durable store attached"));
    }
    const Status status = durable_->SyncWal();
    if (!status.ok()) return ErrorResponse(status);
    return OkResponse("wal synced");
  }

  if (options_.enable_debug_commands && cmd.rfind("debug.spin ", 0) == 0) {
    // Holds an in-flight slot for the given milliseconds (admission and
    // shutdown tests). Busy-waits on the obs clock: src/ may not sleep.
    const uint64_t ms = std::strtoull(cmd.c_str() + 11, nullptr, 10);
    const uint64_t until = NowNanos() + ms * 1'000'000ull;
    while (NowNanos() < until) {
    }
    return OkResponse("spun");
  }

  return ErrorResponse(
      Status::InvalidArgument("unknown admin command: " + cmd));
}

// ---------------------------------------------------------------------------
// Metrics HTTP endpoint
// ---------------------------------------------------------------------------

void HgqlServer::MetricsLoop() {
  while (!stopped_.load(std::memory_order_relaxed)) {
    auto accepted = metrics_listener_.AcceptWithTimeout(/*timeout_ms=*/50);
    if (!accepted.ok()) break;
    if (!accepted->valid()) continue;
    ServeMetricsConnection(std::move(*accepted));
  }
}

void HgqlServer::ServeMetricsConnection(net::Socket sock) {
  // Minimal HTTP/1.0: read until the request line is complete, answer one
  // GET, close. Scrapers (Prometheus, curl, urllib) all speak this.
  std::string request;
  char chunk[512];
  while (request.find("\r\n") == std::string::npos &&
         request.size() < 4096) {
    auto got = sock.ReadSome(chunk, sizeof(chunk));
    if (!got.ok() || *got == 0) break;
    request.append(chunk, *got);
  }
  const size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);

  std::string status_line = "HTTP/1.0 200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (line.rfind("GET /metrics.json", 0) == 0) {
    body = MergedMetrics().ToJson();
    content_type = "application/json";
  } else if (line.rfind("GET /metrics", 0) == 0) {
    body = MergedMetrics().ToPrometheusText();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (line.rfind("GET /healthz", 0) == 0) {
    body = "ok\n";
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "not found\n";
  }
  std::string out = status_line + "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n" + body;
  HYGRAPH_IGNORE_RESULT(sock.WriteAll(out.data(), out.size()));
}

}  // namespace hygraph::server
