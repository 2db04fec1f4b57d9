#include "bench_core.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace hgbench {

using hygraph::kDay;
using hygraph::Value;
using hygraph::query::QueryResult;

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> samples, unsigned pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, n);
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, unsigned pct) {
  if (n == 0) return 0;
  const size_t rank =
      std::clamp<size_t>((static_cast<size_t>(pct) * n + 99) / 100, 1, n);
  return n - rank;
}

// ---------------------------------------------------------------------------
// Hashing and comparison
// ---------------------------------------------------------------------------

void Fnv64::Bytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

namespace {

void HashValue(const Value& v, Fnv64* h) {
  h->U64(static_cast<uint64_t>(v.type()));
  switch (v.type()) {
    case hygraph::ValueType::kNull:
      break;
    case hygraph::ValueType::kBool:
      h->U64(v.AsBool() ? 1 : 0);
      break;
    case hygraph::ValueType::kInt:
      h->U64(static_cast<uint64_t>(v.AsInt()));
      break;
    case hygraph::ValueType::kDouble: {
      const double d = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      h->U64(bits);
      break;
    }
    case hygraph::ValueType::kString:
      h->Str(v.AsString());
      break;
    case hygraph::ValueType::kSeriesRef:
      h->U64(v.AsSeriesId());
      break;
  }
}

}  // namespace

uint64_t HashResult(const QueryResult& table) {
  Fnv64 h;
  h.U64(table.columns.size());
  for (const std::string& c : table.columns) h.Str(c);
  h.U64(table.rows.size());
  for (const auto& row : table.rows) {
    h.U64(row.size());
    for (const Value& v : row) HashValue(v, &h);
  }
  return h.value();
}

bool SameResult(const QueryResult& a, const QueryResult& b, double tol,
                std::string* why) {
  if (a.columns != b.columns) {
    *why = "columns differ";
    return false;
  }
  if (a.rows.size() != b.rows.size()) {
    *why = "row counts differ: " + std::to_string(a.rows.size()) + " vs " +
           std::to_string(b.rows.size());
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) {
      *why = "row " + std::to_string(r) + " widths differ";
      return false;
    }
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const Value& x = a.rows[r][c];
      const Value& y = b.rows[r][c];
      bool same = false;
      if (x.is_numeric() && y.is_numeric()) {
        const double dx = x.ToDouble().value();
        const double dy = y.ToDouble().value();
        same = (std::isnan(dx) && std::isnan(dy)) ||
               std::abs(dx - dy) <= tol * (1.0 + std::abs(dx));
      } else {
        same = x == y;
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " column " + a.columns[c] +
               ": " + x.ToString() + " vs " + y.ToString();
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Request lists
// ---------------------------------------------------------------------------

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kDashboard, Workload::kAnalyticsCold,
                     Workload::kIngestLive}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDashboard:
      return "dashboard";
    case Workload::kAnalyticsCold:
      return "analytics_cold";
    case Workload::kIngestLive:
      return "ingest_live";
  }
  return "?";
}

namespace {

struct ClassWeight {
  const char* cls;
  unsigned per_mille;
};

// Class mixes. The weights put each workload's p50 and p99 well inside one
// class's share, so a percentile never sits on a boundary between classes
// whose costs differ by up to 20x (perfbench/README.md gives the per-class
// costs behind these numbers).
//
// dashboard: 90% local reads (q1/q2/q7/q3), 10% fleet rollups (q4/q5/q8).
constexpr ClassWeight kDashboardMix[] = {
    {"q1", 200}, {"q2", 450}, {"q7", 150}, {"q3", 100},
    {"q4", 33},  {"q5", 33},  {"q8", 34}};
// analytics_cold: the two decode-bound classes only. q6 costs about 8x
// q5h; at 2% of requests the p99 is q6's median, so a burst of host noise
// must slow half of the q6 requests to move it.
constexpr ClassWeight kAnalyticsMix[] = {{"q5h", 980}, {"q6", 20}};
// ingest_live's reader: local reads over the newest data.
constexpr ClassWeight kReaderMix[] = {{"q1", 250}, {"q2", 600}, {"q7", 150}};

// Nominal completion rates that turn --seconds into a fixed request count.
constexpr size_t kDashboardPerSecond = 800;
constexpr size_t kAnalyticsPerSecond = 110;
// Reader list length; the reader cycles through it until the writers end.
constexpr size_t kReaderListLength = 4096;
// Untimed warm-up queries per connection (about a second of each workload;
// ingest_live warms only its reader, before the writers start).
constexpr size_t kDashboardWarmup = 400;
constexpr size_t kAnalyticsWarmup = 100;
constexpr size_t kReaderWarmup = 200;

/// Exactly n classes in the mix's proportions (largest remainders first),
/// in seeded random order: every seed runs the same amount of each class.
std::vector<const char*> DealClasses(const ClassWeight* mix, size_t count,
                                     size_t n, SeedRng* rng) {
  std::vector<const char*> out;
  out.reserve(n);
  for (size_t i = 0; i < count; ++i) {
    out.insert(out.end(), n * mix[i].per_mille / 1000, mix[i].cls);
  }
  for (size_t i = 0; out.size() < n; i = (i + 1) % count) {
    out.push_back(mix[i].cls);
  }
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng->Below(i)]);
  return out;
}

std::string Str(int64_t v) { return std::to_string(v); }

std::string StationName(size_t i) { return "'S" + std::to_string(i) + "'"; }

/// HGQL text of one request of class `cls` over [t0, t1).
std::string QueryText(const std::string& cls, size_t station,
                      size_t district, Timestamp t0, Timestamp t1) {
  const std::string range = Str(t0) + ", " + Str(t1);
  const std::string s = StationName(station);
  const std::string d = Str(static_cast<int64_t>(district));
  if (cls == "q1") {
    return "MATCH (s:Station {name: " + s + "}) RETURN ts_count(s.bikes, " +
           range + ")";
  }
  if (cls == "q2") {
    return "MATCH (s:Station {name: " + s + "}) RETURN ts_avg(s.bikes, " +
           range + ")";
  }
  if (cls == "q3") {
    return "MATCH (s:Station) WHERE s.district = " + d +
           " RETURN s.name, ts_avg(s.bikes, " + range + ")";
  }
  if (cls == "q4") {
    return "MATCH (s:Station) RETURN s.name AS n, ts_avg(s.bikes, " + range +
           ") AS a ORDER BY a DESC, n LIMIT 10";
  }
  if (cls == "q5") {
    return "MATCH (s:Station) RETURN s.name, ts_window_agg(s.bikes, " + range +
           ", " + Str(kDay) + ", 'avg', 'max')";
  }
  if (cls == "q5h") {
    return "MATCH (s:Station) WHERE s.district = " + d +
           " RETURN s.name, ts_window_agg(s.bikes, " + range + ", " +
           Str(hygraph::kHour) + ", 'avg', 'max')";
  }
  if (cls == "q6") {
    return "MATCH (a:Station {name: " + s + "}), (b:Station) WHERE b.name <> " +
           s + " RETURN b.name AS n, ts_corr(a.bikes, b.bikes, " + range +
           ") AS c ORDER BY c DESC, n LIMIT 5";
  }
  if (cls == "q7") {
    return "MATCH (a:Station {name: " + s +
           "})-[:TRIP]->(b:Station) RETURN b.name, ts_avg(b.bikes, " + range +
           ")";
  }
  // q8: pattern + series predicate on both endpoints.
  return "MATCH (a:Station)-[:TRIP]->(b:Station) WHERE a.district = " + d +
         " AND ts_avg(a.bikes, " + range + ") > ts_avg(b.bikes, " + range +
         ") RETURN a.name AS x, b.name AS y ORDER BY x, y LIMIT 25";
}

bool IsRollup(const std::string& cls) {
  return cls == "q4" || cls == "q5" || cls == "q5h" || cls == "q6" ||
         cls == "q8";
}

/// One query of class `cls` over a seeded day-aligned window of the history:
/// 1-3 days for local reads, 7 days for rollups and analytics.
Request HistoryQuery(const char* cls, const Shape& shape, SeedRng* rng) {
  const size_t len = IsRollup(cls) ? 7 : 1 + rng->Below(3);
  const size_t first_day = rng->Below(shape.days - len + 1);
  const Timestamp t0 = shape.start + static_cast<Timestamp>(first_day) * kDay;
  const Timestamp t1 = t0 + static_cast<Timestamp>(len) * kDay;
  const size_t station = rng->Below(shape.stations);
  const size_t district = rng->Below(shape.districts);
  Request r;
  r.cls = cls;
  r.text = QueryText(cls, station, district, t0, t1);
  return r;
}

}  // namespace

double LiveValue(uint64_t seed, size_t station, size_t tick) {
  SeedRng rng(seed ^ (static_cast<uint64_t>(station) << 32) ^
              (static_cast<uint64_t>(tick) * 0x9E3779B97F4A7C15ull));
  return static_cast<double>(rng.Below(61));
}

RequestList BuildRequests(Workload workload, const Shape& shape,
                          uint64_t seed, size_t seconds) {
  SeedRng rng(seed);
  SeedRng warm_rng(seed ^ 0x3A7B1C0FFEEull);
  // n history queries of `mix` for one connection's warm-up.
  auto warmup = [&](const ClassWeight* mix, size_t count, size_t n) {
    std::vector<Request> out;
    for (const char* cls : DealClasses(mix, count, n, &warm_rng)) {
      out.push_back(HistoryQuery(cls, shape, &warm_rng));
    }
    return out;
  };
  RequestList list;
  switch (workload) {
    case Workload::kDashboard: {
      list.by_conn.resize(2);
      const std::vector<const char*> classes =
          DealClasses(kDashboardMix, std::size(kDashboardMix),
                      seconds * kDashboardPerSecond, &rng);
      for (size_t i = 0; i < classes.size(); ++i) {
        list.by_conn[i % 2].push_back(HistoryQuery(classes[i], shape, &rng));
      }
      for (int c = 0; c < 2; ++c) {
        list.warmup.push_back(warmup(kDashboardMix, std::size(kDashboardMix),
                                     kDashboardWarmup));
      }
      break;
    }
    case Workload::kAnalyticsCold: {
      list.by_conn.resize(1);
      for (const char* cls :
           DealClasses(kAnalyticsMix, std::size(kAnalyticsMix),
                       seconds * kAnalyticsPerSecond, &rng)) {
        list.by_conn[0].push_back(HistoryQuery(cls, shape, &rng));
      }
      list.warmup.push_back(warmup(kAnalyticsMix, std::size(kAnalyticsMix),
                                   kAnalyticsWarmup));
      break;
    }
    case Workload::kIngestLive: {
      // Connections 0 and 1 write; each request is one writer's half of a
      // 5-minute tick for every station. Connection 2 reads the newest day.
      list.by_conn.resize(3);
      list.ticks = seconds * kTicksPerSecond;
      list.live_start =
          shape.start + static_cast<Timestamp>(shape.days) * kDay;
      list.live_end = list.live_start +
                      static_cast<Timestamp>(list.ticks) * shape.interval;
      list.interval = shape.interval;
      list.seed = seed;
      list.station_ids = shape.station_ids;
      const auto half = static_cast<uint32_t>(shape.stations / 2);
      for (size_t tick = 0; tick < list.ticks; ++tick) {
        for (uint32_t w = 0; w < 2; ++w) {
          Request r;
          r.cls = "append";
          r.is_append = true;
          r.first = w * half;
          r.count = w == 0 ? half
                           : static_cast<uint32_t>(shape.stations) - half;
          r.tick = static_cast<uint32_t>(tick);
          list.by_conn[w].push_back(std::move(r));
        }
      }
      // The reader's window spans the newest history day and every live
      // tick, so each of its queries reads data the writers are changing.
      list.open_ended = 2;
      const Timestamp t0 = list.live_start - kDay;
      auto reader_query = [&](const char* cls, SeedRng* r) {
        Request q;
        q.cls = cls;
        q.text = QueryText(cls, r->Below(shape.stations), 0, t0,
                           list.live_end);
        return q;
      };
      for (const char* cls : DealClasses(kReaderMix, std::size(kReaderMix),
                                         kReaderListLength, &rng)) {
        list.by_conn[2].push_back(reader_query(cls, &rng));
      }
      list.warmup.resize(3);
      for (const char* cls : DealClasses(kReaderMix, std::size(kReaderMix),
                                         kReaderWarmup, &warm_rng)) {
        list.warmup[2].push_back(reader_query(cls, &warm_rng));
      }
      break;
    }
  }
  return list;
}

std::vector<hygraph::server::SampleUpdate> RequestList::Samples(
    const Request& r) const {
  std::vector<hygraph::server::SampleUpdate> out;
  if (!r.is_append) return out;
  out.reserve(r.count);
  const Timestamp t = live_start + static_cast<Timestamp>(r.tick) * interval;
  for (size_t s = r.first; s < r.first + r.count; ++s) {
    hygraph::server::SampleUpdate u;
    u.kind = hygraph::server::SampleUpdate::kVertex;
    u.id = station_ids[s];
    u.key = "bikes";
    u.timestamp = t;
    u.value = LiveValue(seed, s, r.tick);
    out.push_back(std::move(u));
  }
  return out;
}

namespace {

/// Calls emit(line) with the canonical line of every request, warm-up
/// first, so a list can be hashed without holding all of its bytes.
template <typename Emit>
void ForEachRequestLine(const RequestList& list, Emit emit) {
  char buf[128];
  std::string line;
  for (size_t c = 0; c < list.warmup.size(); ++c) {
    for (const Request& r : list.warmup[c]) {
      emit("warmup " + std::to_string(c) + "|" + r.cls + "|" + r.text + "\n");
    }
  }
  for (size_t c = 0; c < list.by_conn.size(); ++c) {
    for (const Request& r : list.by_conn[c]) {
      line = std::to_string(c) + "|" + r.cls + "|" + r.text + "|";
      for (const auto& s : list.Samples(r)) {
        uint64_t bits = 0;
        std::memcpy(&bits, &s.value, sizeof(bits));
        std::snprintf(buf, sizeof(buf), "%u:%" PRIu64 ":%s:%" PRId64 ":%" PRIx64 ";",
                      static_cast<unsigned>(s.kind), s.id, s.key.c_str(),
                      static_cast<int64_t>(s.timestamp), bits);
        line += buf;
      }
      line += "\n";
      emit(line);
    }
  }
}

}  // namespace

std::string SerializeRequests(const RequestList& list) {
  std::string out;
  ForEachRequestLine(list, [&out](const std::string& line) { out += line; });
  return out;
}

uint64_t HashRequests(const RequestList& list) {
  Fnv64 h;
  ForEachRequestLine(list, [&h](const std::string& line) {
    h.Bytes(line.data(), line.size());
  });
  return h.value();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int32_t SpanLog::Begin(const char* name, const char* tag, uint32_t request) {
  Span s;
  s.name = name;
  s.tag = tag;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = NowNanos();
  spans.push_back(s);
  const auto index = static_cast<int32_t>(spans.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans[static_cast<size_t>(index)].end = NowNanos();
  open_.pop_back();
}

std::vector<uint64_t> SelfNanos(const SpanLog& log) {
  std::vector<uint64_t> child(log.spans.size(), 0);
  for (const Span& s : log.spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<uint64_t> self(log.spans.size(), 0);
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const uint64_t d = log.spans[i].end - log.spans[i].start;
    self[i] = d > child[i] ? d - child[i] : 0;
  }
  return self;
}

bool WriteSpans(const std::vector<SpanLog>& logs, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t].spans) {
      std::fprintf(f,
                   "{\"thread\":%zu,\"request\":%u,\"name\":\"%s\","
                   "\"tag\":\"%s\",\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 ",\"parent\":%d}\n",
                   t, s.request, s.name, s.tag, s.start, s.end, s.parent);
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace hgbench
