// Building blocks of hgbench that do not touch the engine's
// stores: the seeded request-list generator, nearest-rank percentiles,
// result hashing, the in-memory span log and the metric printer.

#ifndef HYGRAPH_PERFBENCH_BENCH_CORE_H_
#define HYGRAPH_PERFBENCH_BENCH_CORE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "query/executor.h"
#include "server/wire.h"

namespace hgbench {

using hygraph::Timestamp;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Seeded randomness (splitmix64). The benchmark owns its generator so the
// request list depends on the seed alone, never on engine code.
// ---------------------------------------------------------------------------

class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n must be > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample such that at least `pct`
/// percent of the samples are at or below it. Integer rank arithmetic, so
/// p99 of 100 samples is exactly the 99th smallest. Empty input yields 0.
double Percentile(std::vector<double> samples, unsigned pct);

/// Number of samples strictly above the nearest-rank `pct` percentile's
/// rank (how many samples a percentile rests on from above).
size_t SamplesBeyond(size_t n, unsigned pct);

// ---------------------------------------------------------------------------
// Hashing (FNV-1a, 64 bit)
// ---------------------------------------------------------------------------

class Fnv64 {
 public:
  void Bytes(const void* data, size_t n);
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Hash of a result table over column names and every cell's type and
/// exact bits: two tables hash equal only when they are bit-identical.
uint64_t HashResult(const hygraph::query::QueryResult& table);

/// True when both tables have the same shape and every cell agrees, with
/// numbers allowed |x - y| <= tol * (1 + |x|) (tol = 0 demands equality;
/// two NaNs agree). Writes the first difference to `why`.
bool SameResult(const hygraph::query::QueryResult& a,
                const hygraph::query::QueryResult& b, double tol,
                std::string* why);

// ---------------------------------------------------------------------------
// Request lists
// ---------------------------------------------------------------------------

enum class Workload { kDashboard, kAnalyticsCold, kIngestLive };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// What the request generator needs to know about the loaded fixture.
struct Shape {
  Timestamp start = 0;  ///< first sample of the history (midnight)
  size_t days = 0;
  size_t stations = 0;
  size_t districts = 0;
  hygraph::Duration interval = 0;
  std::vector<uint64_t> station_ids;  ///< vertex id of station i
};

struct Request {
  /// "q1".."q8", "q5h" or "append"; points at static storage.
  const char* cls = "";
  std::string text;  ///< HGQL text of a query
  /// An append: stations [first, first + count) at live tick `tick`. The
  /// samples are materialized only when sent (RequestList::Samples), so the
  /// list itself stays small next to the store it measures.
  bool is_append = false;
  uint32_t first = 0;
  uint32_t count = 0;
  uint32_t tick = 0;
};

struct RequestList {
  std::vector<std::vector<Request>> by_conn;
  /// Queries each connection runs, untimed, before the measured phase (from
  /// a seed stream of their own, so they leave `by_conn` unchanged).
  std::vector<std::vector<Request>> warmup;
  /// Connection that cycles through its list until every other connection
  /// has finished its fixed list (ingest_live's reader); -1 when all
  /// connections run fixed work.
  int open_ended = -1;
  /// ingest_live: live ticks appended and the time range they cover.
  size_t ticks = 0;
  Timestamp live_start = 0;
  Timestamp live_end = 0;
  hygraph::Duration interval = 0;
  uint64_t seed = 0;
  std::vector<uint64_t> station_ids;

  /// The samples an append request carries (empty for a query).
  std::vector<hygraph::server::SampleUpdate> Samples(const Request& r) const;
};

/// Live 5-minute ticks ingest_live appends per --seconds of run length.
inline constexpr size_t kTicksPerSecond = 200;

/// Builds the fixed request list of `workload` for `seconds` of run length:
/// the request count is seconds times a fixed nominal rate, so a faster
/// program finishes sooner instead of doing more work.
RequestList BuildRequests(Workload workload, const Shape& shape,
                          uint64_t seed, size_t seconds);

/// Canonical bytes of a request list (connection, class, text and every
/// sample's fields); equal bytes mean an identical list.
std::string SerializeRequests(const RequestList& list);

/// FNV-1a of SerializeRequests(list), computed line by line: an
/// ingest_live list serializes to tens of MB, which would otherwise show
/// up in the run's peak RSS.
uint64_t HashRequests(const RequestList& list);

/// Value the live tick `tick` of station `station` carries (seeded).
double LiveValue(uint64_t seed, size_t station, size_t tick);

// ---------------------------------------------------------------------------
// Spans (traced replay)
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  const char* tag = "";  ///< request class, for per-class execute times
  uint64_t start = 0;
  uint64_t end = 0;
  int32_t parent = -1;  ///< index into the same thread's log; -1 = root
  uint32_t request = 0;
};

/// One replay thread's spans, kept in memory until the benchmark exits.
/// Not thread-safe: each replay thread owns its log.
class SpanLog {
 public:
  int32_t Begin(const char* name, const char* tag, uint32_t request);
  void End(int32_t index);

  std::vector<Span> spans;

 private:
  std::vector<int32_t> open_;
};

/// RAII span; a null log records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t request,
             const char* tag = "")
      : log_(log), index_(log ? log->Begin(name, tag, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Per-span self time: duration minus the time its children cover.
std::vector<uint64_t> SelfNanos(const SpanLog& log);

/// Writes every span of every log as JSON lines to `path`.
bool WriteSpans(const std::vector<SpanLog>& logs, const std::string& path);

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}, values with all their digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace hgbench

#endif  // HYGRAPH_PERFBENCH_BENCH_CORE_H_
