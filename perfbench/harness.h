// The engine-facing half of hgbench: building the bike-sharing fixture,
// running a request list over the wire or replaying it in-process, and
// reading the engine's counters.

#ifndef HYGRAPH_PERFBENCH_HARNESS_H_
#define HYGRAPH_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_core.h"
#include "obs/metrics.h"
#include "server/group_commit.h"
#include "server/server.h"
#include "storage/durable.h"
#include "workloads/bike_sharing.h"

namespace hgbench {

struct FixtureSize {
  size_t stations = 600;
  size_t districts = 8;
  size_t days = 14;
  size_t trips_per_station = 4;
};

/// How the store under test is configured.
struct StoreConfig {
  bool tiered = false;
  /// Checkpoint the bulk-loaded history at set-up (durable, and with
  /// tiering the sealed chunks spill to the cold tier).
  bool checkpoint = false;
  size_t cache_budget_bytes = 64u << 20;
  size_t checkpoint_every = 0;
};

/// A loaded store, optionally behind a started HGQL server. Members are
/// declared so the server stops before the store closes.
struct Fixture {
  std::string dir;
  StoreConfig config;
  hygraph::workloads::BikeSharingDataset dataset;
  Shape shape;
  size_t history_samples = 0;
  std::unique_ptr<hygraph::storage::DurableStore> store;
  std::unique_ptr<hygraph::server::HgqlServer> server;
  double setup_s = 0;  ///< generate + open + load + checkpoint + first reply
};

/// Builds a fresh fixture in `dir`, deleting whatever was there. With `serve`
/// the server is started and set-up ends when its first request has been
/// answered. Exits the process on any failure.
std::unique_ptr<Fixture> SetUp(const FixtureSize& size,
                               const StoreConfig& config,
                               const std::string& dir, bool serve);

/// Stops the server, closes the store without a checkpoint and deletes
/// the directory.
void TearDown(std::unique_ptr<Fixture> fixture);

/// Restart: stops the server, closes the store without a checkpoint and
/// opens the directory again with the same options. Returns the seconds
/// Open() took.
double Reopen(Fixture* fixture);

/// One request's outcome.
struct Outcome {
  bool ok = false;
  double ms = 0;      ///< send to reply (wire) or entry to exit (replay)
  uint64_t hash = 0;  ///< HashResult of a query's answer
  std::string error;
};

/// A run of a request list through some connections.
struct PhaseRun {
  /// Aligned with the list; the open-ended connection gets one outcome per
  /// request it ran, cycling through its list.
  std::vector<std::vector<Outcome>> by_conn;
  /// Outcomes of the list's untimed warm-up (wire phase only).
  std::vector<std::vector<Outcome>> warmup;
  double wall_s = 0;        ///< start to the last connection finishing
  double fixed_wall_s = 0;  ///< start to the last fixed-work connection
  /// Full answers of the requests `keep` selected, keyed by KeepKey.
  std::map<uint64_t, hygraph::query::QueryResult> kept;
  hygraph::obs::MetricsSnapshot before;
  hygraph::obs::MetricsSnapshot after;
  std::vector<SpanLog> spans;  ///< one per connection when traced
};

inline uint64_t KeepKey(size_t conn, size_t index) {
  return (static_cast<uint64_t>(conn) << 32) | index;
}

/// Sends the list over loopback HGQL, one closed-loop client per
/// connection. Each connection first runs its warm-up queries; timing and
/// the counter snapshot start once every connection has finished them.
/// `keep` (optional, per connection) selects requests whose full answers
/// are kept.
PhaseRun RunWire(Fixture* fixture, const RequestList& list,
                 const std::vector<std::vector<bool>>* keep);

/// Replays the list in-process through the layers' public entry points,
/// one thread per connection; `traced` records a span per layer call.
PhaseRun RunReplay(Fixture* fixture, const RequestList& list, bool traced);

/// Every registry the fixture's store (and server, if any) writes to.
hygraph::obs::MetricsSnapshot Merged(const Fixture& fixture,
                                     const hygraph::obs::MetricsRegistry*
                                         extra = nullptr);

uint64_t CounterDelta(const PhaseRun& run, const std::string& name);
/// Quantile of the histogram's growth over the phase, in nanoseconds.
double HistogramDeltaQuantile(const PhaseRun& run, const std::string& name,
                              double q);
uint64_t HistogramDeltaCount(const PhaseRun& run, const std::string& name);
uint64_t HistogramDeltaSum(const PhaseRun& run, const std::string& name);

/// Bytes under the store directory, by file kind.
struct DiskUsage {
  uint64_t snapshot = 0;
  uint64_t segment = 0;
  uint64_t catalog = 0;
  uint64_t wal = 0;
  uint64_t other = 0;
  uint64_t total() const { return snapshot + segment + catalog + wal + other; }
};
DiskUsage MeasureDisk(const std::string& dir);

/// Program-independent host probe: the fastest of five dependent walks
/// over a fixed 1 MiB random cycle, in microseconds. Printed beside the
/// results to show host drift; it measures nothing of the engine.
double DriftProbeUs();

}  // namespace hgbench

#endif  // HYGRAPH_PERFBENCH_HARNESS_H_
