// hgbench's own determinism self-test (`hgbench selftest`):
//   * the same seed gives a byte-identical request list, another seed a
//     different one, for every workload;
//   * two single-connection replays on fresh stores do identical work:
//     chunks decoded, cold pins, morsels, WAL appends and WAL syncs;
//   * the nearest-rank percentile returns the expected values.
// Exits 0 when every check holds.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_core.h"
#include "harness.h"

namespace hgbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(hundred, 100) == 100, "p100 of 1..100 is 100");
  Expect(Percentile({4, 1, 3, 2}, 50) == 2, "p50 of {4,1,3,2} is 2");
  Expect(Percentile({4, 1, 3, 2}, 99) == 4, "p99 of {4,1,3,2} is 4");
  Expect(Percentile({7}, 99) == 7, "p99 of one sample is that sample");
  Expect(Percentile({}, 50) == 0, "p50 of nothing is 0");
  Expect(SamplesBeyond(1000, 99) == 10, "p99 of 1000 rests on 10 above");
}

Shape TestShape(size_t stations) {
  Shape s;
  s.start = 1699920000000;
  s.days = 14;
  s.stations = stations;
  s.districts = 8;
  s.interval = 5 * hygraph::kMinute;
  for (size_t i = 0; i < stations; ++i) s.station_ids.push_back(i);
  return s;
}

void TestRequestLists() {
  const Shape shape = TestShape(600);
  for (Workload w : {Workload::kDashboard, Workload::kAnalyticsCold,
                     Workload::kIngestLive}) {
    const RequestList list = BuildRequests(w, shape, 7, 2);
    const std::string a = SerializeRequests(list);
    const std::string b = SerializeRequests(BuildRequests(w, shape, 7, 2));
    const std::string c = SerializeRequests(BuildRequests(w, shape, 8, 2));
    const std::string name = WorkloadName(w);
    Expect(!a.empty() && a == b, name + ": same seed, identical list");
    Expect(a != c, name + ": other seed, different list");
    Fnv64 whole;
    whole.Bytes(a.data(), a.size());
    Expect(HashRequests(list) == whole.value(),
           name + ": streamed list hash matches the serialized bytes");
  }
}

struct WorkCounts {
  uint64_t decoded = 0, cold_pins = 0, morsels = 0, wal_appends = 0,
           wal_syncs = 0;
  bool operator==(const WorkCounts&) const = default;
};

/// One single-connection replay of a few analytics queries and appends on
/// a fresh small tiered store whose cold cache is far smaller than its
/// segments.
WorkCounts ReplayOnce(const std::string& dir, size_t* failed) {
  FixtureSize size;
  size.stations = 48;
  StoreConfig config;
  config.tiered = true;
  config.checkpoint = true;
  config.cache_budget_bytes = 16u << 10;
  std::unique_ptr<Fixture> fx = SetUp(size, config, dir, false);
  const RequestList analytics =
      BuildRequests(Workload::kAnalyticsCold, fx->shape, 11, 1);
  const RequestList ingest =
      BuildRequests(Workload::kIngestLive, fx->shape, 11, 1);
  RequestList one = ingest;  // keeps what Samples() needs
  one.by_conn.assign(1, {});
  one.open_ended = -1;
  for (size_t i = 0; i < 12; ++i) {
    one.by_conn[0].push_back(analytics.by_conn[0][i]);
  }
  for (size_t i = 0; i < 8; ++i) {
    one.by_conn[0].push_back(ingest.by_conn[i % 2][i / 2]);
  }
  const PhaseRun run = RunReplay(fx.get(), one, /*traced=*/false);
  for (const Outcome& o : run.by_conn[0]) *failed += o.ok ? 0 : 1;
  WorkCounts w;
  w.decoded = CounterDelta(run, "hypertable.chunks_decoded");
  w.cold_pins = CounterDelta(run, "hypertable.cold_pins");
  w.morsels = CounterDelta(run, "hypertable.morsels_dispatched");
  w.wal_appends = CounterDelta(run, "wal.appends");
  w.wal_syncs = CounterDelta(run, "wal.syncs");
  TearDown(std::move(fx));
  return w;
}

void TestReplayCounts(const std::string& work_dir) {
  size_t failed = 0;
  const WorkCounts a = ReplayOnce(work_dir + "/selftest-a", &failed);
  const WorkCounts b = ReplayOnce(work_dir + "/selftest-b", &failed);
  for (const WorkCounts* w : {&a, &b}) {
    std::printf("replay counts: decoded %llu, cold pins %llu, morsels %llu, "
                "wal appends %llu, wal syncs %llu\n",
                static_cast<unsigned long long>(w->decoded),
                static_cast<unsigned long long>(w->cold_pins),
                static_cast<unsigned long long>(w->morsels),
                static_cast<unsigned long long>(w->wal_appends),
                static_cast<unsigned long long>(w->wal_syncs));
  }
  Expect(failed == 0, "every replayed request succeeds");
  Expect(a.decoded > 0 && a.cold_pins > 0 && a.wal_appends > 0 &&
             a.wal_syncs > 0,
         "the replay decodes, pins cold chunks, appends and syncs");
  Expect(a == b, "two single-connection replays do identical work");
}

}  // namespace

int SelfTest(const std::string& work_dir) {
  TestPercentiles();
  TestRequestLists();
  TestReplayCounts(work_dir);
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace hgbench
