// Durability & crash recovery walkthrough: wrap a storage backend in a
// DurableStore, ingest a small sensor workload, "crash" by dropping the
// process state, and recover everything from the snapshot + write-ahead
// log — including a torn WAL tail, which is salvaged rather than fatal.
//
//   build:  cmake -B build && cmake --build build --target durability_recovery
//   run:    ./build/examples/durability_recovery

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"

using namespace hygraph;

namespace {

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::printf("== HyGraph durability & recovery ==\n\n");
  storage::Env* env = storage::Env::Default();
  char tmpl[] = "/tmp/hygraph_durability_example_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) return 1;
  const std::string dir = std::string(tmpl) + "/store";

  // 1. Open a durable store over the polyglot backend and ingest. Every
  //    mutation is WAL-logged and fsynced before it is acknowledged.
  {
    storage::DurableStore store(env, dir,
                                std::make_unique<storage::PolyglotStore>());
    Check(store.Open(), "open");
    auto station = store.AddVertex({"Station"}, {{"city", Value("berlin")}});
    auto sensor = store.AddVertex({"Sensor"}, {{"model", Value("T-1000")}});
    auto link = store.AddEdge(*sensor, *station, "mounted_at", {});
    Check(link.status(), "add edge");
    for (int i = 0; i < 24; ++i) {
      Check(store.AppendSample({true, *sensor, "temperature"},
                               1700000000000 + i * kHour, 15.0 + i % 7),
            "append sample");
    }
    std::printf("ingested: %zu vertices, %zu edges, 24 samples\n",
                store.topology().VertexCount(), store.topology().EdgeCount());

    // 2. Checkpoint: full state goes into a checksummed snapshot, the WAL
    //    starts a fresh epoch.
    Check(store.Checkpoint(), "checkpoint");
    std::printf("checkpointed at sequence %llu\n",
                static_cast<unsigned long long>(store.next_seq() - 1));

    // 3. More writes after the checkpoint — these live only in the WAL.
    for (int i = 24; i < 30; ++i) {
      Check(store.AppendSample({true, *sensor, "temperature"},
                               1700000000000 + i * kHour, 21.5),
            "append sample");
    }
    std::printf("appended 6 post-checkpoint samples\n\n");
  }  // <- the store object dies here: our simulated crash

  // 4. Tear the WAL tail, as a real power cut might mid-write.
  auto size = env->GetFileSize(dir + "/wal.log");
  Check(size.status(), "stat wal");
  Check(env->TruncateFile(dir + "/wal.log", *size - 5), "tear wal");
  std::printf("simulated crash: tore the last 5 bytes off the WAL\n\n");

  // 5. Recover: snapshot + WAL replay; the torn record is truncated away.
  storage::DurableStore store(env, dir,
                              std::make_unique<storage::PolyglotStore>());
  Check(store.Open(), "recover");
  const auto& stats = store.recovery();
  std::printf("recovered:\n");
  std::printf("  snapshot loaded:      %s (seq %llu)\n",
              stats.snapshot_loaded ? "yes" : "no",
              static_cast<unsigned long long>(stats.snapshot_seq));
  std::printf("  wal records replayed: %zu\n", stats.wal_records_replayed);
  std::printf("  torn tail salvaged:   %s (%llu bytes dropped)\n",
              stats.wal_torn_tail ? "yes" : "no",
              static_cast<unsigned long long>(stats.wal_bytes_dropped));
  auto series = store.SeriesRange({true, 1, "temperature"}, Interval::All());
  Check(series.status(), "read series");
  std::printf("  samples recovered:    %zu of 30 (the record the tear hit "
              "was truncated away; everything before it survived)\n",
              series->samples().size());

  // 6. The recovered store is immediately writable again.
  Check(store.AppendSample({true, 1, "temperature"},
                           1700000000000 + 30 * kHour, 19.0),
        "post-recovery write");
  std::printf("\npost-recovery append succeeded — back in business\n");
  std::system(("rm -rf " + std::string(tmpl)).c_str());
  return 0;
}
