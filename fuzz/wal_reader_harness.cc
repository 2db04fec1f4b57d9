#include <memory>
#include <string>

#include "fuzz/harness.h"
#include "fuzz/mem_env.h"
#include "storage/durable.h"
#include "storage/polyglot.h"
#include "storage/wal.h"

namespace hygraph::fuzz {

namespace {

/// What one recovery of a store made of the log.
struct Replay {
  size_t replayed = 0;
  size_t failures = 0;
  Result<std::string> snapshot = std::string();
};

/// Opens a DurableStore(PolyglotStore) over `dir` in `env`; false when Open
/// refused the directory.
bool OpenAndReplay(MemEnv* env, const std::string& dir, Replay* out) {
  storage::DurableStore store(env, dir,
                              std::make_unique<storage::PolyglotStore>());
  if (!store.Open().ok()) return false;
  out->replayed = store.recovery().wal_records_replayed;
  out->failures = store.recovery().wal_replay_failures;
  // Replay refuses series references, as the logged mutators do.
  const graph::PropertyGraph& topology = store.topology();
  for (graph::VertexId v : topology.VertexIds()) {
    for (const auto& [key, value] : (*topology.GetVertex(v))->properties) {
      HYGRAPH_FUZZ_CHECK(!value.is_series_ref());
    }
  }
  for (graph::EdgeId e : topology.EdgeIds()) {
    for (const auto& [key, value] : (*topology.GetEdge(e))->properties) {
      HYGRAPH_FUZZ_CHECK(!value.is_series_ref());
    }
  }
  out->snapshot = storage::BuildSnapshotText(store);
  return true;
}

}  // namespace

/// Feeds arbitrary bytes to the WAL reader as a log file. The reader's
/// contract: it never errors on corruption (only on real I/O failures,
/// which MemEnv cannot produce), it partitions the file into a valid
/// prefix plus a dropped tail, and truncating to the valid prefix yields a
/// log that re-reads cleanly with the same records.
///
/// The same bytes then serve as a store's wal.log: Open() parses and
/// replays every record through the snapshot format's field codec and
/// either recovers or refuses through the Status channel. A store opened
/// over the log that recovery rewrote must replay it to the same counts and
/// the same state (compared as snapshot text, which needs dense ids).
void FuzzWalReader(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  MemEnv env;
  const std::string path = "fuzz.wal";
  env.SetFile(path, bytes);

  auto scan = storage::ReadWal(&env, path);
  HYGRAPH_FUZZ_CHECK(scan.ok());
  HYGRAPH_FUZZ_CHECK(scan->valid_bytes + scan->dropped_bytes == size);
  HYGRAPH_FUZZ_CHECK(scan->torn_tail == (scan->dropped_bytes > 0));

  // The valid prefix must be exactly the bytes of the intact records.
  uint64_t framed = 0;
  for (const std::string& record : scan->records) {
    framed += storage::EncodeWalFrame(record).size();
  }
  HYGRAPH_FUZZ_CHECK(framed == scan->valid_bytes);

  // Tail repair + re-read is the recovery path: it must converge in one
  // step to a clean log holding the same records.
  HYGRAPH_FUZZ_CHECK(
      storage::TruncateWalToValidPrefix(&env, path, *scan).ok());
  auto rescan = storage::ReadWal(&env, path);
  HYGRAPH_FUZZ_CHECK(rescan.ok());
  HYGRAPH_FUZZ_CHECK(!rescan->torn_tail);
  HYGRAPH_FUZZ_CHECK(rescan->records == scan->records);

  MemEnv store_env;
  store_env.SetFile("db/wal.log", bytes);
  Replay first;
  if (!OpenAndReplay(&store_env, "db", &first)) return;
  Replay second;
  HYGRAPH_FUZZ_CHECK(OpenAndReplay(&store_env, "db", &second));
  HYGRAPH_FUZZ_CHECK(second.replayed == first.replayed);
  HYGRAPH_FUZZ_CHECK(second.failures == first.failures);
  HYGRAPH_FUZZ_CHECK(second.snapshot.status().code() ==
                     first.snapshot.status().code());
  if (first.snapshot.ok()) {
    HYGRAPH_FUZZ_CHECK(*second.snapshot == *first.snapshot);
  }
}

}  // namespace hygraph::fuzz
