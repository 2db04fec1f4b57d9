#include <memory>
#include <string>

#include "fuzz/harness.h"
#include "fuzz/mem_env.h"
#include "storage/segment/segment_store.h"

namespace hygraph::fuzz {

/// Feeds arbitrary bytes to the cold-tier load path, the frontier a
/// recovering process crosses when it adopts spilled chunks from disk.
///
/// Three layers, each total over hostile input:
///   1. ParseColdCatalog — accept or kCorruption, never a crash or an
///      unbounded allocation, and accepted catalogs reach an
///      encode/parse fixed point bit-exactly (doubles travel as u64 hex).
///   2. SegmentStore::LoadCatalog — the same bytes behind a MemEnv file;
///      registration must mirror the standalone parse verdict.
///   3. Pin + decode over segment files that hold the SAME hostile
///      bytes — a catalog entry pointing into garbage must surface as a
///      clean error (CRC/short-read) or decode totally, never crash. A
///      pinned payload goes through FuzzChunkCodec: the wide decoder every
///      read runs and the scalar one must reach the same verdict and
///      samples.
void FuzzSegmentLoad(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  // Layer 1: the standalone catalog codec.
  auto parsed = storage::ParseColdCatalog(bytes);
  if (parsed.ok()) {
    // One catalog line per entry at minimum — a hostile header can never
    // fabricate more entries than the input could have spelled out.
    HYGRAPH_FUZZ_CHECK(parsed->size() <= size);
    const std::string encoded = storage::EncodeColdCatalog(*parsed);
    auto reparsed = storage::ParseColdCatalog(encoded);
    HYGRAPH_FUZZ_CHECK(reparsed.ok());
    HYGRAPH_FUZZ_CHECK(storage::EncodeColdCatalog(*reparsed) == encoded);
  } else {
    HYGRAPH_FUZZ_CHECK(parsed.status().code() == StatusCode::kCorruption);
  }

  // Layers 2 + 3: the same bytes as an on-disk catalog, with every
  // segment file it references also holding the raw fuzzer input.
  MemEnv env;
  env.SetFile("cold/catalog-1.cold", bytes);
  if (parsed.ok()) {
    for (const storage::ColdCatalogEntry& e : *parsed) {
      env.SetFile("cold/" + e.file, bytes);
    }
  }

  storage::SegmentStoreOptions options;
  options.env = &env;
  options.dir = "cold";
  options.cache_budget_bytes = 1u << 16;
  auto store = storage::SegmentStore::Open(options);
  HYGRAPH_FUZZ_CHECK(store.ok());

  auto loaded = (*store)->LoadCatalog(1);
  HYGRAPH_FUZZ_CHECK(loaded.ok() == parsed.ok());
  if (!loaded.ok()) return;

  // Pin every adopted record (bounded: entry count is bounded by the
  // input size via the check above). The frame check must reject any
  // offset/length aimed at bytes that are not a CRC-intact record, and a
  // payload that does survive the CRC must decode totally.
  for (const storage::ColdCatalogEntry& e : *loaded) {
    auto pinned = (*store)->Pin(e.id);
    if (!pinned.ok()) {
      HYGRAPH_FUZZ_CHECK(pinned.status().code() == StatusCode::kCorruption);
      continue;
    }
    HYGRAPH_FUZZ_CHECK((*pinned)->size() == e.length);
    FuzzChunkCodec(reinterpret_cast<const uint8_t*>((*pinned)->data()),
                   (*pinned)->size());
  }
}

}  // namespace hygraph::fuzz
