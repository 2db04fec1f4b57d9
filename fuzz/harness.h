#ifndef HYGRAPH_FUZZ_HARNESS_H_
#define HYGRAPH_FUZZ_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace hygraph::fuzz {

/// The untrusted-byte frontiers of the system, one harness each.
/// Every function must be total over arbitrary bytes: it either accepts the
/// input or rejects it through the Status channel — any crash, hang,
/// sanitizer report, or failed HYGRAPH_FUZZ_CHECK is a bug.
///
/// The same functions back both the libFuzzer targets (fuzz_wal_reader,
/// fuzz_serialize_load, fuzz_hgql_parse, fuzz_chunk_codec, fuzz_wire_frame; built under
/// -DHYGRAPH_FUZZ=ON) and
/// the deterministic corpus replay in tests/fuzz_corpus_test.cc, so the
/// harnesses cannot rot independently of the test suite.

/// storage::ReadWal + TruncateWalToValidPrefix over an in-memory file.
void FuzzWalReader(const uint8_t* data, size_t size);

/// core::Deserialize, plus a Serialize/Deserialize fixed-point check on
/// accepted inputs.
void FuzzSerializeLoad(const uint8_t* data, size_t size);

/// query::Tokenize / Parse / ParseExpression.
void FuzzHgqlParse(const uint8_t* data, size_t size);

/// ts::DecodeChunkWide against the scalar ts::DecodeChunk / ChunkDecoder
/// over the sealed-chunk codec bytes (same verdict, bit-identical
/// samples), plus an encode/decode fixed-point check on accepted inputs.
void FuzzChunkCodec(const uint8_t* data, size_t size);

/// server::DecodeFrame / DecodeRequest / DecodeResponse over the HGQL wire
/// protocol, plus a decode/encode fixed-point check on accepted frames.
void FuzzWireFrame(const uint8_t* data, size_t size);

/// storage::ParseColdCatalog over untrusted catalog bytes, then
/// SegmentStore::LoadCatalog + Pin + FuzzChunkCodec with the same bytes
/// planted as segment files — the full cold-chunk adoption frontier.
void FuzzSegmentLoad(const uint8_t* data, size_t size);

}  // namespace hygraph::fuzz

/// Invariant check that stays fatal in release builds (fuzzers run
/// optimized; a plain assert would compile away under NDEBUG).
#define HYGRAPH_FUZZ_CHECK(cond)                                     \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "fuzz invariant failed: %s at %s:%d\n",   \
                   #cond, __FILE__, __LINE__);                       \
      std::abort();                                                  \
    }                                                                \
  } while (false)

#endif  // HYGRAPH_FUZZ_HARNESS_H_
