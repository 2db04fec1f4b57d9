#include <bit>
#include <string>
#include <vector>

#include "fuzz/harness.h"
#include "ts/chunk_codec.h"

namespace hygraph::fuzz {

namespace {

bool BitExactEqual(const std::vector<ts::Sample>& a,
                   const std::vector<ts::Sample>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t) return false;
    if (std::bit_cast<uint64_t>(a[i].value) !=
        std::bit_cast<uint64_t>(b[i].value)) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// Feeds arbitrary bytes to the sealed-chunk decoders. Their contract:
/// total over any input (accept or kCorruption, never a crash or sanitizer
/// report), output bounded by the input size, and every decoder agrees on
/// every input. The wide decoder (DecodeChunkWide) is the one every
/// hypertable read runs; the streaming scalar decoder is its oracle — both
/// must accept and reject the same inputs and produce bit-identical
/// samples. Accepted inputs also reach an encode/decode fixed point
/// bit-exactly. (Re-encoding an accepted input need not reproduce the
/// original bytes — the decoder tolerates token choices the encoder never
/// emits, e.g. an explicit window for a zero XOR — but the *samples* must
/// be stable from the first decode onward.)
void FuzzChunkCodec(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  auto decoded = ts::DecodeChunk(bytes);
  std::vector<ts::Sample> wide;
  const Status wide_status = ts::DecodeChunkWide(bytes, &wide);
  HYGRAPH_FUZZ_CHECK(wide_status.ok() == decoded.ok());
  if (!decoded.ok()) {
    HYGRAPH_FUZZ_CHECK(decoded.status().code() == StatusCode::kCorruption);
    HYGRAPH_FUZZ_CHECK(wide_status.code() == StatusCode::kCorruption);
    HYGRAPH_FUZZ_CHECK(wide.empty());
    return;
  }
  HYGRAPH_FUZZ_CHECK(BitExactEqual(wide, *decoded));
  // A hostile header can never make the decoder produce more samples than
  // the input could have framed (one timestamp byte per sample minimum).
  HYGRAPH_FUZZ_CHECK(decoded->size() <= size);

  // The streaming decoder must agree with the one-shot decode.
  ts::ChunkDecoder streaming(bytes);
  HYGRAPH_FUZZ_CHECK(streaming.count() == decoded->size());
  ts::Sample s;
  size_t i = 0;
  while (streaming.Next(&s)) {
    HYGRAPH_FUZZ_CHECK(i < decoded->size());
    HYGRAPH_FUZZ_CHECK(s.t == (*decoded)[i].t);
    HYGRAPH_FUZZ_CHECK(std::bit_cast<uint64_t>(s.value) ==
                       std::bit_cast<uint64_t>((*decoded)[i].value));
    ++i;
  }
  HYGRAPH_FUZZ_CHECK(streaming.status().ok());
  HYGRAPH_FUZZ_CHECK(streaming.done());
  HYGRAPH_FUZZ_CHECK(i == decoded->size());

  // Fixed point: re-encoding the accepted samples and decoding again must
  // reproduce them bit-exactly, through both decoders.
  const std::string reencoded = ts::EncodeChunk(*decoded);
  auto redecoded = ts::DecodeChunk(reencoded);
  HYGRAPH_FUZZ_CHECK(redecoded.ok());
  HYGRAPH_FUZZ_CHECK(BitExactEqual(*decoded, *redecoded));
  HYGRAPH_FUZZ_CHECK(ts::DecodeChunkWide(reencoded, &wide).ok());
  HYGRAPH_FUZZ_CHECK(BitExactEqual(*decoded, wide));
}

}  // namespace hygraph::fuzz
