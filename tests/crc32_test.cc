#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.h"

namespace hygraph {
namespace {

// The byte-at-a-time reference, one polynomial step per bit: the textbook
// form of the reflected IEEE CRC-32, sharing no table with the code under
// test. Crc32Update must agree with it on every input, or WAL, snapshot,
// catalog, segment and wire frames written before would stop verifying.
uint32_t ReferenceUpdate(uint32_t state, const unsigned char* bytes,
                         size_t size) {
  for (size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return state;
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBounded(256));
  return out;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  Rng rng(0xC3C32u);
  // Eight spare bytes in front so every start offset 0-7 is reachable:
  // the sliced loop must not depend on the buffer's alignment.
  const std::string buffer = RandomBytes(rng, 1024 + 8);
  const auto* base = reinterpret_cast<const unsigned char*>(buffer.data());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint32_t want = ReferenceUpdate(kCrc32Init, base + offset, len);
      ASSERT_EQ(Crc32Update(kCrc32Init, base + offset, len), want)
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, SplitUpdatesEqualTheOneShotValue) {
  Rng rng(17);
  const std::string data = RandomBytes(rng, 300);
  const uint32_t one_shot = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t state = Crc32Update(kCrc32Init, data.data(), split);
    state = Crc32Update(state, data.data() + split, data.size() - split);
    ASSERT_EQ(Crc32Finalize(state), one_shot) << "split at " << split;
  }
}

}  // namespace
}  // namespace hygraph
