#include "common/crc32.h"

namespace hygraph {

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320, built
// once at first use. entries[0] is the classic byte-at-a-time table;
// entries[k][b] is the CRC of byte b followed by k zero bytes, so one step
// folds eight input bytes with eight independent lookups. Cold-tier misses
// check a frame of a few hundred bytes each, where the one-lookup-per-byte
// loop cost about as much as the pread.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xffu];
      }
    }
  }
};

// Little-endian word from four bytes: no unaligned or endian-dependent
// load (compilers fuse this into one load where that is safe).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t state, const void* data, size_t size) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = state ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
            t[0][hi >> 24];
  }
  for (size_t i = 0; i < size; ++i) {
    state = (state >> 8) ^ t[0][(state ^ bytes[i]) & 0xffu];
  }
  return state;
}

}  // namespace hygraph
