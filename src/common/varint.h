#ifndef HYGRAPH_COMMON_VARINT_H_
#define HYGRAPH_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hygraph {

/// Appends `v` as a LEB128 varint (7 bits per byte, low group first).
inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Parses a LEB128 varint from bytes[*pos, end); false on truncation or a
// value that does not fit in 64 bits.
inline bool ParseVarint(std::string_view bytes, size_t* pos, size_t end,
                        uint64_t* out) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= end) return false;
    const uint8_t byte = static_cast<uint8_t>(bytes[(*pos)++]);
    if (shift == 63 && (byte & 0x7f) > 1) return false;  // 65th+ bit set
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
  }
  return false;  // 10 continuation bytes without a terminator
}

// Zigzag maps the wrap-around difference (held in a uint64) to a small
// varint when the signed magnitude is small.
inline uint64_t ZigZag(uint64_t x) {
  const int64_t n = static_cast<int64_t>(x);
  return (static_cast<uint64_t>(n) << 1) ^ static_cast<uint64_t>(n >> 63);
}

inline uint64_t UnZigZag(uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

}  // namespace hygraph

#endif  // HYGRAPH_COMMON_VARINT_H_
