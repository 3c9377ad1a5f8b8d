#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define COD_CRC32C_X86 1
#endif

namespace cod {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

struct Tables {
  // tables[k][b]: CRC of byte b followed by k zero bytes; slicing-by-8
  // folds 8 input bytes per iteration through these.
  std::array<std::array<uint32_t, 256>, 8> t;

  Tables() {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][b] = crc;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
      }
    }
  }
};

const Tables& CrcTables() {
  static const Tables tables;
  return tables;
}

#ifdef COD_CRC32C_X86
// The crc32 instruction computes the same reflected Castagnoli CRC, 8 bytes
// per instruction. Unaligned loads go through memcpy.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn ChooseExtend() {
  return Crc32cHardwareAvailable() ? Crc32cExtendHardware
                                   : Crc32cExtendPortable;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const Tables& tab = CrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  while (n >= 8) {
    // Little-endian load of the next 8 bytes, folded in one step. The
    // byte-wise assembly keeps this alignment- and endianness-safe (the
    // repo asserts little-endian anyway, but cheap is cheap).
    const uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                             static_cast<uint32_t>(p[1]) << 8 |
                             static_cast<uint32_t>(p[2]) << 16 |
                             static_cast<uint32_t>(p[3]) << 24);
    c = tab.t[7][lo & 0xFF] ^ tab.t[6][(lo >> 8) & 0xFF] ^
        tab.t[5][(lo >> 16) & 0xFF] ^ tab.t[4][lo >> 24] ^
        tab.t[3][p[4]] ^ tab.t[2][p[5]] ^ tab.t[1][p[6]] ^ tab.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = (c >> 8) ^ tab.t[0][(c ^ *p++) & 0xFF];
  }
  return ~c;
}

bool Crc32cHardwareAvailable() {
#ifdef COD_CRC32C_X86
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
#else
  return false;
#endif
}

uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t n) {
#ifdef COD_CRC32C_X86
  return ExtendSse42(crc, data, n);
#else
  return Crc32cExtendPortable(crc, data, n);
#endif
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(crc, data, n);
}

}  // namespace cod
