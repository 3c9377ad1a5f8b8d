// CRC32C (Castagnoli) checksums for the on-disk formats.
//
// Every durable artifact (dendrogram / HIMOR files, epoch snapshot
// sections) carries a CRC32C so that corruption — bit rot, torn writes,
// truncation — is detected at load time instead of materializing as a
// silently-wrong structure. The Castagnoli polynomial is the storage-stack
// standard (iSCSI, ext4, LevelDB/RocksDB) because it catches all 1- and
// 2-bit errors and all burst errors up to 32 bits.
//
// Checksumming is not negligible on the restart path: slicing-by-8 runs at
// about 1 byte/cycle and spent 4.0-4.4 ms of an 18.4-19.1 ms dblp-sim
// snapshot decode (every section and the header are verified). So
// Crc32cExtend picks at run time: the SSE4.2 crc32 instruction on x86-64
// CPUs that have it, the portable slicing-by-8 code everywhere else. Both
// compute the same function; the portable one stays callable as the
// reference.

#ifndef COD_COMMON_CRC32C_H_
#define COD_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cod {

// Extends a running CRC with `n` more bytes. Start a fresh computation with
// `crc == 0`; the returned value is final (pre/post-inversion handled
// internally), so chunked and one-shot computations agree:
//   Crc32c(ab) == Crc32cExtend(Crc32c(a), b).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

inline uint32_t Crc32c(std::string_view bytes) {
  return Crc32cExtend(0, bytes.data(), bytes.size());
}

// The two implementations behind Crc32cExtend, same contract. The hardware
// one may be called only when Crc32cHardwareAvailable() is true.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);
uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t n);
bool Crc32cHardwareAvailable();

}  // namespace cod

#endif  // COD_COMMON_CRC32C_H_
