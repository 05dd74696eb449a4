// CRC-32C (Castagnoli): the checksum guarding every persisted byte.
//
// One function shared by the storage stack (per-page footers in PageFile,
// record frames in the WAL) and the index serializer (whole-file trailer in
// serialize.cc), so a bit flip anywhere on disk is detected by the same,
// well-tested code path. The work is the `crc32c` entry of the SIMD kernel
// table (simd.h): the SSE4.2 crc32 instruction on the x86-64 tables, the
// byte-at-a-time table loop on the scalar one. Every table returns the same
// value, so on-disk bytes do not depend on the ISA that wrote them.

#pragma once
#ifndef C2LSH_VECTOR_CRC32C_H_
#define C2LSH_VECTOR_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "src/vector/simd.h"

namespace c2lsh {

/// CRC-32C of `data[0, n)`. Pass a previous result as `seed` to checksum a
/// logical stream in chunks: Crc32c(b, nb, Crc32c(a, na)) == Crc32c(a+b).
inline uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0) {
  return simd::Active().crc32c(static_cast<const uint8_t*>(data), n, seed);
}

/// Mixes a checksum so that a stored CRC of zero-filled data is never the
/// all-zeros bit pattern (a freshly truncated or torn region would otherwise
/// masquerade as a valid zero page). Unmask inverts Mask; use Mask to store
/// and Unmask to load.
inline uint32_t Crc32cMask(uint32_t crc) {
  // Rotate right by 15 bits and add a constant, per the RocksDB/LevelDB
  // masked-CRC convention.
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8U;
}
inline uint32_t Crc32cUnmask(uint32_t masked) {
  const uint32_t rot = masked - 0xA282EAD8U;
  return (rot << 15) | (rot >> 17);
}

}  // namespace c2lsh

#endif  // C2LSH_VECTOR_CRC32C_H_
