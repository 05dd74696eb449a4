// SIMD kernel layer with runtime dispatch.
//
// The dense-float inner loops that dominate C2LSH's cost — the m p-stable
// projections per hashed vector and the L2/L1 verification of every
// candidate — all funnel through the kernel table below, as does the
// CRC-32C that every disk page miss verifies (crc32c.h). Per-ISA
// implementations live in isolated translation units compiled with the
// matching -m flags (simd_avx2.cc, simd_avx512.cc on x86-64; simd_neon.cc on
// aarch64; the scalar reference in simd.cc is always compiled, with no
// special flags), and the running process picks the best table its CPU
// supports exactly once, at first use.
//
// Contracts every implementation must honor:
//
//  * Alignment: kernels accept arbitrarily aligned pointers (every load is
//    an unaligned load). Callers that can provide kSimdAlignment-aligned
//    rows (FloatMatrix, PStableFamily's packed projection matrix) get the
//    fast cache-line-coalesced path for free; nobody is required to.
//  * Accumulation: all reductions accumulate in double, like the scalar
//    reference — results differ from scalar only by floating-point
//    reassociation (tested to tight tolerances in simd_test.cc).
//  * Row/vector exactness: dot_rows(rows, n, stride, d, v, out) must produce
//    out[r] bit-identical to dot(rows + r*stride, v, d) *of the same table*,
//    and dot itself must be exactly commutative in its two arguments. This
//    is what lets PStableFamily::BucketAll (packed matrix-vector pass) match
//    per-function PStableHash::Bucket exactly, bucket boundaries included.
//    The multi-query form extends the same contract one axis further:
//    dot_rows_multi(rows, n, stride, d, queries, nq, qstride, out) must
//    produce out[r * nq + q] bit-identical to
//    dot(rows + r*stride, queries + q*qstride, d) of the same table, for
//    every (row, query) pair — so a batched projection pass buckets every
//    query exactly as its own serial BucketAll would.
//  * Checksum exactness: crc32c is an integer kernel whose result is written
//    to disk, so every table returns exactly the scalar value — a file
//    written under one ISA opens under any other.
//
// Selection order: AVX-512 > AVX2 > NEON > scalar, overridable for testing
// with the environment variable C2LSH_SIMD=scalar|avx2|avx512|neon (an
// unavailable choice falls back to the best supported table) or in-process
// with ForceIsa(). Building with -DC2LSH_DISABLE_SIMD=ON compiles only the
// scalar table, so the fallback path can be exercised under any sanitizer.

#pragma once
#ifndef C2LSH_VECTOR_SIMD_H_
#define C2LSH_VECTOR_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace c2lsh {
namespace simd {

/// Instruction-set targets a kernel table can be built for.
enum class Isa {
  kScalar = 0,  ///< portable reference, always available
  kAvx2 = 1,    ///< x86-64 AVX2 + FMA
  kAvx512 = 2,  ///< x86-64 AVX-512F
  kNeon = 3,    ///< aarch64 Advanced SIMD
};

std::string_view IsaName(Isa isa);

/// Parses an ISA name ("scalar", "avx2", "avx512", "neon"); nullopt when the
/// name is unknown. Used for the C2LSH_SIMD environment override.
std::optional<Isa> IsaFromName(std::string_view name);

/// One ISA's kernel table. Every pointer is non-null in a published table.
struct Kernels {
  /// sum_i (a[i] - b[i])^2
  double (*squared_l2)(const float* a, const float* b, size_t d);
  /// sum_i |a[i] - b[i]|
  double (*l1)(const float* a, const float* b, size_t d);
  /// sum_i a[i] * b[i] — exactly commutative in (a, b).
  double (*dot)(const float* a, const float* b, size_t d);
  /// sum_i a[i]^2
  double (*squared_norm)(const float* a, size_t d);
  /// One fused pass filling *dot = a.b, *norm_a = a.a, *norm_b = b.b — the
  /// angular-distance kernel reads both arrays once instead of three times.
  void (*dot_and_norms)(const float* a, const float* b, size_t d, double* dot,
                        double* norm_a, double* norm_b);
  /// Blocked matrix-vector product: out[r] = dot(rows + r*stride, v, d) for
  /// r in [0, num_rows), bit-identical to this table's dot per row (see the
  /// exactness contract above). `stride >= d`, in floats; padding lanes are
  /// never read. The backbone of packed BucketAll (all m projections in one
  /// pass over the query) and of blocked multi-row build hashing.
  void (*dot_rows)(const float* rows, size_t num_rows, size_t stride, size_t d,
                   const float* v, double* out);
  /// Query-major blocked matrix-matrix product:
  /// out[r * num_queries + q] = dot(rows + r*stride, queries + q*qstride, d),
  /// bit-identical to this table's dot per (row, query) pair (see the
  /// exactness contract above). Each matrix row is streamed once per query
  /// block instead of once per query — the backbone of batched BucketAll
  /// (all m projections of a whole query batch in one pass over the packed
  /// projection matrix). `stride >= d` and `qstride >= d`, in floats;
  /// padding lanes are never read.
  void (*dot_rows_multi)(const float* rows, size_t num_rows, size_t stride,
                         size_t d, const float* queries, size_t num_queries,
                         size_t qstride, double* out);
  /// CRC-32C (Castagnoli) of data[0, n), continuing from `seed` (0, or the
  /// result over the preceding bytes of the same stream). The checksum of
  /// every persisted byte: page footers, WAL frames, the index file trailer
  /// (called through Crc32c in src/vector/crc32c.h).
  uint32_t (*crc32c)(const uint8_t* data, size_t n, uint32_t seed);
};

/// The table for a specific ISA, or nullptr when that ISA is not compiled in
/// or not supported by the host CPU. KernelsFor(Isa::kScalar) never fails.
const Kernels* KernelsFor(Isa isa);

/// Every ISA reachable on this host (always at least kScalar), best last.
std::vector<Isa> SupportedIsas();

/// The dispatch table in effect: resolved once at first use from CPU feature
/// detection and the C2LSH_SIMD environment override, until ForceIsa().
const Kernels& Active();
Isa ActiveIsa();

/// Re-points Active()/ActiveIsa() at `isa` (for tests and benchmarks that
/// sweep every reachable target). Returns false — leaving the active table
/// unchanged — when the ISA is unavailable on this host. Thread-safe, but
/// kernels already dispatched by concurrent callers finish on the old table.
bool ForceIsa(Isa isa);

namespace detail {
// Per-TU table accessors. Each returns nullptr when its TU was compiled
// without the matching target support. Only KernelsFor should call these.
const Kernels* GetScalarKernels();
const Kernels* GetAvx2Kernels();
const Kernels* GetAvx512Kernels();
const Kernels* GetNeonKernels();
// The byte-at-a-time table CRC-32C of the scalar table, for tables without
// a hardware CRC kernel of their own.
uint32_t ScalarCrc32c(const uint8_t* data, size_t n, uint32_t seed);
}  // namespace detail

}  // namespace simd
}  // namespace c2lsh

#endif  // C2LSH_VECTOR_SIMD_H_
