// AVX2 + FMA kernel table. This TU is the only place (besides the other
// per-ISA TUs) allowed to include ISA intrinsics headers, and it is compiled
// with -mavx2 -mfma by src/vector/CMakeLists.txt — never globally — so the
// rest of the binary stays runnable on non-AVX2 hosts; simd.cc gates entry
// behind __builtin_cpu_supports.
//
// All reductions widen floats to double lanes (4 per 256-bit register),
// matching the scalar table's accumulation precision. dot and dot_rows share
// DotBody so the per-row results of the blocked matrix-vector kernel are
// bit-identical to the plain dot kernel (the exactness contract in simd.h).

#include "src/vector/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace c2lsh {
namespace simd {
namespace detail {
namespace {

inline __m256d LoadPd(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

inline double HSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

// 8 floats per iteration into two independent accumulators; scalar tail.
// Keep the loop/finalization structure in lockstep with DotRows below.
inline double DotBody(const float* a, const float* b, size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc0 = _mm256_fmadd_pd(LoadPd(a + i), LoadPd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(LoadPd(a + i + 4), LoadPd(b + i + 4), acc1);
  }
  double tail = 0.0;
  for (; i < d; ++i) tail += static_cast<double>(a[i]) * b[i];
  return HSum(acc0) + HSum(acc1) + tail;
}

double Avx2SquaredL2(const float* a, const float* b, size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256d d0 = _mm256_sub_pd(LoadPd(a + i), LoadPd(b + i));
    const __m256d d1 = _mm256_sub_pd(LoadPd(a + i + 4), LoadPd(b + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double tail = 0.0;
  for (; i < d; ++i) {
    const double di = static_cast<double>(a[i]) - b[i];
    tail += di * di;
  }
  return HSum(acc0) + HSum(acc1) + tail;
}

double Avx2L1(const float* a, const float* b, size_t d) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256d d0 = _mm256_sub_pd(LoadPd(a + i), LoadPd(b + i));
    const __m256d d1 = _mm256_sub_pd(LoadPd(a + i + 4), LoadPd(b + i + 4));
    acc0 = _mm256_add_pd(acc0, _mm256_andnot_pd(sign_mask, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_andnot_pd(sign_mask, d1));
  }
  double tail = 0.0;
  for (; i < d; ++i) {
    tail += std::fabs(static_cast<double>(a[i]) - b[i]);
  }
  return HSum(acc0) + HSum(acc1) + tail;
}

double Avx2Dot(const float* a, const float* b, size_t d) { return DotBody(a, b, d); }

double Avx2SquaredNorm(const float* a, size_t d) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256d a0 = LoadPd(a + i);
    const __m256d a1 = LoadPd(a + i + 4);
    acc0 = _mm256_fmadd_pd(a0, a0, acc0);
    acc1 = _mm256_fmadd_pd(a1, a1, acc1);
  }
  double tail = 0.0;
  for (; i < d; ++i) {
    const double ai = a[i];
    tail += ai * ai;
  }
  return HSum(acc0) + HSum(acc1) + tail;
}

void Avx2DotAndNorms(const float* a, const float* b, size_t d, double* dot,
                     double* norm_a, double* norm_b) {
  __m256d accd = _mm256_setzero_pd();
  __m256d acca = _mm256_setzero_pd();
  __m256d accb = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d av = LoadPd(a + i);
    const __m256d bv = LoadPd(b + i);
    accd = _mm256_fmadd_pd(av, bv, accd);
    acca = _mm256_fmadd_pd(av, av, acca);
    accb = _mm256_fmadd_pd(bv, bv, accb);
  }
  double td = 0.0, ta = 0.0, tb = 0.0;
  for (; i < d; ++i) {
    const double ai = a[i];
    const double bi = b[i];
    td += ai * bi;
    ta += ai * ai;
    tb += bi * bi;
  }
  *dot = HSum(accd) + td;
  *norm_a = HSum(acca) + ta;
  *norm_b = HSum(accb) + tb;
}

void Avx2DotRows(const float* rows, size_t num_rows, size_t stride, size_t d,
                 const float* v, double* out) {
  size_t r = 0;
  // Four rows per pass share each load of v; every row keeps DotBody's exact
  // accumulator structure (two lanes + scalar tail, summed in the same
  // order), so out[r] is bit-identical to DotBody(row_r, v, d).
  for (; r + 4 <= num_rows; r += 4) {
    const float* r0 = rows + (r + 0) * stride;
    const float* r1 = rows + (r + 1) * stride;
    const float* r2 = rows + (r + 2) * stride;
    const float* r3 = rows + (r + 3) * stride;
    __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
    __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
    __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
    __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 8 <= d; i += 8) {
      const __m256d v0 = LoadPd(v + i);
      const __m256d v1 = LoadPd(v + i + 4);
      acc00 = _mm256_fmadd_pd(LoadPd(r0 + i), v0, acc00);
      acc01 = _mm256_fmadd_pd(LoadPd(r0 + i + 4), v1, acc01);
      acc10 = _mm256_fmadd_pd(LoadPd(r1 + i), v0, acc10);
      acc11 = _mm256_fmadd_pd(LoadPd(r1 + i + 4), v1, acc11);
      acc20 = _mm256_fmadd_pd(LoadPd(r2 + i), v0, acc20);
      acc21 = _mm256_fmadd_pd(LoadPd(r2 + i + 4), v1, acc21);
      acc30 = _mm256_fmadd_pd(LoadPd(r3 + i), v0, acc30);
      acc31 = _mm256_fmadd_pd(LoadPd(r3 + i + 4), v1, acc31);
    }
    double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
    for (; i < d; ++i) {
      const double vi = v[i];
      t0 += static_cast<double>(r0[i]) * vi;
      t1 += static_cast<double>(r1[i]) * vi;
      t2 += static_cast<double>(r2[i]) * vi;
      t3 += static_cast<double>(r3[i]) * vi;
    }
    out[r + 0] = HSum(acc00) + HSum(acc01) + t0;
    out[r + 1] = HSum(acc10) + HSum(acc11) + t1;
    out[r + 2] = HSum(acc20) + HSum(acc21) + t2;
    out[r + 3] = HSum(acc30) + HSum(acc31) + t3;
  }
  for (; r < num_rows; ++r) out[r] = DotBody(rows + r * stride, v, d);
}

void Avx2DotRowsMulti(const float* rows, size_t num_rows, size_t stride,
                      size_t d, const float* queries, size_t num_queries,
                      size_t qstride, double* out) {
  // Query-major blocking: four queries per pass share each load of the row,
  // so a row is streamed from memory once per 4-query block instead of once
  // per query. Every (row, query) pair keeps DotBody's exact accumulator
  // structure (two lanes + scalar tail, summed in the same order), so
  // out[r * num_queries + q] is bit-identical to DotBody(row_r, query_q, d).
  for (size_t r = 0; r < num_rows; ++r) {
    const float* row = rows + r * stride;
    double* out_row = out + r * num_queries;
    size_t q = 0;
    for (; q + 4 <= num_queries; q += 4) {
      const float* q0 = queries + (q + 0) * qstride;
      const float* q1 = queries + (q + 1) * qstride;
      const float* q2 = queries + (q + 2) * qstride;
      const float* q3 = queries + (q + 3) * qstride;
      __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
      __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
      __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
      __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
      size_t i = 0;
      for (; i + 8 <= d; i += 8) {
        const __m256d r0 = LoadPd(row + i);
        const __m256d r1 = LoadPd(row + i + 4);
        acc00 = _mm256_fmadd_pd(r0, LoadPd(q0 + i), acc00);
        acc01 = _mm256_fmadd_pd(r1, LoadPd(q0 + i + 4), acc01);
        acc10 = _mm256_fmadd_pd(r0, LoadPd(q1 + i), acc10);
        acc11 = _mm256_fmadd_pd(r1, LoadPd(q1 + i + 4), acc11);
        acc20 = _mm256_fmadd_pd(r0, LoadPd(q2 + i), acc20);
        acc21 = _mm256_fmadd_pd(r1, LoadPd(q2 + i + 4), acc21);
        acc30 = _mm256_fmadd_pd(r0, LoadPd(q3 + i), acc30);
        acc31 = _mm256_fmadd_pd(r1, LoadPd(q3 + i + 4), acc31);
      }
      double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
      for (; i < d; ++i) {
        const double ri = row[i];
        t0 += ri * q0[i];
        t1 += ri * q1[i];
        t2 += ri * q2[i];
        t3 += ri * q3[i];
      }
      out_row[q + 0] = HSum(acc00) + HSum(acc01) + t0;
      out_row[q + 1] = HSum(acc10) + HSum(acc11) + t1;
      out_row[q + 2] = HSum(acc20) + HSum(acc21) + t2;
      out_row[q + 3] = HSum(acc30) + HSum(acc31) + t3;
    }
    for (; q < num_queries; ++q) {
      out_row[q] = DotBody(row, queries + q * qstride, d);
    }
  }
}

// CRC-32C with the SSE4.2 crc32 instruction, which -mavx2 implies: 8 bytes
// per step, then byte steps for the tail. Exactly the scalar table's value
// (the checksum-exactness contract in simd.h).
uint32_t Avx2Crc32c(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  size_t i = 0;
#if defined(__x86_64__)
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    crc = static_cast<uint32_t>(_mm_crc32_u64(crc, word));
  }
#endif
  for (; i < n; ++i) crc = _mm_crc32_u8(crc, data[i]);
  return ~crc;
}

constexpr Kernels kAvx2Kernels = {
    Avx2SquaredL2,    Avx2L1,           Avx2Dot,
    Avx2SquaredNorm,  Avx2DotAndNorms,  Avx2DotRows,
    Avx2DotRowsMulti, Avx2Crc32c,
};

}  // namespace

const Kernels* GetAvx2Kernels() { return &kAvx2Kernels; }

}  // namespace detail
}  // namespace simd
}  // namespace c2lsh

#else  // the build system misconfigured this TU's flags — degrade, don't break

namespace c2lsh {
namespace simd {
namespace detail {
const Kernels* GetAvx2Kernels() { return nullptr; }
}  // namespace detail
}  // namespace simd
}  // namespace c2lsh

#endif
