// aarch64 Advanced SIMD (NEON) kernel table. NEON is architecturally
// mandatory on aarch64, so this TU needs no extra -m flags and no runtime
// feature check; src/vector/CMakeLists.txt simply includes it on aarch64
// builds and defines C2LSH_SIMD_HAVE_NEON.
//
// NEON has no 4-wide double registers, so each 4-float group widens into two
// float64x2 lanes; 8 floats per iteration land in four accumulators. Same
// contracts as the other tables (simd.h): double accumulation, unaligned
// loads, dot_rows bit-identical per row to dot via the shared DotBody.

#include "src/vector/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace c2lsh {
namespace simd {
namespace detail {
namespace {

struct Pd4 {  // four floats widened to two double lanes
  float64x2_t lo;
  float64x2_t hi;
};

inline Pd4 LoadPd(const float* p) {
  const float32x4_t q = vld1q_f32(p);
  return Pd4{vcvt_f64_f32(vget_low_f32(q)), vcvt_high_f64_f32(q)};
}

inline double HSum2(float64x2_t x, float64x2_t y) {
  return vaddvq_f64(vaddq_f64(x, y));
}

// 8 floats per iteration into four independent accumulators; scalar tail.
// Keep the loop/finalization structure in lockstep with DotRows below.
inline double DotBody(const float* a, const float* b, size_t d) {
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0), acc3 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const Pd4 a0 = LoadPd(a + i), b0 = LoadPd(b + i);
    const Pd4 a1 = LoadPd(a + i + 4), b1 = LoadPd(b + i + 4);
    acc0 = vfmaq_f64(acc0, a0.lo, b0.lo);
    acc1 = vfmaq_f64(acc1, a0.hi, b0.hi);
    acc2 = vfmaq_f64(acc2, a1.lo, b1.lo);
    acc3 = vfmaq_f64(acc3, a1.hi, b1.hi);
  }
  double tail = 0.0;
  for (; i < d; ++i) tail += static_cast<double>(a[i]) * b[i];
  return HSum2(acc0, acc1) + HSum2(acc2, acc3) + tail;
}

double NeonSquaredL2(const float* a, const float* b, size_t d) {
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0), acc3 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const Pd4 a0 = LoadPd(a + i), b0 = LoadPd(b + i);
    const Pd4 a1 = LoadPd(a + i + 4), b1 = LoadPd(b + i + 4);
    const float64x2_t d0 = vsubq_f64(a0.lo, b0.lo);
    const float64x2_t d1 = vsubq_f64(a0.hi, b0.hi);
    const float64x2_t d2 = vsubq_f64(a1.lo, b1.lo);
    const float64x2_t d3 = vsubq_f64(a1.hi, b1.hi);
    acc0 = vfmaq_f64(acc0, d0, d0);
    acc1 = vfmaq_f64(acc1, d1, d1);
    acc2 = vfmaq_f64(acc2, d2, d2);
    acc3 = vfmaq_f64(acc3, d3, d3);
  }
  double tail = 0.0;
  for (; i < d; ++i) {
    const double di = static_cast<double>(a[i]) - b[i];
    tail += di * di;
  }
  return HSum2(acc0, acc1) + HSum2(acc2, acc3) + tail;
}

double NeonL1(const float* a, const float* b, size_t d) {
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0), acc3 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const Pd4 a0 = LoadPd(a + i), b0 = LoadPd(b + i);
    const Pd4 a1 = LoadPd(a + i + 4), b1 = LoadPd(b + i + 4);
    acc0 = vaddq_f64(acc0, vabsq_f64(vsubq_f64(a0.lo, b0.lo)));
    acc1 = vaddq_f64(acc1, vabsq_f64(vsubq_f64(a0.hi, b0.hi)));
    acc2 = vaddq_f64(acc2, vabsq_f64(vsubq_f64(a1.lo, b1.lo)));
    acc3 = vaddq_f64(acc3, vabsq_f64(vsubq_f64(a1.hi, b1.hi)));
  }
  double tail = 0.0;
  for (; i < d; ++i) {
    tail += std::fabs(static_cast<double>(a[i]) - b[i]);
  }
  return HSum2(acc0, acc1) + HSum2(acc2, acc3) + tail;
}

double NeonDot(const float* a, const float* b, size_t d) { return DotBody(a, b, d); }

double NeonSquaredNorm(const float* a, size_t d) {
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0), acc3 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const Pd4 a0 = LoadPd(a + i);
    const Pd4 a1 = LoadPd(a + i + 4);
    acc0 = vfmaq_f64(acc0, a0.lo, a0.lo);
    acc1 = vfmaq_f64(acc1, a0.hi, a0.hi);
    acc2 = vfmaq_f64(acc2, a1.lo, a1.lo);
    acc3 = vfmaq_f64(acc3, a1.hi, a1.hi);
  }
  double tail = 0.0;
  for (; i < d; ++i) {
    const double ai = a[i];
    tail += ai * ai;
  }
  return HSum2(acc0, acc1) + HSum2(acc2, acc3) + tail;
}

void NeonDotAndNorms(const float* a, const float* b, size_t d, double* dot,
                     double* norm_a, double* norm_b) {
  float64x2_t accd0 = vdupq_n_f64(0.0), accd1 = vdupq_n_f64(0.0);
  float64x2_t acca0 = vdupq_n_f64(0.0), acca1 = vdupq_n_f64(0.0);
  float64x2_t accb0 = vdupq_n_f64(0.0), accb1 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const Pd4 av = LoadPd(a + i);
    const Pd4 bv = LoadPd(b + i);
    accd0 = vfmaq_f64(accd0, av.lo, bv.lo);
    accd1 = vfmaq_f64(accd1, av.hi, bv.hi);
    acca0 = vfmaq_f64(acca0, av.lo, av.lo);
    acca1 = vfmaq_f64(acca1, av.hi, av.hi);
    accb0 = vfmaq_f64(accb0, bv.lo, bv.lo);
    accb1 = vfmaq_f64(accb1, bv.hi, bv.hi);
  }
  double td = 0.0, ta = 0.0, tb = 0.0;
  for (; i < d; ++i) {
    const double ai = a[i];
    const double bi = b[i];
    td += ai * bi;
    ta += ai * ai;
    tb += bi * bi;
  }
  *dot = HSum2(accd0, accd1) + td;
  *norm_a = HSum2(acca0, acca1) + ta;
  *norm_b = HSum2(accb0, accb1) + tb;
}

void NeonDotRows(const float* rows, size_t num_rows, size_t stride, size_t d,
                 const float* v, double* out) {
  size_t r = 0;
  // Two rows per pass share each load of v (NEON's 32 q-registers hold two
  // rows' four-accumulator sets comfortably); every row keeps DotBody's
  // exact accumulator structure, so out[r] == DotBody(row_r, v, d) bitwise.
  for (; r + 2 <= num_rows; r += 2) {
    const float* r0 = rows + (r + 0) * stride;
    const float* r1 = rows + (r + 1) * stride;
    float64x2_t a00 = vdupq_n_f64(0.0), a01 = vdupq_n_f64(0.0);
    float64x2_t a02 = vdupq_n_f64(0.0), a03 = vdupq_n_f64(0.0);
    float64x2_t a10 = vdupq_n_f64(0.0), a11 = vdupq_n_f64(0.0);
    float64x2_t a12 = vdupq_n_f64(0.0), a13 = vdupq_n_f64(0.0);
    size_t i = 0;
    for (; i + 8 <= d; i += 8) {
      const Pd4 v0 = LoadPd(v + i);
      const Pd4 v1 = LoadPd(v + i + 4);
      const Pd4 x0 = LoadPd(r0 + i), x1 = LoadPd(r0 + i + 4);
      const Pd4 y0 = LoadPd(r1 + i), y1 = LoadPd(r1 + i + 4);
      a00 = vfmaq_f64(a00, x0.lo, v0.lo);
      a01 = vfmaq_f64(a01, x0.hi, v0.hi);
      a02 = vfmaq_f64(a02, x1.lo, v1.lo);
      a03 = vfmaq_f64(a03, x1.hi, v1.hi);
      a10 = vfmaq_f64(a10, y0.lo, v0.lo);
      a11 = vfmaq_f64(a11, y0.hi, v0.hi);
      a12 = vfmaq_f64(a12, y1.lo, v1.lo);
      a13 = vfmaq_f64(a13, y1.hi, v1.hi);
    }
    double t0 = 0.0, t1 = 0.0;
    for (; i < d; ++i) {
      const double vi = v[i];
      t0 += static_cast<double>(r0[i]) * vi;
      t1 += static_cast<double>(r1[i]) * vi;
    }
    out[r + 0] = HSum2(a00, a01) + HSum2(a02, a03) + t0;
    out[r + 1] = HSum2(a10, a11) + HSum2(a12, a13) + t1;
  }
  for (; r < num_rows; ++r) out[r] = DotBody(rows + r * stride, v, d);
}

void NeonDotRowsMulti(const float* rows, size_t num_rows, size_t stride,
                      size_t d, const float* queries, size_t num_queries,
                      size_t qstride, double* out) {
  // Query-major blocking: two queries per pass share each load of the row
  // (NEON's 32 q-registers hold two queries' four-accumulator sets plus the
  // shared row lanes comfortably); every (row, query) pair keeps DotBody's
  // exact accumulator structure, so out[r * num_queries + q] ==
  // DotBody(row_r, query_q, d) bitwise.
  for (size_t r = 0; r < num_rows; ++r) {
    const float* row = rows + r * stride;
    double* out_row = out + r * num_queries;
    size_t q = 0;
    for (; q + 2 <= num_queries; q += 2) {
      const float* q0 = queries + (q + 0) * qstride;
      const float* q1 = queries + (q + 1) * qstride;
      float64x2_t a00 = vdupq_n_f64(0.0), a01 = vdupq_n_f64(0.0);
      float64x2_t a02 = vdupq_n_f64(0.0), a03 = vdupq_n_f64(0.0);
      float64x2_t a10 = vdupq_n_f64(0.0), a11 = vdupq_n_f64(0.0);
      float64x2_t a12 = vdupq_n_f64(0.0), a13 = vdupq_n_f64(0.0);
      size_t i = 0;
      for (; i + 8 <= d; i += 8) {
        const Pd4 r0 = LoadPd(row + i), r1 = LoadPd(row + i + 4);
        const Pd4 x0 = LoadPd(q0 + i), x1 = LoadPd(q0 + i + 4);
        const Pd4 y0 = LoadPd(q1 + i), y1 = LoadPd(q1 + i + 4);
        a00 = vfmaq_f64(a00, r0.lo, x0.lo);
        a01 = vfmaq_f64(a01, r0.hi, x0.hi);
        a02 = vfmaq_f64(a02, r1.lo, x1.lo);
        a03 = vfmaq_f64(a03, r1.hi, x1.hi);
        a10 = vfmaq_f64(a10, r0.lo, y0.lo);
        a11 = vfmaq_f64(a11, r0.hi, y0.hi);
        a12 = vfmaq_f64(a12, r1.lo, y1.lo);
        a13 = vfmaq_f64(a13, r1.hi, y1.hi);
      }
      double t0 = 0.0, t1 = 0.0;
      for (; i < d; ++i) {
        const double ri = row[i];
        t0 += ri * q0[i];
        t1 += ri * q1[i];
      }
      out_row[q + 0] = HSum2(a00, a01) + HSum2(a02, a03) + t0;
      out_row[q + 1] = HSum2(a10, a11) + HSum2(a12, a13) + t1;
    }
    for (; q < num_queries; ++q) {
      out_row[q] = DotBody(row, queries + q * qstride, d);
    }
  }
}

constexpr Kernels kNeonKernels = {
    NeonSquaredL2,   NeonL1,          NeonDot,
    NeonSquaredNorm, NeonDotAndNorms, NeonDotRows,
    // ARMv8 __crc32cd needs an HWCAP_CRC32 runtime check first (the CRC
    // extension is optional before ARMv8.1); until then, the scalar loop.
    NeonDotRowsMulti, ScalarCrc32c,
};

}  // namespace

const Kernels* GetNeonKernels() { return &kNeonKernels; }

}  // namespace detail
}  // namespace simd
}  // namespace c2lsh

#else  // not an aarch64 build — degrade, don't break

namespace c2lsh {
namespace simd {
namespace detail {
const Kernels* GetNeonKernels() { return nullptr; }
}  // namespace detail
}  // namespace simd
}  // namespace c2lsh

#endif
