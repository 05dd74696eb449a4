// Scalar reference kernels and the runtime dispatcher. This TU is compiled
// with the project's plain flags (no -m options), so the scalar table runs
// on any host and under any sanitizer; the per-ISA TUs are added by
// src/vector/CMakeLists.txt only when the toolchain can target them, and
// C2LSH_SIMD_HAVE_* tells this file which accessors are linked in.

#include "src/vector/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>

#include "src/obs/build_info.h"
#include "src/obs/registry.h"

namespace c2lsh {
namespace simd {

namespace detail {
namespace {

// The scalar kernels keep the historical distance.cc loop shapes: modest
// unrolling that stays auto-vectorizable under -O2 while splitting the
// double-accumulator dependency chains.

double ScalarSquaredL2(const float* a, const float* b, size_t d) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const double d0 = static_cast<double>(a[i]) - b[i];
    const double d1 = static_cast<double>(a[i + 1]) - b[i + 1];
    const double d2 = static_cast<double>(a[i + 2]) - b[i + 2];
    const double d3 = static_cast<double>(a[i + 3]) - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < d; ++i) {
    const double di = static_cast<double>(a[i]) - b[i];
    s0 += di * di;
  }
  return s0 + s1 + s2 + s3;
}

double ScalarL1(const float* a, const float* b, size_t d) {
  double s0 = 0.0, s1 = 0.0;
  size_t i = 0;
  for (; i + 2 <= d; i += 2) {
    s0 += std::fabs(static_cast<double>(a[i]) - b[i]);
    s1 += std::fabs(static_cast<double>(a[i + 1]) - b[i + 1]);
  }
  for (; i < d; ++i) s0 += std::fabs(static_cast<double>(a[i]) - b[i]);
  return s0 + s1;
}

double ScalarDot(const float* a, const float* b, size_t d) {
  double s0 = 0.0, s1 = 0.0;
  size_t i = 0;
  for (; i + 2 <= d; i += 2) {
    s0 += static_cast<double>(a[i]) * b[i];
    s1 += static_cast<double>(a[i + 1]) * b[i + 1];
  }
  for (; i < d; ++i) s0 += static_cast<double>(a[i]) * b[i];
  return s0 + s1;
}

double ScalarSquaredNorm(const float* a, size_t d) { return ScalarDot(a, a, d); }

void ScalarDotAndNorms(const float* a, const float* b, size_t d, double* dot,
                       double* norm_a, double* norm_b) {
  double sd = 0.0, sa = 0.0, sb = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double ai = a[i];
    const double bi = b[i];
    sd += ai * bi;
    sa += ai * ai;
    sb += bi * bi;
  }
  *dot = sd;
  *norm_a = sa;
  *norm_b = sb;
}

void ScalarDotRows(const float* rows, size_t num_rows, size_t stride, size_t d,
                   const float* v, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = ScalarDot(rows + r * stride, v, d);
  }
}

void ScalarDotRowsMulti(const float* rows, size_t num_rows, size_t stride,
                        size_t d, const float* queries, size_t num_queries,
                        size_t qstride, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    const float* row = rows + r * stride;
    for (size_t q = 0; q < num_queries; ++q) {
      out[r * num_queries + q] = ScalarDot(row, queries + q * qstride, d);
    }
  }
}

struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    // Reflected Castagnoli polynomial.
    constexpr uint32_t kPoly = 0x82F63B78U;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

}  // namespace

uint32_t ScalarCrc32c(const uint8_t* data, size_t n, uint32_t seed) {
  const Crc32cTable& t = Table();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ t.entries[(crc ^ data[i]) & 0xFF];
  }
  return ~crc;
}

namespace {

constexpr Kernels kScalarKernels = {
    ScalarSquaredL2,    ScalarL1,          ScalarDot,
    ScalarSquaredNorm,  ScalarDotAndNorms, ScalarDotRows,
    ScalarDotRowsMulti, ScalarCrc32c,
};

}  // namespace

const Kernels* GetScalarKernels() { return &kScalarKernels; }

}  // namespace detail

std::string_view IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<Isa> IsaFromName(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512") return Isa::kAvx512;
  if (name == "neon") return Isa::kNeon;
  return std::nullopt;
}

const Kernels* KernelsFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::GetScalarKernels();
    case Isa::kAvx2:
#if defined(C2LSH_SIMD_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
      // sse4.2: the table's crc32c uses the SSE4.2 crc32 instruction.
      if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
          __builtin_cpu_supports("sse4.2")) {
        return detail::GetAvx2Kernels();
      }
#endif
      return nullptr;
    case Isa::kAvx512:
#if defined(C2LSH_SIMD_HAVE_AVX512) && (defined(__x86_64__) || defined(__i386__))
      if (__builtin_cpu_supports("avx512f") &&
          __builtin_cpu_supports("sse4.2")) {
        return detail::GetAvx512Kernels();
      }
#endif
      return nullptr;
    case Isa::kNeon:
#if defined(C2LSH_SIMD_HAVE_NEON) && defined(__aarch64__)
      // Advanced SIMD is architecturally mandatory on aarch64.
      return detail::GetNeonKernels();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512}) {
    if (KernelsFor(isa) != nullptr) out.push_back(isa);
  }
  return out;
}

namespace {

struct ActiveState {
  const Kernels* kernels;
  Isa isa;
};

// The dispatch decision, made once at first use. Both fields travel together
// in one atomically swapped pointer so readers never see a mismatched pair.
std::atomic<const ActiveState*> g_active{nullptr};

const ActiveState* NewActiveState(Isa isa) {
  // States live in a static ring so concurrent readers of a superseded state
  // keep dereferencing valid memory. ForceIsa is a test/bench hook, never
  // called while kernels are in flight, so ring reuse is not a hazard there;
  // the first-dispatch race writes distinct slots.
  static ActiveState slots[64];
  static std::atomic<size_t> next{0};
  const size_t slot = next.fetch_add(1, std::memory_order_relaxed) % 64;
  slots[slot] = ActiveState{KernelsFor(isa), isa};
  // Every dispatch decision (first use and ForceIsa) flows through here, so
  // this is the one place the gauge needs updating. Values follow the Isa
  // enum: 0 scalar, 1 avx2, 2 avx512, 3 neon.
  if (obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
          "simd_active_isa", "active SIMD ISA (0 scalar, 1 avx2, 2 avx512, 3 neon)")) {
    g->Set(static_cast<double>(static_cast<int>(isa)));
  }
  // Build attribution rides on the same seam: every binary that dispatches
  // a kernel exports c2lsh_build_info/process_start_time_seconds, and the
  // `isa` label tracks re-dispatch (ForceIsa, C2LSH_SIMD).
  obs::RegisterBuildMetrics(IsaName(isa));
  return &slots[slot];
}

Isa ResolveBestIsa() {
  // Environment override first: an unavailable or unknown choice falls back
  // to feature detection rather than failing, so a stale C2LSH_SIMD setting
  // can never break a binary.
  if (const char* env = std::getenv("C2LSH_SIMD")) {
    if (std::optional<Isa> isa = IsaFromName(env);
        isa.has_value() && KernelsFor(*isa) != nullptr) {
      return *isa;
    }
  }
  for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (KernelsFor(isa) != nullptr) return isa;
  }
  return Isa::kScalar;
}

const ActiveState* GetActive() {
  const ActiveState* s = g_active.load(std::memory_order_acquire);
  if (s == nullptr) {
    // Two threads racing the first dispatch resolve to the same ISA; the
    // second store is idempotent.
    s = NewActiveState(ResolveBestIsa());
    g_active.store(s, std::memory_order_release);
  }
  return s;
}

}  // namespace

const Kernels& Active() { return *GetActive()->kernels; }

Isa ActiveIsa() { return GetActive()->isa; }

bool ForceIsa(Isa isa) {
  if (KernelsFor(isa) == nullptr) return false;
  g_active.store(NewActiveState(isa), std::memory_order_release);
  return true;
}

}  // namespace simd
}  // namespace c2lsh
