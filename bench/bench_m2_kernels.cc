// M2 — SIMD kernel micro-benchmark.
//
// Times every kernel of the dispatch layer (squared_l2, l1, dot,
// squared_norm, dot_and_norms, dot_rows) plus the end-to-end packed
// PStableFamily::BucketAll on every ISA the host supports, across a sweep of
// dimensions, and the crc32c checksum kernel at 64 B (a WAL record) and
// 4 KiB (a page) — one chained call per op, the way a page miss verifies
// one page. Reports ns/op, effective GB/s, and the speedup over the scalar
// reference. Results are also written as JSON (--out, default
// BENCH_kernels.json) with the machine they were measured on, so the perf
// trajectory of the kernel layer is recorded per change.
//
// Usage: bench_m2_kernels [--reps 200] [--out BENCH_kernels.json]

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/lsh/pstable.h"
#include "src/util/random.h"
#include "src/util/timer.h"
#include "src/vector/aligned.h"
#include "src/vector/simd.h"

namespace c2lsh {
namespace bench {
namespace {

constexpr size_t kDims[] = {16, 64, 128, 960};
constexpr size_t kBucketAllM = 128;  // family size for the end-to-end pass
constexpr size_t kCrcBytes[] = {64, 4096};  // a WAL record, a page

struct Measurement {
  std::string kernel;
  std::string isa;
  size_t dim = 0;    // floats per vector; 0 for crc32c rows
  size_t bytes = 0;  // buffer length of crc32c rows
  double ns_per_op = 0.0;
  double gb_per_s = 0.0;
  double speedup_vs_scalar = 0.0;
};

// Runs `fn` (one "op") enough times to exceed ~2ms, returns ns per op. The
// double return value of each op is accumulated into a volatile sink so the
// kernel call is not optimized away.
template <typename Fn>
double TimeNsPerOp(size_t reps, Fn&& fn) {
  volatile double sink = 0.0;
  // Warm-up pass (page-in + dispatch resolution).
  for (size_t i = 0; i < 8; ++i) sink = sink + fn();
  double best = 1e300;
  for (int trial = 0; trial < 3; ++trial) {
    Timer timer;
    for (size_t i = 0; i < reps; ++i) sink = sink + fn();
    const double ns = timer.ElapsedSeconds() * 1e9 / static_cast<double>(reps);
    if (ns < best) best = ns;
  }
  (void)sink;
  return best;
}

Measurement Measure(const std::string& kernel, simd::Isa isa, size_t dim,
                    size_t reps, double bytes_per_op, double ns) {
  Measurement m;
  m.kernel = kernel;
  m.isa = std::string(simd::IsaName(isa));
  m.dim = dim;
  m.ns_per_op = ns;
  m.gb_per_s = bytes_per_op / ns;  // bytes/ns == GB/s
  (void)reps;
  return m;
}

void PrintRow(const Measurement& m) {
  const char* axis = m.bytes > 0 ? "B" : "d";
  std::printf("  %-14s %-7s %s=%-5zu %10.1f ns/op %8.2f GB/s %8.2fx vs scalar\n",
              m.kernel.c_str(), m.isa.c_str(), axis, m.bytes > 0 ? m.bytes : m.dim,
              m.ns_per_op, m.gb_per_s, m.speedup_vs_scalar);
}

void WriteJson(const std::string& path, const Machine& machine,
               const std::vector<Measurement>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"m2_kernels\",\n  \"machine\": %s,\n  \"rows\": [\n",
               MachineJson(machine).c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    const char* axis = m.bytes > 0 ? "bytes" : "dim";
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"isa\": \"%s\", \"%s\": %zu, "
                 "\"ns_per_op\": %.3f, \"gb_per_s\": %.4f, "
                 "\"speedup_vs_scalar\": %.4f}%s\n",
                 m.kernel.c_str(), m.isa.c_str(), axis, m.bytes > 0 ? m.bytes : m.dim,
                 m.ns_per_op, m.gb_per_s, m.speedup_vs_scalar,
                 (i + 1 < rows.size()) ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  ArgParser parser(
      "M2: ns/op and GB/s for every SIMD kernel x ISA x dim, plus the packed "
      "BucketAll pass; emits BENCH_kernels.json");
  parser.AddInt("reps", 2000, "kernel invocations per timing trial");
  parser.AddString("out", "BENCH_kernels.json", "JSON output path");
  ParseOrDie(&parser, argc, argv);
  const size_t reps = static_cast<size_t>(parser.GetInt("reps"));

  const simd::Isa original = simd::ActiveIsa();
  const std::vector<simd::Isa> isas = simd::SupportedIsas();
  std::printf("supported ISAs:");
  for (simd::Isa isa : isas) std::printf(" %s", std::string(simd::IsaName(isa)).c_str());
  std::printf("  (active: %s)\n", std::string(simd::IsaName(original)).c_str());

  std::vector<Measurement> rows;
  PrintHeader("M2", "SIMD kernel microbenchmarks");

  for (size_t dim : kDims) {
    Rng rng(99 + dim);
    std::vector<float> a, b;
    rng.GaussianVector(dim, &a);
    rng.GaussianVector(dim, &b);

    // Pre-built family for the end-to-end BucketAll pass at this dim.
    auto fam = PStableFamily::Sample(kBucketAllM, dim, 4.0, 7);
    DieIf(fam.status(), "family sample");
    std::vector<BucketId> buckets;

    // kernel name -> (bytes touched per op, runner). The runner reads the
    // table freshly each call so ForceIsa takes effect.
    struct Case {
      const char* name;
      double bytes;
    };
    const double vec_bytes = static_cast<double>(dim * sizeof(float));
    const Case cases[] = {
        {"squared_l2", 2 * vec_bytes},
        {"l1", 2 * vec_bytes},
        {"dot", 2 * vec_bytes},
        {"squared_norm", vec_bytes},
        {"dot_and_norms", 2 * vec_bytes},
        {"bucket_all", static_cast<double>(kBucketAllM) * vec_bytes},
    };

    std::vector<double> scalar_ns(std::size(cases), 0.0);
    for (simd::Isa isa : isas) {
      if (!simd::ForceIsa(isa)) continue;
      for (size_t ci = 0; ci < std::size(cases); ++ci) {
        const std::string name = cases[ci].name;
        double ns = 0.0;
        if (name == "squared_l2") {
          ns = TimeNsPerOp(reps, [&] { return simd::Active().squared_l2(a.data(), b.data(), dim); });
        } else if (name == "l1") {
          ns = TimeNsPerOp(reps, [&] { return simd::Active().l1(a.data(), b.data(), dim); });
        } else if (name == "dot") {
          ns = TimeNsPerOp(reps, [&] { return simd::Active().dot(a.data(), b.data(), dim); });
        } else if (name == "squared_norm") {
          ns = TimeNsPerOp(reps, [&] { return simd::Active().squared_norm(a.data(), dim); });
        } else if (name == "dot_and_norms") {
          ns = TimeNsPerOp(reps, [&] {
            double d0, na, nb;
            simd::Active().dot_and_norms(a.data(), b.data(), dim, &d0, &na, &nb);
            return d0 + na + nb;
          });
        } else {  // bucket_all — the end-to-end packed matrix-vector pass
          ns = TimeNsPerOp(reps / 8 + 1, [&] {
            fam->BucketAll(a.data(), &buckets);
            return static_cast<double>(buckets[0]);
          });
        }
        if (isa == simd::Isa::kScalar) scalar_ns[ci] = ns;
        Measurement m = Measure(name, isa, dim, reps, cases[ci].bytes, ns);
        m.speedup_vs_scalar = (scalar_ns[ci] > 0.0) ? scalar_ns[ci] / ns : 1.0;
        PrintRow(m);
        rows.push_back(m);
      }
    }
  }

  // crc32c: each op continues the previous op's checksum (the seed), so the
  // calls form one dependency chain, as the verification of a page does.
  for (size_t bytes : kCrcBytes) {
    Rng rng(7 + bytes);
    std::vector<uint8_t> buf(bytes);
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next64());
    double scalar_ns = 0.0;
    for (simd::Isa isa : isas) {
      if (!simd::ForceIsa(isa)) continue;
      uint32_t crc = 0;
      const double ns = TimeNsPerOp(reps, [&] {
        crc = simd::Active().crc32c(buf.data(), bytes, crc);
        return static_cast<double>(crc);
      });
      if (isa == simd::Isa::kScalar) scalar_ns = ns;
      Measurement m = Measure("crc32c", isa, 0, reps, static_cast<double>(bytes), ns);
      m.bytes = bytes;
      m.speedup_vs_scalar = (scalar_ns > 0.0) ? scalar_ns / ns : 1.0;
      PrintRow(m);
      rows.push_back(m);
    }
  }
  simd::ForceIsa(original);

  const Machine machine = DescribeMachine(isas);
  std::printf("\nmachine: %s, %zu CPUs, ISAs: %s\n", machine.cpu.c_str(),
              machine.cpus, machine.isas.c_str());
  WriteJson(parser.GetString("out"), machine, rows);
  std::printf("\nwrote %s (%zu rows)\n", parser.GetString("out").c_str(), rows.size());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace c2lsh

int main(int argc, char** argv) { return c2lsh::bench::Main(argc, argv); }
