// Shared setup for the experiment binaries: dataset materialization with
// ground-truth caching, default method configurations, and consistent
// printing. Every bench_* binary regenerates one table or figure of the
// C2LSH evaluation (see DESIGN.md section 5) and accepts --n / --queries /
// --seed to scale the run.

#pragma once
#ifndef C2LSH_BENCH_BENCH_COMMON_H_
#define C2LSH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/eval/harness.h"
#include "src/eval/method.h"
#include "src/eval/report.h"
#include "src/eval/table.h"
#include "src/obs/build_info.h"
#include "src/obs/span.h"
#include "src/util/argparse.h"
#include "src/vector/ground_truth.h"
#include "src/vector/simd.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace bench {

/// One materialized dataset profile with queries and exact ground truth.
struct World {
  std::string name;
  Dataset data;
  FloatMatrix queries;
  std::vector<NeighborList> gt;
};

/// Dies with a message on error — bench binaries have no meaningful recovery.
inline void DieIf(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

/// Materializes one profile with ground truth for max_k neighbors.
inline World MakeWorld(DatasetProfile profile, size_t n, size_t num_queries,
                       size_t max_k, uint64_t seed) {
  auto pd = MakeProfileDataset(profile, n, num_queries, seed);
  DieIf(pd.status(), "profile dataset");
  auto gt = ComputeGroundTruth(pd->data, pd->queries, max_k);
  DieIf(gt.status(), "ground truth");
  return World{DatasetProfileName(profile), std::move(pd->data), std::move(pd->queries),
               std::move(gt.value())};
}

/// Standard parser with the flags every experiment shares.
inline ArgParser MakeStandardParser(const std::string& doc) {
  ArgParser p(doc);
  p.AddInt("n", 10000, "objects per dataset profile");
  p.AddInt("queries", 50, "number of queries");
  p.AddInt("seed", 42, "master seed");
  p.AddString("metrics_out", "",
              "write a JSON metrics report (per-query latency percentiles, "
              "rehash traces, registry dump) to this path; empty = disabled");
  p.AddString("trace_out", "",
              "write the span trace of the run as Perfetto-loadable Chrome "
              "trace JSON to this path; empty = tracing stays off");
  return p;
}

/// Arms span tracing when --trace_out was given. Benches that gate on
/// untraced timings (overhead assertions) flip the mode themselves around
/// the timed regions; the trace accumulates in the rings either way.
inline bool ArmTracingIfRequested(const ArgParser& parser) {
  if (parser.GetString("trace_out").empty()) return false;
  obs::Tracer::Global().SetMode(obs::TraceMode::kAlways);
  return true;
}

/// Writes the accumulated span trace when --trace_out was given. The JSON is
/// self-checked with the in-tree validator first so a formatting regression
/// fails the bench rather than Perfetto.
inline void MaybeWriteTrace(const ArgParser& parser, const char* bench_name) {
  const std::string path = parser.GetString("trace_out");
  if (path.empty()) return;
  const std::string json =
      obs::ExportChromeTrace(obs::Tracer::Global().SnapshotAll(), bench_name);
  DieIf(obs::ValidateChromeTraceJson(json), "trace JSON validation");
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("span trace written to %s (load in https://ui.perfetto.dev)\n",
              path.c_str());
}

/// Writes the JSON metrics report when --metrics_out was given.
inline void MaybeWriteMetricsReport(const ArgParser& parser,
                                    const std::vector<WorkloadResult>& results) {
  const std::string path = parser.GetString("metrics_out");
  if (path.empty()) return;
  DieIf(WriteMetricsReport(path, results), "metrics report");
  std::printf("metrics report written to %s\n", path.c_str());
}

/// Parses or dies; handles --help.
inline void ParseOrDie(ArgParser* p, int argc, char** argv) {
  const Status s = p->Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(), p->HelpString().c_str());
    std::exit(1);
  }
  if (p->help_requested()) {
    std::printf("%s", p->HelpString().c_str());
    std::exit(0);
  }
}

/// Default method configurations used across experiments (paper defaults).
inline C2lshOptions DefaultC2lsh(uint64_t seed, double c = 2.0) {
  C2lshOptions o;
  o.w = 1.0;
  o.c = c;
  o.delta = 0.1;
  o.seed = seed;
  return o;
}

inline E2lshOptions DefaultE2lsh(uint64_t seed) {
  E2lshOptions o;
  o.K = 6;
  o.L = 32;
  o.w = 1.0;
  o.c = 2.0;
  o.max_rounds = 10;
  o.seed = seed;
  return o;
}

inline LsbForestOptions DefaultLsb(uint64_t seed) {
  LsbForestOptions o;
  o.tree.u = 8;
  o.tree.v = 0;  // fit the z-order grid to the data
  o.tree.w = 4.0;
  o.L = 0;       // the paper's formula: sqrt(d*n/B) trees
  o.c = 2.0;
  o.seed = seed;
  return o;
}

inline MultiProbeOptions DefaultMultiProbe(uint64_t seed) {
  MultiProbeOptions o;
  o.K = 6;
  o.L = 8;
  o.w = 16.0;  // one fixed width — multi-probe has no radius schedule
  o.num_probes = 16;
  o.seed = seed;
  return o;
}

inline SrsOptions DefaultSrs(uint64_t seed) {
  SrsOptions o;
  o.projected_dim = 6;
  o.c = 1.2;        // recall-oriented regime (see SRS paper / srs.h)
  o.threshold = 0.99;
  o.budget_fraction = 0.1;
  o.seed = seed;
  return o;
}

/// Builds the paper-era methods (C2LSH, E2LSH, LSB-forest, Multi-Probe LSH,
/// SRS) plus the exact scan over one world. Dies on build failure.
inline std::vector<std::unique_ptr<AnnMethod>> BuildAllMethods(const World& world,
                                                               uint64_t seed) {
  std::vector<std::unique_ptr<AnnMethod>> methods;
  auto c2 = MakeC2lshMethod(world.data, DefaultC2lsh(seed));
  DieIf(c2.status(), "c2lsh build");
  methods.push_back(std::move(c2).value());
  auto e2 = MakeE2lshMethod(world.data, DefaultE2lsh(seed));
  DieIf(e2.status(), "e2lsh build");
  methods.push_back(std::move(e2).value());
  auto lsb = MakeLsbForestMethod(world.data, DefaultLsb(seed));
  DieIf(lsb.status(), "lsb build");
  methods.push_back(std::move(lsb).value());
  auto mp = MakeMultiProbeMethod(world.data, DefaultMultiProbe(seed));
  DieIf(mp.status(), "multiprobe build");
  methods.push_back(std::move(mp).value());
  auto srs = MakeSrsMethod(world.data, DefaultSrs(seed));
  DieIf(srs.status(), "srs build");
  methods.push_back(std::move(srs).value());
  auto scan = MakeLinearScanMethod(world.data);
  DieIf(scan.status(), "linear scan");
  methods.push_back(std::move(scan).value());
  return methods;
}

/// The paper's k grid.
inline std::vector<size_t> PaperKs() { return {1, 2, 5, 10, 20, 50, 100}; }

/// Runs the full (method x k) sweep for one world.
struct SweepRow {
  std::string method;
  WorkloadResult result;
};
inline std::vector<SweepRow> RunKSweep(const World& world,
                                       std::vector<std::unique_ptr<AnnMethod>>* methods,
                                       const std::vector<size_t>& ks,
                                       const WorkloadOptions& options = WorkloadOptions()) {
  std::vector<SweepRow> rows;
  for (auto& method : *methods) {
    for (size_t k : ks) {
      auto r = RunWorkload(method.get(), world.data, world.queries, world.gt, k, options);
      DieIf(r.status(), "workload");
      rows.push_back(SweepRow{method->name(), std::move(r).value()});
    }
  }
  return rows;
}

/// Prints a section header matching the DESIGN.md experiment ids.
inline void PrintHeader(const std::string& exp_id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", exp_id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

// The machine a bench measured on: CPU model and logical CPU count (from
// /proc/cpuinfo where it exists) and the ISAs the numbers cover.
struct Machine {
  std::string cpu = "unknown";
  size_t cpus = 0;
  std::string isas;
};

inline Machine DescribeMachine(const std::vector<simd::Isa>& isas) {
  Machine m;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("processor", 0) == 0) ++m.cpus;
    if (m.cpu == "unknown" && line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        m.cpu = line.substr(colon + 2);
      }
    }
  }
  for (simd::Isa isa : isas) {
    m.isas += (m.isas.empty() ? "" : " ") + std::string(simd::IsaName(isa));
  }
  return m;
}

/// `m` as a one-line JSON object, plus the compiler and source revision.
inline std::string MachineJson(const Machine& m) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu\": \"%s\", \"cpus\": %zu, \"isas\": \"%s\", "
                "\"compiler\": \"%s\", \"git\": \"%s\"}",
                m.cpu.c_str(), m.cpus, m.isas.c_str(), __VERSION__,
                std::string(obs::BuildGitDescribe()).c_str());
  return buf;
}

}  // namespace bench
}  // namespace c2lsh

#endif  // C2LSH_BENCH_BENCH_COMMON_H_
