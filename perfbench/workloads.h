// The perfbench workloads. Each builds its own inputs from the seed,
// measures for the given number of seconds, checks the program's answers,
// and fills a Report (see harness.h and README.md for every metric).

#pragma once
#ifndef C2LSH_PERFBENCH_WORKLOADS_H_
#define C2LSH_PERFBENCH_WORKLOADS_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"
#include "src/core/params.h"
#include "src/obs/registry.h"
#include "src/util/status.h"
#include "src/vector/dataset.h"
#include "src/vector/simd.h"
#include "src/vector/synthetic.h"
#include "src/vector/types.h"

namespace perfbench {

/// A set-up step failed: no measurement is possible, so no report either.
inline void DieIf(const c2lsh::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what, s.ToString().c_str());
    std::exit(2);
  }
}

/// The paper's default parameters (w = 1, c = 2, delta = 0.1), as every
/// bench in the repository uses them.
inline c2lsh::C2lshOptions IndexOptions(uint64_t seed) {
  c2lsh::C2lshOptions o;
  o.w = 1.0;
  o.c = 2.0;
  o.delta = 0.1;
  o.seed = seed;
  return o;
}

/// Seed of one input stream of a run, derived from the run's seed.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
}

/// The data set, the query pool and the index's hash functions are the
/// same in every run: query cost depends strongly on the mixture's geometry
/// and on which queries are asked, and a benchmark whose data moved with
/// --seed would compare different data sets. The run's seed draws the
/// traffic made from them: which pool query each request asks, the arrival
/// schedule, tenants, the write mix and the vectors written.
inline constexpr uint64_t kDataSeed = 1;

/// A profile's data set plus a pool of queries jittered from data rows,
/// exactly as MakeProfileDataset draws its queries.
inline c2lsh::ProfileData MakeInputs(c2lsh::DatasetProfile profile, size_t n,
                                     size_t num_queries) {
  auto pd = c2lsh::MakeProfileDataset(profile, n, 1, kDataSeed);
  DieIf(pd.status(), "dataset generation");
  const double jitter = 8.0 * 0.5 / std::sqrt(static_cast<double>(pd->data.dim()));
  auto queries = c2lsh::GenerateQueriesNearData(pd->data.vectors(), num_queries, jitter,
                                                StreamSeed(kDataSeed, 3));
  DieIf(queries.status(), "query generation");
  pd->queries = std::move(queries).value();
  return std::move(pd).value();
}

/// Bitwise equality of two answers: ids and the bits of every distance.
inline bool SameAnswer(const c2lsh::NeighborList& a, const c2lsh::NeighborList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || std::memcmp(&a[i].dist, &b[i].dist, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// A registry counter's current value (0 when never registered).
inline uint64_t CounterValue(const char* name) {
  const c2lsh::obs::Counter* c = c2lsh::obs::MetricsRegistry::Global().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

/// Microseconds of one active-ISA squared-L2 kernel call at the data's d,
/// over the workload's own query and data rows.
inline double SquaredL2Micros(const c2lsh::Dataset& data, const c2lsh::FloatMatrix& queries) {
  const auto& kernels = c2lsh::simd::Active();
  const size_t d = data.dim();
  volatile double sink = 0.0;
  return TimeMicros(
      [&] {
        double s = 0.0;
        for (size_t i = 0; i < 1024; ++i) {
          s += kernels.squared_l2(queries.row(i % queries.num_rows()),
                                  data.object(static_cast<c2lsh::ObjectId>(i % data.size())), d);
        }
        sink = sink + s;
      },
      1024);
}

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, tracing off. true: per-layer metrics from a
  /// run that traces part of its work and leaves the rest untraced, which
  /// gives the tracing overhead.
  bool trace = false;
  /// Scratch directory for index files and WALs (created and removed by
  /// main.cc).
  std::string work_dir;
};

/// Setups repeated per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

void RunWireColdRw(const RunArgs& args, Report* report);
void RunEmbedBatch(const RunArgs& args, Report* report);

/// Records the machine: cores, active SIMD ISA, build type.
void RecordMachine(Report* report);

}  // namespace perfbench

#endif  // C2LSH_PERFBENCH_WORKLOADS_H_
