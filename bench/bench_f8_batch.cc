// Figure F8 — batched query engine throughput vs the serial query loop.
//
// Sweeps QueryBatch's batch_size x pool-width grid over the paper's
// in-memory profiles (the F3 workload) and reports aggregate throughput
// (queries/sec), the speedup over a serial loop of Query() calls, and the
// per-query latency percentiles (p50/p95/p99). Every rep of every cell times
// the serial loop right before its batched run and the cell's speedup is
// best serial over best batched of those reps, so host drift over the sweep
// moves both sides of a ratio alike instead of reading as speedup. Both latency columns come
// from exact per-call samples: a serial query's latency is its own Query()
// call, a batched query's is the QueryBatch() call over its block (the bench
// submits one block per call, and a caller gets every answer of a block when
// that call returns). QueryBatch runs each query on the serial loop, so the
// speedup is the pool's query parallelism: a width-1 pool is the serial loop
// plus bookkeeping, and wider pools add one lane per thread.
// --metrics_out writes the whole sweep as JSON (BENCH_batch.json in CI)
// with the machine it ran on, a `speedup_batch32` summary per profile, the
// workload-level `aggregate_speedup_batch32` (over every profile's fastest
// batch >= 32 cell: total paired serial time over total batched time) and
// the same aggregate per pool width, `aggregate_speedup_batch32_by_pool`. The
// acceptance bar is aggregate >= 2x at batch >= 32 on the F3 workload;
// EXPERIMENTS.md (F8) records how it stands at each pool width.
//
// The binary also owns the span-tracing overhead gate: with tracing compiled
// in but disabled (the production default) the per-span cost, scaled by the
// spans an average query emits, must stay under 1% of query latency — the
// bench exits non-zero otherwise. --overhead_out writes that measurement as
// a few-line JSON summary (BENCH_trace.json at the repo root); --trace_out
// writes the run's raw span trace as Perfetto-loadable Chrome trace JSON.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/index.h"
#include "src/obs/span.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace c2lsh {
namespace {

/// Nearest-rank percentile over exact per-query latency samples.
double SamplePercentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t ix = std::min(samples.size() - 1,
                             static_cast<size_t>(p * static_cast<double>(samples.size())));
  return samples[ix];
}

struct RunRow {
  size_t batch_size = 0;   // 0 = whole batch in one block
  size_t pool_threads = 0;
  double millis = 0.0;     // best-of-reps wall time for the whole batch
  double serial_millis = 0.0;  // best-of-reps serial loop, interleaved with them
  double qps = 0.0;
  double speedup = 0.0;    // serial_millis / millis
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

struct ProfileRows {
  std::string name;
  size_t n = 0, dim = 0, nq = 0;
  double serial_millis = 0.0, serial_qps = 0.0;  // best serial loop of the sweep
  double serial_p50 = 0.0, serial_p95 = 0.0, serial_p99 = 0.0;
  double speedup_batch32 = 0.0;  // best speedup among batch_size >= 32 runs
  std::vector<RunRow> runs;
};

/// The fastest batch >= 32 cell of `p` on a pool of `width` threads (0 =
/// any width), or nullptr.
const RunRow* FastestBatch32(const ProfileRows& p, size_t width) {
  const RunRow* best = nullptr;
  for (const RunRow& r : p.runs) {
    const size_t block = r.batch_size == 0 ? p.nq : r.batch_size;
    if (block < 32 || (width != 0 && r.pool_threads != width)) continue;
    if (best == nullptr || r.millis < best->millis) best = &r;
  }
  return best;
}

/// Paired serial time over batched time, summed over every profile's
/// fastest batch >= 32 cell on pools of `width` threads (0 = any).
double AggregateSpeedup(const std::vector<ProfileRows>& all, size_t width) {
  double serial = 0.0, batched = 0.0;
  for (const ProfileRows& p : all) {
    if (const RunRow* r = FastestBatch32(p, width)) {
      serial += r->serial_millis;
      batched += r->millis;
    }
  }
  return batched > 0.0 ? serial / batched : 0.0;
}

void AppendJson(std::string* out, const ProfileRows& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"profile\": \"%s\", \"n\": %zu, \"dim\": %zu, "
                "\"queries\": %zu,\n",
                p.name.c_str(), p.n, p.dim, p.nq);
  *out += buf;
  std::snprintf(buf, sizeof(buf),
                "     \"serial\": {\"millis\": %.3f, \"qps\": %.1f, "
                "\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f},\n",
                p.serial_millis, p.serial_qps, p.serial_p50, p.serial_p95,
                p.serial_p99);
  *out += buf;
  std::snprintf(buf, sizeof(buf), "     \"speedup_batch32\": %.3f,\n",
                p.speedup_batch32);
  *out += buf;
  *out += "     \"runs\": [\n";
  for (size_t i = 0; i < p.runs.size(); ++i) {
    const RunRow& r = p.runs[i];
    std::snprintf(buf, sizeof(buf),
                  "      {\"batch_size\": %zu, \"pool_threads\": %zu, "
                  "\"millis\": %.3f, \"serial_millis\": %.3f, \"qps\": %.1f, "
                  "\"speedup\": %.3f, \"p50\": %.4f, \"p95\": %.4f, "
                  "\"p99\": %.4f}%s\n",
                  r.batch_size, r.pool_threads, r.millis, r.serial_millis, r.qps,
                  r.speedup, r.p50, r.p95, r.p99, i + 1 < p.runs.size() ? "," : "");
    *out += buf;
  }
  *out += "     ]}";
}

int Run(int argc, char** argv) {
  ArgParser parser =
      bench::MakeStandardParser("F8: batched engine throughput vs serial loop");
  parser.AddInt("k", 10, "neighbors per query");
  parser.AddInt("reps", 3, "repetitions per configuration (best time wins)");
  parser.AddString("overhead_out", "",
                   "write the span-tracing overhead summary as JSON to this path");
  bench::ParseOrDie(&parser, argc, argv);
  bench::ArmTracingIfRequested(parser);
  const size_t n = static_cast<size_t>(parser.GetInt("n"));
  const size_t nq = static_cast<size_t>(parser.GetInt("queries"));
  const size_t k = static_cast<size_t>(parser.GetInt("k"));
  const int reps = std::max(1, static_cast<int>(parser.GetInt("reps")));
  const uint64_t seed = static_cast<uint64_t>(parser.GetInt("seed"));

  bench::PrintHeader("F8", "QueryBatch throughput vs serial Query loop");

  // batch_size 0 means "the whole query set in one block". A pool is
  // clamped to the hardware, so on a smaller host the wider pools repeat
  // the widest real one; the JSON records each pool's actual width.
  const std::vector<size_t> batch_sizes = {8, 32, 0};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t width : {1, 2, 4}) pools.push_back(std::make_unique<ThreadPool>(width));

  std::vector<ProfileRows> all;
  for (DatasetProfile profile : AllDatasetProfiles()) {
    auto pd = MakeProfileDataset(profile, n, nq, seed);
    bench::DieIf(pd.status(), "profile dataset");
    auto index = C2lshIndex::Build(pd->data, bench::DefaultC2lsh(seed));
    bench::DieIf(index.status(), "c2lsh build");

    ProfileRows rows;
    rows.name = DatasetProfileName(profile);
    rows.n = pd->data.size();
    rows.dim = pd->data.dim();
    rows.nq = pd->queries.num_rows();

    // Serial baseline: the exact loop QueryBatch replaces. Returns the
    // loop's wall time; per_query_millis keeps the last loop's samples.
    std::vector<double> per_query_millis(rows.nq, 0.0);
    auto time_serial_loop = [&]() {
      Timer loop_timer;
      for (size_t q = 0; q < rows.nq; ++q) {
        Timer qt;
        auto r = index->Query(pd->data, pd->queries.row(q), k);
        bench::DieIf(r.status(), "serial query");
        per_query_millis[q] = qt.ElapsedMillis();
      }
      const double t = loop_timer.ElapsedMillis();
      if (rows.serial_millis == 0.0 || t < rows.serial_millis) rows.serial_millis = t;
      return t;
    };

    for (size_t batch : batch_sizes) {
      // The query set cut into blocks of `batch` rows, one QueryBatch call
      // each, so every block's call time is an exact latency sample.
      const size_t block = batch == 0 ? rows.nq : batch;
      std::vector<FloatMatrix> blocks;
      for (size_t first = 0; first < rows.nq; first += block) {
        const size_t count = std::min(block, rows.nq - first);
        auto m = FloatMatrix::Create(count, rows.dim);
        bench::DieIf(m.status(), "query block");
        for (size_t q = 0; q < count; ++q) {
          std::copy_n(pd->queries.row(first + q), rows.dim, m->mutable_row(q));
        }
        blocks.push_back(std::move(m).value());
      }
      for (const std::unique_ptr<ThreadPool>& pool : pools) {
        C2lshIndex::BatchQueryOptions opts;
        opts.batch_size = batch;
        opts.pool = pool.get();
        RunRow row;
        row.batch_size = batch;
        row.pool_threads = pool->num_threads();
        std::vector<double> batch_query_millis;  // final rep, one per query
        for (int rep = 0; rep < reps; ++rep) {
          const double serial = time_serial_loop();
          if (rep == 0 || serial < row.serial_millis) row.serial_millis = serial;
          batch_query_millis.clear();
          double millis = 0.0;
          for (const FloatMatrix& b : blocks) {
            Timer t;
            auto r = index->QueryBatch(pd->data, b, k, opts);
            bench::DieIf(r.status(), "batched query");
            const double call_millis = t.ElapsedMillis();
            millis += call_millis;
            batch_query_millis.insert(batch_query_millis.end(), b.num_rows(),
                                      call_millis);
          }
          if (rep == 0 || millis < row.millis) row.millis = millis;
        }
        row.qps = 1e3 * static_cast<double>(rows.nq) / row.millis;
        row.speedup = row.serial_millis / row.millis;
        row.p50 = SamplePercentile(batch_query_millis, 0.50);
        row.p95 = SamplePercentile(batch_query_millis, 0.95);
        row.p99 = SamplePercentile(batch_query_millis, 0.99);
        if (block >= 32) {
          rows.speedup_batch32 = std::max(rows.speedup_batch32, row.speedup);
        }
        rows.runs.push_back(row);
      }
    }
    rows.serial_qps = 1e3 * static_cast<double>(rows.nq) / rows.serial_millis;
    rows.serial_p50 = SamplePercentile(per_query_millis, 0.50);
    rows.serial_p95 = SamplePercentile(per_query_millis, 0.95);
    rows.serial_p99 = SamplePercentile(per_query_millis, 0.99);

    std::printf("\n[%s]  n=%zu  d=%zu  queries=%zu  k=%zu\n", rows.name.c_str(),
                rows.n, rows.dim, rows.nq, k);
    std::printf("serial loop (best of the sweep): %.1f ms  (%.1f q/s)  p50=%.3f "
                "p95=%.3f p99=%.3f\n",
                rows.serial_millis, rows.serial_qps, rows.serial_p50,
                rows.serial_p95, rows.serial_p99);
    TablePrinter table({"batch", "pool", "ms", "serial ms", "q/s", "speedup", "p50",
                        "p95", "p99"});
    for (const RunRow& r : rows.runs) {
      table.AddRow({r.batch_size == 0 ? "all" : std::to_string(r.batch_size),
                    std::to_string(r.pool_threads), TablePrinter::Fmt(r.millis, 1),
                    TablePrinter::Fmt(r.serial_millis, 1),
                    TablePrinter::Fmt(r.qps, 1), TablePrinter::Fmt(r.speedup, 2),
                    TablePrinter::Fmt(r.p50, 3), TablePrinter::Fmt(r.p95, 3),
                    TablePrinter::Fmt(r.p99, 3)});
    }
    std::printf("%s", table.ToString().c_str());
    std::printf("best speedup at batch >= 32: %.2fx\n", rows.speedup_batch32);
    all.push_back(std::move(rows));
  }

  // Workload-level aggregate over each profile's fastest batch >= 32 cell —
  // over every pool, then per pool width.
  const double aggregate = AggregateSpeedup(all, /*width=*/0);
  std::printf("\naggregate speedup at batch >= 32 (whole F3 workload): %.2fx\n",
              aggregate);
  std::string by_pool;  // JSON members "width": speedup
  size_t last_width = 0;
  for (const std::unique_ptr<ThreadPool>& pool : pools) {
    const size_t width = pool->num_threads();
    if (width == last_width) continue;  // a clamped pool repeats the last one
    last_width = width;
    const double speedup = AggregateSpeedup(all, width);
    std::printf("  pool width %zu: %.2fx\n", width, speedup);
    char entry[64];
    std::snprintf(entry, sizeof(entry), "%s\"%zu\": %.3f", by_pool.empty() ? "" : ", ",
                  width, speedup);
    by_pool += entry;
  }

  // Span-tracing overhead, measured on the serial loop over one profile.
  // Three numbers: the untraced baseline (tracing compiled in, mode off —
  // exactly what production pays), the fully-sampled run, and a microbench
  // of the disabled span path. The hard gate is on the disabled path: its
  // per-query cost must stay under 1% of query latency.
  bench::PrintHeader("F8-trace", "span tracing overhead (serial loop)");
  double disabled_pct = 0.0, armed_pct = 0.0;
  double ns_per_span = 0.0, events_per_query = 0.0;
  {
    auto pd = MakeProfileDataset(DatasetProfile::kColor, n, nq, seed);
    bench::DieIf(pd.status(), "profile dataset");
    auto index = C2lshIndex::Build(pd->data, bench::DefaultC2lsh(seed));
    bench::DieIf(index.status(), "c2lsh build");

    auto time_serial_loop = [&]() {
      double best = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        Timer t;
        for (size_t q = 0; q < nq; ++q) {
          auto r = index->Query(pd->data, pd->queries.row(q), k);
          bench::DieIf(r.status(), "overhead query");
        }
        const double millis = t.ElapsedMillis();
        if (rep == 0 || millis < best) best = millis;
      }
      return best;
    };

    obs::Tracer::Global().SetMode(obs::TraceMode::kOff);
    const double off_best = time_serial_loop();

    obs::Tracer::Global().SetMode(obs::TraceMode::kAlways);
    obs::TraceRing* ring = obs::Tracer::Global().ThreadRing();
    const uint64_t emitted_before = ring->emitted();
    const double on_best = time_serial_loop();
    events_per_query =
        static_cast<double>(ring->emitted() - emitted_before) /
        static_cast<double>(nq * static_cast<size_t>(reps));
    obs::Tracer::Global().SetMode(obs::TraceMode::kOff);

    // Disabled span path: one relaxed load + branch per ScopedSpan.
    constexpr int kProbes = 1 << 20;
    Timer probe_timer;
    for (int i = 0; i < kProbes; ++i) {
      obs::ScopedSpan probe(obs::SpanSubsystem::kOther, "overhead_probe",
                            static_cast<uint64_t>(i));
    }
    ns_per_span = probe_timer.ElapsedMillis() * 1e6 / kProbes;

    const double query_millis = off_best / static_cast<double>(nq);
    disabled_pct =
        events_per_query * ns_per_span * 1e-6 / query_millis * 100.0;
    armed_pct = (on_best - off_best) / off_best * 100.0;
    std::printf(
        "untraced serial loop: %.1f ms   fully sampled: %.1f ms (%+.2f%%)\n"
        "disabled span path: %.2f ns/span x %.1f spans/query = %.4f%% of "
        "query latency (gate: < 1%%)\n",
        off_best, on_best, armed_pct, ns_per_span, events_per_query,
        disabled_pct);
    if (disabled_pct >= 1.0) {
      std::fprintf(stderr,
                   "FATAL: disabled-tracing overhead %.4f%% exceeds the 1%% "
                   "budget\n",
                   disabled_pct);
      return 1;
    }
  }

  bench::MaybeWriteTrace(parser, "c2lsh-bench-f8");

  const std::string overhead_path = parser.GetString("overhead_out");
  if (!overhead_path.empty()) {
    FILE* f = std::fopen(overhead_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL: cannot open %s\n", overhead_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"f8_batch tracing overhead\",\n"
                 "  \"workload\": {\"profile\": \"%s\", \"n\": %zu, "
                 "\"queries\": %zu, \"k\": %zu, \"reps\": %d},\n"
                 "  \"disabled\": {\"ns_per_span\": %.3f, \"spans_per_query\": %.1f, "
                 "\"pct_of_query\": %.4f, \"gate_pct\": 1.0},\n"
                 "  \"fully_sampled\": {\"pct_of_query\": %.2f}\n}\n",
                 DatasetProfileName(DatasetProfile::kColor).c_str(), n, nq, k, reps,
                 ns_per_span, events_per_query, disabled_pct, armed_pct);
    std::fclose(f);
    std::printf("tracing overhead summary written to %s\n", overhead_path.c_str());
  }

  const std::string path = parser.GetString("metrics_out");
  if (!path.empty()) {
    std::string json = "{\n  \"bench\": \"f8_batch\",\n";
    json += "  \"machine\": " +
            bench::MachineJson(bench::DescribeMachine({simd::ActiveIsa()})) + ",\n";
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  \"k\": %zu, \"reps\": %d,\n", k, reps);
    json += buf;
    double worst = 0.0;
    for (size_t i = 0; i < all.size(); ++i) {
      worst = i == 0 ? all[i].speedup_batch32
                     : std::min(worst, all[i].speedup_batch32);
    }
    std::snprintf(buf, sizeof(buf),
                  "  \"aggregate_speedup_batch32\": %.3f,\n"
                  "  \"min_speedup_batch32\": %.3f,\n",
                  aggregate, worst);
    json += buf;
    json += "  \"aggregate_speedup_batch32_by_pool\": {" + by_pool + "},\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"tracing_overhead\": {\"disabled_pct\": %.4f, "
                  "\"armed_pct\": %.2f},\n",
                  disabled_pct, armed_pct);
    json += buf;
    json += "  \"profiles\": [\n";
    for (size_t i = 0; i < all.size(); ++i) {
      AppendJson(&json, all[i]);
      json += i + 1 < all.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL: cannot open %s\n", path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("metrics report written to %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace c2lsh

int main(int argc, char** argv) { return c2lsh::Run(argc, argv); }
