// Experiment D1 — validating the simulated I/O model against measured disk
// I/O.
//
// The in-memory index *simulates* the paper's I/O-cost metric through the
// analytic PageModel; the disk-resident index *measures* it as buffer-pool
// misses over a real page file. This experiment runs identical queries
// through both and sweeps the pool size, showing (i) the measured cold-pool
// cost stays within the simulated cost, and (ii) how a growing buffer absorbs
// index I/O — the knob the paper's external-memory setting implies.

#include <cstdio>
#include <filesystem>

#include "bench/bench_common.h"
#include "src/core/disk_index.h"

namespace c2lsh {
namespace {

int Run(int argc, char** argv) {
  ArgParser parser =
      bench::MakeStandardParser("D1: simulated vs measured I/O; pool-size sweep");
  parser.AddInt("k", 10, "neighbors per query");
  bench::ParseOrDie(&parser, argc, argv);
  bench::ArmTracingIfRequested(parser);
  const size_t n = static_cast<size_t>(parser.GetInt("n"));
  const size_t nq = static_cast<size_t>(parser.GetInt("queries"));
  const size_t k = static_cast<size_t>(parser.GetInt("k"));
  const uint64_t seed = static_cast<uint64_t>(parser.GetInt("seed"));

  bench::World world = bench::MakeWorld(DatasetProfile::kMnist, n, nq, k, seed);
  const C2lshOptions options = bench::DefaultC2lsh(seed);

  // Simulated: the in-memory index's analytic charge (index + data pages).
  auto mem = C2lshIndex::Build(world.data, options);
  bench::DieIf(mem.status(), "mem build");
  double sim_pages = 0;
  for (size_t q = 0; q < nq; ++q) {
    C2lshQueryStats stats;
    auto r = mem->Query(world.data, world.queries.row(q), k, &stats);
    bench::DieIf(r.status(), "mem query");
    sim_pages += static_cast<double>(stats.index_pages + stats.data_pages);
  }
  sim_pages /= static_cast<double>(nq);

  const std::string path =
      (std::filesystem::temp_directory_path() / "c2lsh_bench_d1.pf").string();

  bench::PrintHeader("D1",
                     "query I/O: simulated model vs measured buffer-pool misses "
                     "(self-contained index: bucket probes + vector reads)");
  std::printf("simulated (analytic PageModel): %.0f pages/query (index + data)\n\n",
              sim_pages);

  TablePrinter table({"pool pages", "pool MiB", "cold misses/query", "warm misses/query",
                      "warm hit rate"});
  for (size_t pool_pages : {64u, 256u, 1024u, 4096u, 16384u}) {
    {
      auto built = DiskC2lshIndex::Build(world.data, options, path, 4096);
      bench::DieIf(built.status(), "disk build");
    }
    auto disk = DiskC2lshIndex::Open(path, pool_pages);
    bench::DieIf(disk.status(), "disk open");

    // Cold pass: self-contained queries (vector reads are measured I/O too).
    double cold = 0;
    for (size_t q = 0; q < nq; ++q) {
      DiskQueryStats stats;
      auto r = disk->Query(world.queries.row(q), k, &stats);
      bench::DieIf(r.status(), "disk query");
      cold += static_cast<double>(stats.pool_misses);
    }
    cold /= static_cast<double>(nq);
    // Warm pass (same queries again).
    double warm = 0, hits = 0;
    for (size_t q = 0; q < nq; ++q) {
      DiskQueryStats stats;
      auto r = disk->Query(world.queries.row(q), k, &stats);
      bench::DieIf(r.status(), "disk query warm");
      warm += static_cast<double>(stats.pool_misses);
      hits += static_cast<double>(stats.pool_hits);
    }
    warm /= static_cast<double>(nq);
    hits /= static_cast<double>(nq);
    table.AddRow(
        {TablePrinter::FmtInt(pool_pages),
         TablePrinter::Fmt(static_cast<double>(pool_pages) * 4096 / (1 << 20), 1),
         TablePrinter::Fmt(cold, 0), TablePrinter::Fmt(warm, 0),
         TablePrinter::Fmt(hits / std::max(1.0, hits + warm), 3)});
  }
  std::printf("%s", table.ToString().c_str());
  std::filesystem::remove(path);
  std::printf(
      "\nShape check: the cold-pool measured misses fall below the simulated\n"
      "model (the model charges every round's delta pages, while the disk\n"
      "index's scan cursor reads each entry page about once per query); warm\n"
      "misses fall toward zero once the pool exceeds the per-query working\n"
      "set.\n");
  bench::MaybeWriteTrace(parser, "c2lsh-d1_disk_io");
  return 0;
}

}  // namespace
}  // namespace c2lsh

int main(int argc, char** argv) { return c2lsh::Run(argc, argv); }
