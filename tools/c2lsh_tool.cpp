// c2lsh_tool — command-line driver for building, persisting, inspecting and
// querying C2LSH indexes over .fvecs datasets.
//
//   # build an index over a dataset into an index file (plus its empty
//   # write-ahead log, base.c2lsh.wal)
//   c2lsh_tool --mode=build --data=base.fvecs --index=base.c2lsh [--c=2 ...]
//
//   # inspect an index file
//   c2lsh_tool --mode=info --index=base.c2lsh
//
//   # query: top-k for every vector in a query file, results as .ivecs
//   c2lsh_tool --mode=query --data=base.fvecs --index=base.c2lsh
//              --queries=query.fvecs --k=10 --out=results.ivecs
//
//   # exact ground truth (brute force), same output format
//   c2lsh_tool --mode=exact --data=base.fvecs --queries=query.fvecs --k=10
//              --out=gt.ivecs

#include <cstdio>
#include <string>
#include <vector>

#include "src/baselines/linear_scan.h"
#include "src/core/disk_index.h"
#include "src/core/index.h"
#include "src/eval/table.h"
#include "src/util/argparse.h"
#include "src/util/timer.h"
#include "src/vector/io.h"

namespace c2lsh {
namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

// The index file is the DiskC2lshIndex page file. Files this build no longer
// reads fail with NotSupported, whose message ends "rebuild the index"; the
// tool names the mode that does it.
Result<C2lshIndex> OpenIndex(const std::string& path) {
  Result<C2lshIndex> index = C2lshIndex::Open(path);
  if (index.status().IsNotSupported()) {
    return Status::NotSupported(std::string(index.status().message()) +
                                " with --mode build");
  }
  return index;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(),
                                                suffix.size(), suffix) == 0;
}

Result<Dataset> LoadDataset(const std::string& path) {
  if (EndsWith(path, ".bvecs")) {
    C2LSH_ASSIGN_OR_RETURN(FloatMatrix m, ReadBvecs(path));
    return Dataset::Create(path, std::move(m));
  }
  C2LSH_ASSIGN_OR_RETURN(FloatMatrix m, ReadFvecs(path));
  return Dataset::Create(path, std::move(m));
}

int RunBuild(const ArgParser& args) {
  auto data = LoadDataset(args.GetString("data"));
  if (!data.ok()) return Fail(data.status());
  std::printf("loaded %zu vectors of dim %zu\n", data->size(), data->dim());

  C2lshOptions options;
  options.w = args.GetDouble("w");
  options.c = args.GetDouble("c");
  options.delta = args.GetDouble("delta");
  options.beta = args.GetDouble("beta");
  options.seed = static_cast<uint64_t>(args.GetInt("seed"));

  // The vectors stay in --data (query reads them from there), so the index
  // file holds the tables alone.
  Timer timer;
  auto index = DiskC2lshIndex::Build(data.value(), options, args.GetString("index"),
                                     /*pool_pages=*/256, /*store_vectors=*/false);
  if (!index.ok()) return Fail(index.status());
  std::printf("built in %.2fs: %s\n", timer.ElapsedSeconds(),
              index->derived().ToString().c_str());
  std::printf("saved to %s (%s on disk)\n", args.GetString("index").c_str(),
              TablePrinter::FmtBytes(index->FilePages() * index->options().page_bytes)
                  .c_str());
  return 0;
}

int RunInfo(const ArgParser& args) {
  auto index = OpenIndex(args.GetString("index"));
  if (!index.ok()) return Fail(index.status());
  std::printf("C2LSH index: %s\n", args.GetString("index").c_str());
  std::printf("  objects:     %zu\n", index->num_objects());
  std::printf("  dim:         %zu\n", index->dim());
  std::printf("  tables (m):  %zu\n", index->num_tables());
  std::printf("  threshold l: %zu\n", index->derived().l);
  std::printf("  params:      %s\n", index->derived().ToString().c_str());
  std::printf("  radius cap:  %lld\n", index->radius_cap());
  std::printf("  resident:    %s\n", TablePrinter::FmtBytes(index->MemoryBytes()).c_str());
  const auto stats = index->ComputeStats();
  std::printf("  buckets/table: %.0f mean (min %zu, max %zu)\n",
              stats.mean_buckets_per_table, stats.min_buckets, stats.max_buckets);
  std::printf("  bucket size:   %.2f mean, %zu max\n", stats.mean_bucket_size,
              stats.max_bucket_size);
  if (stats.overlay_entries > 0) {
    std::printf("  overlay:       %zu entries awaiting compaction\n",
                stats.overlay_entries);
  }
  return 0;
}

int RunQuery(const ArgParser& args, bool exact) {
  auto data = LoadDataset(args.GetString("data"));
  if (!data.ok()) return Fail(data.status());
  const std::string qpath = args.GetString("queries");
  auto queries = EndsWith(qpath, ".bvecs") ? ReadBvecs(qpath) : ReadFvecs(qpath);
  if (!queries.ok()) return Fail(queries.status());
  const size_t k = static_cast<size_t>(args.GetInt("k"));

  std::vector<std::vector<int32_t>> out_rows;
  out_rows.reserve(queries->num_rows());
  Timer timer;
  double total_candidates = 0;

  if (exact) {
    LinearScan scan;
    for (size_t q = 0; q < queries->num_rows(); ++q) {
      auto r = scan.Search(data.value(), queries->row(q), k);
      if (!r.ok()) return Fail(r.status());
      std::vector<int32_t> row;
      for (const Neighbor& nb : *r) row.push_back(static_cast<int32_t>(nb.id));
      out_rows.push_back(std::move(row));
    }
  } else {
    auto index = OpenIndex(args.GetString("index"));
    if (!index.ok()) return Fail(index.status());
    if (index->num_objects() > data->size() || index->dim() != data->dim()) {
      return Fail(Status::InvalidArgument(
          "index was not built over this dataset (size/dim mismatch)"));
    }
    for (size_t q = 0; q < queries->num_rows(); ++q) {
      C2lshQueryStats stats;
      auto r = index->Query(data.value(), queries->row(q), k, &stats);
      if (!r.ok()) return Fail(r.status());
      total_candidates += static_cast<double>(stats.candidates_verified);
      std::vector<int32_t> row;
      for (const Neighbor& nb : *r) row.push_back(static_cast<int32_t>(nb.id));
      out_rows.push_back(std::move(row));
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  if (Status s = WriteIvecs(args.GetString("out"), out_rows); !s.ok()) {
    return Fail(s);
  }
  std::printf("%zu queries in %.3fs (%.2f ms/query", out_rows.size(), elapsed,
              1e3 * elapsed / std::max<size_t>(1, out_rows.size()));
  if (!exact) {
    std::printf(", %.1f candidates/query",
                total_candidates / std::max<size_t>(1, out_rows.size()));
  }
  std::printf(") -> %s\n", args.GetString("out").c_str());
  return 0;
}

int Run(int argc, char** argv) {
  ArgParser args(
      "c2lsh_tool: build, inspect and query C2LSH indexes over .fvecs files");
  args.AddString("mode", "", "one of: build, info, query, exact");
  args.AddString("data", "", "dataset .fvecs path");
  args.AddString("queries", "", "query .fvecs path");
  args.AddString("index", "", "index file path");
  args.AddString("out", "results.ivecs", "output .ivecs path (query/exact)");
  args.AddInt("k", 10, "neighbors per query");
  args.AddDouble("w", 1.0, "bucket width");
  args.AddDouble("c", 2.0, "approximation ratio (integer >= 2)");
  args.AddDouble("delta", 0.1, "error probability");
  args.AddDouble("beta", 0.0, "false-positive frequency (0 = 100/n)");
  args.AddInt("seed", 1, "hash sampling seed");

  if (Status s = args.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(), args.HelpString().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::printf("%s", args.HelpString().c_str());
    return 0;
  }
  const std::string mode = args.GetString("mode");
  if (mode == "build") return RunBuild(args);
  if (mode == "info") return RunInfo(args);
  if (mode == "query") return RunQuery(args, /*exact=*/false);
  if (mode == "exact") return RunQuery(args, /*exact=*/true);
  std::fprintf(stderr, "unknown --mode '%s'\n%s", mode.c_str(),
               args.HelpString().c_str());
  return 1;
}

}  // namespace
}  // namespace c2lsh

int main(int argc, char** argv) { return c2lsh::Run(argc, argv); }
