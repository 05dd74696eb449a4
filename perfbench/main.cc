// perfbench: runs one workload and prints its report as one JSON line.
//
//   perfbench --workload wire_cold_rw|embed_batch
//             --seed N --seconds S --trace 0|1 --work DIR
//
// Exit code 0 when the run completed (the report says whether it was
// correct and valid); 2 on bad arguments or a setup failure.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/workloads.h"
#include "src/vector/simd.h"

namespace perfbench {

void RecordMachine(Report* report) {
  report->Config("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report->Config("simd_isa", std::string(c2lsh::simd::IsaName(c2lsh::simd::ActiveIsa())));
#ifdef NDEBUG
  report->Config("build_type", std::string("optimized (NDEBUG)"));
#else
  report->Config("build_type", std::string("debug (assertions on)"));
#endif
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work DIR\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0.0) {
    return Usage("--work and a positive --seconds are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage("cannot create the work directory");

  Report report;
  RecordMachine(&report);
  report.Config("seed", static_cast<double>(args.seed));
  report.Config("seconds", args.seconds);
  report.Config("trace", args.trace ? 1.0 : 0.0);
  if (workload == "wire_cold_rw") {
    RunWireColdRw(args, &report);
  } else if (workload == "embed_batch") {
    RunEmbedBatch(args, &report);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  std::filesystem::remove_all(args.work_dir, ec);
  std::printf("%s\n", report.ToJson(workload).c_str());
  return 0;
}
