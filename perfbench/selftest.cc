// Self-tests of the harness arithmetic. perfbench/run.py runs this binary
// before every workload and refuses to report if it fails.

#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestNearestRank() {
  using perfbench::NearestRank;
  // 1..100: the p-th percentile of the integers 1..100 is p itself.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Check(NearestRank(v, 0.50) == 50, "p50 of 1..100 is 50");
  Check(NearestRank(v, 0.99) == 99, "p99 of 1..100 is 99");
  Check(NearestRank(v, 1.00) == 100, "p100 of 1..100 is 100");
  Check(NearestRank(v, 0.001) == 1, "p0.1 of 1..100 is 1");
  Check(NearestRank(v, 0.0) == 1, "p0 is the minimum");
  // Rank ceil(p * N): no interpolation between samples.
  Check(NearestRank({15, 20, 35, 40, 50}, 0.30) == 20, "p30 of 5 samples");
  Check(NearestRank({15, 20, 35, 40, 50}, 0.40) == 20, "p40 of 5 samples");
  Check(NearestRank({15, 20, 35, 40, 50}, 0.50) == 35, "p50 of 5 samples");
  Check(NearestRank({3, 1, 2}, 0.5) == 2, "unsorted input");
  Check(NearestRank({7}, 0.99) == 7, "single sample");
  Check(NearestRank({}, 0.5) == 0, "empty sample");
}

void TestPoissonSchedule() {
  using perfbench::PoissonSchedule;
  const std::vector<double> a = PoissonSchedule(200.0, 50.0, 42);
  const std::vector<double> b = PoissonSchedule(200.0, 50.0, 42);
  Check(a == b, "same seed, same schedule");
  Check(a != PoissonSchedule(200.0, 50.0, 43), "another seed, another schedule");
  // 10000 expected arrivals: the count's standard deviation is 100, so 5%
  // is five sigma.
  const double rate = static_cast<double>(a.size()) / 50.0;
  Check(std::fabs(rate - 200.0) < 10.0, "mean rate within 5% of 200/s");
  bool sorted = true, in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i] < a[i - 1]) sorted = false;
    if (a[i] < 0.0 || a[i] >= 50.0) in_range = false;
  }
  Check(sorted, "arrivals ascend");
  Check(in_range, "arrivals lie in [0, seconds)");
  // Exponential gaps: their mean is 1/rate and their coefficient of
  // variation is 1.
  double sum = 0.0, sum2 = 0.0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double g = a[i] - a[i - 1];
    sum += g;
    sum2 += g * g;
  }
  const double m = sum / static_cast<double>(a.size() - 1);
  const double cv = std::sqrt(sum2 / static_cast<double>(a.size() - 1) - m * m) / m;
  Check(std::fabs(m - 0.005) < 0.00025, "mean gap 5 ms");
  Check(std::fabs(cv - 1.0) < 0.05, "gap coefficient of variation 1");
  Check(PoissonSchedule(0.0, 10.0, 1).empty(), "zero rate, no arrivals");
}

void TestSelfTime() {
  using perfbench::Interval;
  using perfbench::SelfTime;
  // A 100-unit request span with a query child [10, 60), a WAL child
  // [50, 70) that overlaps it, and a child that spills past the parent.
  const Interval parent{0, 100};
  Check(SelfTime(parent, {}) == 100, "no children: self = duration");
  Check(SelfTime(parent, {{10, 60}}) == 50, "one child");
  Check(SelfTime(parent, {{10, 60}, {50, 70}}) == 40, "overlapping children count once");
  Check(SelfTime(parent, {{50, 70}, {10, 60}}) == 40, "child order does not matter");
  Check(SelfTime(parent, {{90, 130}}) == 90, "children are clipped to the parent");
  Check(SelfTime(parent, {{-20, 10}, {20, 30}, {25, 26}}) == 80,
        "clipped start, nested child");
  Check(SelfTime(parent, {{0, 100}, {40, 50}}) == 0, "fully covered");
  Check(SelfTime(parent, {{120, 130}}) == 100, "disjoint child ignored");
}

void TestZipf() {
  const std::vector<double> w = perfbench::ZipfWeights(4, 1.0);
  Check(w.size() == 4 && w[0] == 1.0 && std::fabs(w[3] - 0.25) < 1e-12, "zipf weights");
  c2lsh::Rng rng(7);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 20000; ++i) ++hits[perfbench::Pick(w, &rng)];
  // Tenant 0 gets 1 / (1 + 1/2 + 1/3 + 1/4) = 48% of the draws.
  Check(std::fabs(hits[0] / 20000.0 - 0.48) < 0.02, "zipf head share");
}

}  // namespace

int main() {
  TestNearestRank();
  TestPoissonSchedule();
  TestSelfTime();
  TestZipf();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
