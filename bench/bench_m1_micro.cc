// M1 — google-benchmark micro-benchmarks of the hot paths: p-stable
// hashing, distance kernels, bucket-range probing (the virtual-rehashing
// primitive), collision counting, and end-to-end queries. Also measures the
// sorted-directory layout against a hash-map bucket store (DESIGN.md
// design-choice #3).

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "src/core/index.h"
#include "src/lsh/pstable.h"
#include "src/storage/bucket_table.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/vector/distance.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace {

void BM_SquaredL2(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a, b;
  rng.GaussianVector(d, &a);
  rng.GaussianVector(d, &b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SquaredL2)->Arg(32)->Arg(128)->Arg(512);

void BM_PStableHash(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(2);
  PStableHash h = PStableHash::Sample(d, 1.0, &rng);
  std::vector<float> v;
  rng.GaussianVector(d, &v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Bucket(v.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PStableHash)->Arg(32)->Arg(128)->Arg(512);

void BM_HashAllFunctions(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  auto fam = PStableFamily::Sample(m, 128, 1.0, 3);
  if (!fam.ok()) {
    state.SkipWithError("family sample failed");
    return;
  }
  Rng rng(4);
  std::vector<float> v;
  rng.GaussianVector(128, &v);
  std::vector<BucketId> out;
  for (auto _ : state) {
    fam->BucketAll(v.data(), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_HashAllFunctions)->Arg(64)->Arg(256);

BucketTable MakeRandomTable(size_t n, int64_t bucket_span, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<BucketId, ObjectId>> pairs;
  pairs.reserve(n);
  for (ObjectId i = 0; i < n; ++i) {
    pairs.emplace_back(rng.UniformInt(-bucket_span, bucket_span), i);
  }
  return BucketTable::Build(std::move(pairs));
}

void BM_BucketRangeProbe(benchmark::State& state) {
  const size_t n = 100000;
  const int64_t span = 5000;
  BucketTable table = MakeRandomTable(n, span, 5);
  Rng rng(6);
  const long long R = state.range(0);
  size_t sink = 0;
  for (auto _ : state) {
    const BucketId q = rng.UniformInt(-span, span);
    const BucketId lo = FloorDiv(q, R) * R;
    table.ForEachInRange(lo, lo + R - 1, [&](ObjectId id) { sink += id; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketRangeProbe)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

// Design-choice #3: the same range probe against an unordered_map bucket
// store must touch R separate cells — the layout C2LSH avoids.
void BM_HashMapRangeProbe(benchmark::State& state) {
  const size_t n = 100000;
  const int64_t span = 5000;
  Rng rng(7);
  std::unordered_map<BucketId, std::vector<ObjectId>> map;
  for (ObjectId i = 0; i < n; ++i) {
    map[rng.UniformInt(-span, span)].push_back(i);
  }
  const long long R = state.range(0);
  size_t sink = 0;
  for (auto _ : state) {
    const BucketId q = rng.UniformInt(-span, span);
    const BucketId lo = FloorDiv(q, R) * R;
    for (BucketId b = lo; b < lo + R; ++b) {
      auto it = map.find(b);
      if (it == map.end()) continue;
      for (ObjectId id : it->second) sink += id;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashMapRangeProbe)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_C2lshQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto pd = MakeProfileDataset(DatasetProfile::kMnist, n, 32, 11);
  if (!pd.ok()) {
    state.SkipWithError("dataset");
    return;
  }
  C2lshOptions o;
  o.seed = 12;
  auto index = C2lshIndex::Build(pd->data, o);
  if (!index.ok()) {
    state.SkipWithError("build");
    return;
  }
  size_t q = 0;
  for (auto _ : state) {
    auto r = index->Query(pd->data, pd->queries.row(q % 32), 10);
    benchmark::DoNotOptimize(r);
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_C2lshQuery)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_BatchQueryThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  // Function-local statics: built once, shared across the thread-count args.
  static ProfileData& pd = *[] {
    auto r = MakeProfileDataset(DatasetProfile::kMnist, 10000, 64, 15);
    static ProfileData d = std::move(r).value();
    return &d;
  }();
  static C2lshIndex& index = *[] {
    C2lshOptions o;
    o.seed = 16;
    auto r = C2lshIndex::Build(pd.data, o);
    static C2lshIndex idx = std::move(r).value();
    return &idx;
  }();
  ThreadPool pool(threads);
  C2lshIndex::BatchQueryOptions opts;
  opts.pool = &pool;
  for (auto _ : state) {
    auto r = index.QueryBatch(pd.data, pd.queries, 10, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BatchQueryThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_C2lshBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto pd = MakeProfileDataset(DatasetProfile::kColor, n, 1, 13);
  if (!pd.ok()) {
    state.SkipWithError("dataset");
    return;
  }
  C2lshOptions o;
  o.seed = 14;
  for (auto _ : state) {
    auto index = C2lshIndex::Build(pd->data, o);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_C2lshBuild)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace c2lsh

BENCHMARK_MAIN();
