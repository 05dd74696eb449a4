// The batch engine's determinism contract (src/core/batch.h): QueryBatch is
// bitwise-identical to a serial loop of Query() calls — results AND stats —
// for every batch_size / pool configuration (num_shards is ignored), in both
// index modes; and per-query contexts are honored without perturbing
// batchmates. Runs in the race lane (TSan) so the query-parallel lanes and
// concurrent callers are also checked for data races, and in the batch lane
// against both ISA dispatch modes.

#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/batch.h"
#include "src/core/disk_index.h"
#include "src/core/index.h"
#include "src/obs/registry.h"
#include "src/util/query_context.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace {

struct BatchWorld {
  Dataset data;
  FloatMatrix queries;
  C2lshIndex index;
};

BatchWorld MakeBatchWorld() {
  auto pd = MakeProfileDataset(DatasetProfile::kMnist, 3000, 32, 9);
  EXPECT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 21;
  auto index = C2lshIndex::Build(pd->data, o);
  EXPECT_TRUE(index.ok());
  return BatchWorld{std::move(pd->data), std::move(pd->queries),
                    std::move(index).value()};
}

void ExpectResultsBitwiseEqual(const std::vector<NeighborList>& got,
                               const std::vector<NeighborList>& want,
                               const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " q=" << q;
    for (size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, want[q][i].id) << label << " q=" << q << " i=" << i;
      // Bitwise: EXPECT_EQ on float, not near — the contract is exactness.
      EXPECT_EQ(got[q][i].dist, want[q][i].dist)
          << label << " q=" << q << " i=" << i;
    }
  }
}

void ExpectStatsEqual(const C2lshQueryStats& got, const C2lshQueryStats& want,
                      const std::string& label) {
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.final_radius, want.final_radius) << label;
  EXPECT_EQ(got.collision_increments, want.collision_increments) << label;
  EXPECT_EQ(got.candidates_verified, want.candidates_verified) << label;
  EXPECT_EQ(got.buckets_scanned, want.buckets_scanned) << label;
  EXPECT_EQ(got.index_pages, want.index_pages) << label;
  EXPECT_EQ(got.data_pages, want.data_pages) << label;
  EXPECT_EQ(got.termination, want.termination) << label;
}

TEST(BatchEngineTest, QueryBatchBitwiseEqualsSerialLoop) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 10;
  std::vector<NeighborList> serial;
  std::vector<C2lshQueryStats> serial_stats(w.queries.num_rows());
  for (size_t q = 0; q < w.queries.num_rows(); ++q) {
    auto r = w.index.Query(w.data, w.queries.row(q), k, &serial_stats[q]);
    ASSERT_TRUE(r.ok());
    serial.push_back(std::move(r).value());
  }
  std::vector<C2lshQueryStats> batch_stats;
  auto batch = w.index.QueryBatch(w.data, w.queries, k,
                                  C2lshIndex::BatchQueryOptions(), &batch_stats);
  ASSERT_TRUE(batch.ok());
  ExpectResultsBitwiseEqual(*batch, serial, "default-options");
  ASSERT_EQ(batch_stats.size(), serial_stats.size());
  for (size_t q = 0; q < serial_stats.size(); ++q) {
    ExpectStatsEqual(batch_stats[q], serial_stats[q],
                     "default-options q=" + std::to_string(q));
  }
}

TEST(BatchEngineTest, InvariantUnderShardCountBatchSizeAndPool) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 7;
  std::vector<NeighborList> serial;
  std::vector<C2lshQueryStats> serial_stats(w.queries.num_rows());
  for (size_t q = 0; q < w.queries.num_rows(); ++q) {
    auto r = w.index.Query(w.data, w.queries.row(q), k, &serial_stats[q]);
    ASSERT_TRUE(r.ok());
    serial.push_back(std::move(r).value());
  }
  ThreadPool narrow_pool(2);
  for (size_t num_shards : {1u, 2u, 7u}) {
    for (size_t batch_size : {0u, 1u, 4u}) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &narrow_pool}) {
        C2lshIndex::BatchQueryOptions opts;
        opts.num_shards = num_shards;
        opts.batch_size = batch_size;
        opts.pool = pool;
        const std::string label = "shards=" + std::to_string(num_shards) +
                                  " block=" + std::to_string(batch_size) +
                                  (pool != nullptr ? " pool=2" : " pool=shared");
        std::vector<C2lshQueryStats> stats;
        auto batch = w.index.QueryBatch(w.data, w.queries, k, opts, &stats);
        ASSERT_TRUE(batch.ok()) << label;
        ExpectResultsBitwiseEqual(*batch, serial, label);
        for (size_t q = 0; q < serial_stats.size(); ++q) {
          ExpectStatsEqual(stats[q], serial_stats[q],
                           label + " q=" + std::to_string(q));
        }
      }
    }
  }
}

TEST(BatchEngineTest, MixedContextsDoNotPerturbBatchmates) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 5;
  const size_t nq = w.queries.num_rows();
  ASSERT_GE(nq, 6u);

  // Deterministic context states: a pre-cancelled token and a pre-expired
  // deadline stop their queries at the first round boundary (zero rounds,
  // empty results) in both the serial and the batched engine; everyone else
  // runs unbounded.
  CancellationToken cancelled_token;
  cancelled_token.Cancel();
  QueryContext cancelled_ctx;
  cancelled_ctx.cancel = &cancelled_token;
  QueryContext expired_ctx;
  expired_ctx.deadline = Deadline::AfterMicros(-1);

  C2lshIndex::BatchQueryOptions opts;
  opts.num_shards = 2;
  opts.contexts.assign(nq, nullptr);
  opts.contexts[2] = &cancelled_ctx;
  opts.contexts[5] = &expired_ctx;

  std::vector<C2lshQueryStats> batch_stats;
  auto batch = w.index.QueryBatch(w.data, w.queries, k, opts, &batch_stats);
  ASSERT_TRUE(batch.ok());

  for (size_t q = 0; q < nq; ++q) {
    C2lshQueryStats serial_stats;
    auto serial = w.index.Query(w.data, w.queries.row(q), k, &serial_stats,
                                /*trace=*/nullptr, opts.contexts[q]);
    ASSERT_TRUE(serial.ok());
    if (q == 2 || q == 5) {
      EXPECT_TRUE((*batch)[q].empty()) << "q=" << q;
      EXPECT_EQ(batch_stats[q].rounds, 0u) << "q=" << q;
      EXPECT_EQ(batch_stats[q].termination,
                q == 2 ? Termination::kCancelled : Termination::kDeadline);
    }
    // The expired queries must match their serial counterparts too, and the
    // unbounded batchmates must be bit-identical to serial no-ctx runs —
    // an expiring neighbor leaves no trace on them.
    ASSERT_EQ((*batch)[q].size(), serial->size()) << "q=" << q;
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*batch)[q][i].id, (*serial)[i].id) << "q=" << q;
      EXPECT_EQ((*batch)[q][i].dist, (*serial)[i].dist) << "q=" << q;
    }
    ExpectStatsEqual(batch_stats[q], serial_stats, "ctx q=" + std::to_string(q));
  }
}

TEST(BatchEngineTest, PageBudgetStopsAtRoundBoundaryDeterministically) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 5;
  // The page budget is only evaluated at round boundaries on order-
  // independent page totals, so even this mid-flight-looking control is
  // bitwise-reproducible between serial and batched execution.
  QueryContext budget_ctx;
  budget_ctx.io_page_budget = w.index.num_tables() + 1;

  const size_t nq = w.queries.num_rows();
  C2lshIndex::BatchQueryOptions opts;
  opts.num_shards = 7;
  opts.contexts.assign(nq, &budget_ctx);
  std::vector<C2lshQueryStats> batch_stats;
  auto batch = w.index.QueryBatch(w.data, w.queries, k, opts, &batch_stats);
  ASSERT_TRUE(batch.ok());
  for (size_t q = 0; q < nq; ++q) {
    C2lshQueryStats serial_stats;
    auto serial = w.index.Query(w.data, w.queries.row(q), k, &serial_stats,
                                /*trace=*/nullptr, &budget_ctx);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ((*batch)[q].size(), serial->size()) << "q=" << q;
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*batch)[q][i].id, (*serial)[i].id) << "q=" << q;
      EXPECT_EQ((*batch)[q][i].dist, (*serial)[i].dist) << "q=" << q;
    }
    ExpectStatsEqual(batch_stats[q], serial_stats, "budget q=" + std::to_string(q));
  }
}

TEST(BatchEngineTest, ValidationMatchesSerialContract) {
  BatchWorld w = MakeBatchWorld();
  EXPECT_TRUE(w.index.QueryBatch(w.data, w.queries, 0).status().IsInvalidArgument());
  auto wrong = FloatMatrix::Create(3, w.data.dim() + 1);
  ASSERT_TRUE(wrong.ok());
  EXPECT_TRUE(
      w.index.QueryBatch(w.data, wrong.value(), 5).status().IsInvalidArgument());
  C2lshIndex::BatchQueryOptions opts;
  opts.contexts.assign(2, nullptr);  // wrong length
  EXPECT_TRUE(
      w.index.QueryBatch(w.data, w.queries, 5, opts).status().IsInvalidArgument());
}

uint64_t CounterOrZero(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::Global().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

TEST(BatchEngineTest, EachBatchedQueryFlushesExactlyOnce) {
  BatchWorld w = MakeBatchWorld();
  const size_t nq = w.queries.num_rows();
  ThreadPool pool(2);
  C2lshIndex::BatchQueryOptions opts;
  opts.batch_size = 5;  // several blocks, the last one partial
  opts.pool = &pool;
  const uint64_t queries_before = CounterOrZero("c2lsh_queries_total");
  const uint64_t batch_before = CounterOrZero("c2lsh_batch_queries_total");
  const uint64_t blocks_before = CounterOrZero("c2lsh_batch_blocks_total");
  auto batch = w.index.QueryBatch(w.data, w.queries, 10, opts);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(CounterOrZero("c2lsh_queries_total") - queries_before, nq);
  EXPECT_EQ(CounterOrZero("c2lsh_batch_queries_total") - batch_before, nq);
  EXPECT_EQ(CounterOrZero("c2lsh_batch_blocks_total") - blocks_before,
            (nq + opts.batch_size - 1) / opts.batch_size);
}

TEST(BatchEngineTest, ConcurrentCallersOnTheSharedPoolMatchSerialLoop) {
  BatchWorld w = MakeBatchWorld();
  const size_t k = 6;
  const size_t nq = w.queries.num_rows();
  std::vector<NeighborList> serial;
  std::vector<C2lshQueryStats> serial_stats(nq);
  for (size_t q = 0; q < nq; ++q) {
    auto r = w.index.Query(w.data, w.queries.row(q), k, &serial_stats[q]);
    ASSERT_TRUE(r.ok());
    serial.push_back(std::move(r).value());
  }
  // Two callers share ThreadPool::Shared() (the default pool) and the
  // index; each keeps its own options and output slots.
  constexpr size_t kCallers = 2;
  std::vector<std::vector<NeighborList>> got(kCallers);
  std::vector<std::vector<C2lshQueryStats>> got_stats(kCallers);
  bool ok[kCallers] = {false, false};  // not vector<bool>: its bits share words
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      C2lshIndex::BatchQueryOptions opts;
      opts.batch_size = t == 0 ? 0 : 7;
      auto r = w.index.QueryBatch(w.data, w.queries, k, opts, &got_stats[t]);
      ok[t] = r.ok();
      if (r.ok()) got[t] = std::move(r).value();
    });
  }
  for (std::thread& th : callers) th.join();
  for (size_t t = 0; t < kCallers; ++t) {
    const std::string label = "caller=" + std::to_string(t);
    ASSERT_TRUE(ok[t]) << label;
    ExpectResultsBitwiseEqual(got[t], serial, label);
    ASSERT_EQ(got_stats[t].size(), nq) << label;
    for (size_t q = 0; q < nq; ++q) {
      ExpectStatsEqual(got_stats[t][q], serial_stats[q], label + " q=" + std::to_string(q));
    }
  }
}

class DiskBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_batch_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(DiskBatchTest, DiskQueryBatchMatchesSerialDiskQueries) {
  auto pd = MakeProfileDataset(DatasetProfile::kMnist, 2000, 24, 7);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 33;
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("batch.pf"), 512);
  ASSERT_TRUE(disk.ok());
  const size_t k = 8;

  // Stored-vector mode. The serial loop runs first and the pool is warm in
  // both runs' steady state, but measured pool I/O depends on cache history,
  // so only results (and the algorithmic stats) are compared, per query.
  std::vector<NeighborList> serial;
  std::vector<DiskQueryStats> serial_stats(pd->queries.num_rows());
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    auto r = disk->Query(pd->queries.row(q), k, &serial_stats[q]);
    ASSERT_TRUE(r.ok());
    serial.push_back(std::move(r).value());
  }
  std::vector<DiskQueryStats> batch_stats;
  auto batch = disk->QueryBatch(pd->queries, k, &batch_stats);
  ASSERT_TRUE(batch.ok());
  ExpectResultsBitwiseEqual(*batch, serial, "disk-stored");
  for (size_t q = 0; q < serial_stats.size(); ++q) {
    EXPECT_EQ(batch_stats[q].base.rounds, serial_stats[q].base.rounds) << q;
    EXPECT_EQ(batch_stats[q].base.final_radius, serial_stats[q].base.final_radius)
        << q;
    EXPECT_EQ(batch_stats[q].base.collision_increments,
              serial_stats[q].base.collision_increments)
        << q;
    EXPECT_EQ(batch_stats[q].base.candidates_verified,
              serial_stats[q].base.candidates_verified)
        << q;
    EXPECT_EQ(batch_stats[q].base.termination, serial_stats[q].base.termination)
        << q;
  }

  // Caller-dataset mode, with one pre-cancelled batchmate.
  CancellationToken cancelled_token;
  cancelled_token.Cancel();
  QueryContext cancelled_ctx;
  cancelled_ctx.cancel = &cancelled_token;
  std::vector<const QueryContext*> contexts(pd->queries.num_rows(), nullptr);
  contexts[1] = &cancelled_ctx;
  auto batch2 = disk->QueryBatch(pd->data, pd->queries, k, nullptr, contexts);
  ASSERT_TRUE(batch2.ok());
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    if (q == 1) {
      EXPECT_TRUE((*batch2)[q].empty());
      continue;
    }
    auto r = disk->Query(pd->data, pd->queries.row(q), k);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ((*batch2)[q].size(), r->size()) << "q=" << q;
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*batch2)[q][i].id, (*r)[i].id) << "q=" << q;
      EXPECT_EQ((*batch2)[q][i].dist, (*r)[i].dist) << "q=" << q;
    }
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 3u, 7u, 1000u}) {
    std::vector<int> hits(n, 0);
    pool.ParallelFor(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i], 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, SequentialBackToBackLoopsReuseWorkers) {
  ThreadPool pool(3);
  // The pool clamps to hardware concurrency, so the exact thread count
  // depends on the machine; ParallelFor below must be correct at any width.
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_LE(pool.num_threads(), 3u);
  std::vector<size_t> sums(3, 0);
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(sums.size(), [&](size_t i) { sums[i] += i + 1; });
  }
  EXPECT_EQ(sums[0], 50u);
  EXPECT_EQ(sums[1], 100u);
  EXPECT_EQ(sums[2], 150u);
}

TEST(ThreadPoolTest, SharedPoolIsClampedToHardwareConcurrency) {
  ThreadPool& shared = ThreadPool::Shared();
  EXPECT_GE(shared.num_threads(), 1u);
  // Oversubscription requests clamp instead of spawning unboundedly.
  ThreadPool big(1u << 20);
  EXPECT_LE(big.num_threads(), std::max<size_t>(1, shared.num_threads()));
  std::vector<int> hits(17, 0);
  big.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace c2lsh
