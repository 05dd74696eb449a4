// Concurrency tests: QueryBatch and Searcher-based parallel queries must
// match the serial answers exactly (the index is immutable during queries;
// only scratch is per-thread).

#include <thread>

#include <gtest/gtest.h>

#include "src/core/index.h"
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

TEST(BatchQueryTest, MatchesSerialQueries) {
  BatchWorld w = MakeBatchWorld();
  std::vector<NeighborList> serial;
  for (size_t q = 0; q < w.queries.num_rows(); ++q) {
    auto r = w.index.Query(w.data, w.queries.row(q), 10);
    ASSERT_TRUE(r.ok());
    serial.push_back(std::move(r).value());
  }
  ThreadPool pool(4);
  C2lshIndex::BatchQueryOptions opts;
  opts.pool = &pool;
  auto batch = w.index.QueryBatch(w.data, w.queries, 10, opts);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), serial.size());
  for (size_t q = 0; q < serial.size(); ++q) {
    ASSERT_EQ((*batch)[q].size(), serial[q].size()) << "q=" << q;
    for (size_t i = 0; i < serial[q].size(); ++i) {
      EXPECT_EQ((*batch)[q][i].id, serial[q][i].id) << "q=" << q << " i=" << i;
      EXPECT_EQ((*batch)[q][i].dist, serial[q][i].dist);
    }
  }
}

TEST(BatchQueryTest, SingleThreadPath) {
  BatchWorld w = MakeBatchWorld();
  ThreadPool pool(1);
  C2lshIndex::BatchQueryOptions opts;
  opts.pool = &pool;
  auto batch = w.index.QueryBatch(w.data, w.queries, 5, opts);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), w.queries.num_rows());
}

TEST(BatchQueryTest, DimMismatchRejected) {
  BatchWorld w = MakeBatchWorld();
  auto wrong = FloatMatrix::Create(3, w.data.dim() + 1);
  ASSERT_TRUE(wrong.ok());
  EXPECT_TRUE(w.index.QueryBatch(w.data, wrong.value(), 5).status().IsInvalidArgument());
}

TEST(BatchQueryTest, PropagatesQueryErrors) {
  BatchWorld w = MakeBatchWorld();
  EXPECT_TRUE(w.index.QueryBatch(w.data, w.queries, 0).status().IsInvalidArgument());
}

TEST(BatchQueryTest, ManualSearchersRunConcurrently) {
  BatchWorld w = MakeBatchWorld();
  // Reference answers.
  std::vector<NeighborList> expected;
  for (size_t q = 0; q < 8; ++q) {
    auto r = w.index.Query(w.data, w.queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(r).value());
  }
  // 8 threads, each hammering its own query repeatedly through its own
  // Searcher. Any cross-thread scratch corruption shows up as a mismatch.
  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      C2lshIndex::Searcher searcher(&w.index);
      for (int rep = 0; rep < 20; ++rep) {
        auto r = searcher.Query(w.data, w.queries.row(t), 5);
        if (!r.ok() || r->size() != expected[t].size()) {
          ++failures[t];
          continue;
        }
        for (size_t i = 0; i < r->size(); ++i) {
          if ((*r)[i].id != expected[t][i].id) ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace c2lsh
