// Concurrent stress suite for the TSan race lane (`ctest -L race`, built
// with -DC2LSH_SANITIZE=thread). Three contracts are hammered:
//
//   1. C2lshIndex::Build's parallel table construction is disjoint by
//      construction — the multi-threaded build must equal the serial one
//      bit-for-bit in query behavior, with zero TSan reports.
//   2. Read-only queries through per-thread Searchers share one index with
//      no mutable shared state.
//   3. The mutex-guarded BufferPool survives a multi-threaded
//      fetch/pin/writeback hammer with every byte intact.
//
// Every test also runs (fast) in the default lane: the assertions are
// deterministic; TSan adds the race detection on top.

#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/index.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/page_file.h"
#include "src/util/mutex.h"
#include "src/util/thread_pool.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace {

C2lshOptions SmallOptions() {
  C2lshOptions o;
  o.w = 1.0;
  o.c = 2.0;
  o.delta = 0.1;
  o.seed = 7;
  return o;
}

void ExpectSameNeighbors(const NeighborList& a, const NeighborList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].dist, b[i].dist);
  }
}

TEST(RaceStressTest, ParallelBuildMatchesSerialReference) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 1200, 8, 11);
  ASSERT_TRUE(pd.ok());

  auto serial = C2lshIndex::Build(pd->data, SmallOptions(), /*num_threads=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = C2lshIndex::Build(pd->data, SmallOptions(), /*num_threads=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial->num_tables(), parallel->num_tables());
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    auto rs = serial->Query(pd->data, pd->queries.row(q), 10);
    auto rp = parallel->Query(pd->data, pd->queries.row(q), 10);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rp.ok());
    ExpectSameNeighbors(*rs, *rp);
  }
}

TEST(RaceStressTest, ConcurrentReadOnlyQueriesAgreeWithSerial) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 3;  // each thread re-runs all queries
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 1500, 10, 23);
  ASSERT_TRUE(pd.ok());
  auto index = C2lshIndex::Build(pd->data, SmallOptions());
  ASSERT_TRUE(index.ok());

  // Serial reference answers first.
  const size_t nq = pd->queries.num_rows();
  std::vector<NeighborList> expected(nq);
  for (size_t q = 0; q < nq; ++q) {
    auto r = index->Query(pd->data, pd->queries.row(q), 10);
    ASSERT_TRUE(r.ok());
    expected[q] = std::move(r).value();
  }

  // N threads share the index read-only; each owns a Searcher (private
  // collision-count scratch) and writes only its own results slot.
  std::vector<std::vector<NeighborList>> results(
      kThreads, std::vector<NeighborList>(nq * kRounds));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      C2lshIndex::Searcher searcher(&index.value());
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < nq; ++q) {
          auto r = searcher.Query(pd->data, pd->queries.row(q), 10);
          ASSERT_TRUE(r.ok());
          results[t][round * nq + q] = std::move(r).value();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t q = 0; q < nq; ++q) {
        ExpectSameNeighbors(results[t][round * nq + q], expected[q]);
      }
    }
  }
}

TEST(RaceStressTest, BatchQueryMatchesSerial) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 1000, 12, 31);
  ASSERT_TRUE(pd.ok());
  auto index = C2lshIndex::Build(pd->data, SmallOptions());
  ASSERT_TRUE(index.ok());

  ThreadPool pool(4);
  C2lshIndex::BatchQueryOptions opts;
  opts.pool = &pool;
  auto batch = index->QueryBatch(pd->data, pd->queries, 8, opts);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), pd->queries.num_rows());
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    auto r = index->Query(pd->data, pd->queries.row(q), 8);
    ASSERT_TRUE(r.ok());
    ExpectSameNeighbors((*batch)[q], *r);
  }
}

class BufferPoolHammerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_race_bp_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    auto f = PageFile::Create((dir_ / "hammer.pf").string(), 256);
    ASSERT_TRUE(f.ok());
    file_ = std::make_unique<PageFile>(std::move(f).value());
  }
  void TearDown() override {
    file_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<PageFile> file_;
};

// Deterministic page content so any thread can verify any page.
void FillPattern(uint8_t* data, size_t n, PageId id) {
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>((id * 131 + i * 7) & 0xFF);
  }
}

void ExpectPattern(const uint8_t* data, size_t n, PageId id) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(data[i], static_cast<uint8_t>((id * 131 + i * 7) & 0xFF))
        << "page " << id << " byte " << i;
  }
}

// The hammer: T threads share a pool far smaller than the working set, so
// fetches constantly evict and write back dirty frames created by *other*
// threads. Per the pool's contract, page *bytes* are only written by their
// owning thread (a pin plus external ownership); all metadata — frame table,
// LRU, pins, dirty bits, stats, the PageFile underneath — is pounded from
// every thread at once.
TEST_F(BufferPoolHammerTest, ConcurrentFetchPinWriteback) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPagesPerThread = 24;
  constexpr size_t kRounds = 12;

  auto pool = BufferPool::Create(file_.get(), /*capacity_pages=*/6);
  ASSERT_TRUE(pool.ok());
  const size_t page_bytes = pool->page_bytes();

  std::vector<std::vector<PageId>> owned(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Create this thread's pages (allocation contends on pool + file).
      for (size_t i = 0; i < kPagesPerThread; ++i) {
        PageId id = 0;
        auto page = pool->NewPage(&id);
        ASSERT_TRUE(page.ok()) << page.status().ToString();
        FillPattern(page->mutable_data(), page_bytes, id);
        owned[t].push_back(id);
      }
      // Re-fetch own pages in shifting order: hits, misses, evictions and
      // writebacks of everyone's frames interleave across threads.
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < owned[t].size(); ++i) {
          const PageId id = owned[t][(i + round) % owned[t].size()];
          auto page = pool->Fetch(id);
          ASSERT_TRUE(page.ok()) << page.status().ToString();
          ExpectPattern(page->data(), page_bytes, id);
          if ((round + i) % 3 == 0) {
            // Rewrite the same pattern: keeps the page dirty so eviction
            // writeback stays hot without changing the expected bytes.
            FillPattern(page->mutable_data(), page_bytes, id);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Quiesce, then verify every byte of every page from this thread.
  ASSERT_TRUE(pool->FlushAll().ok());
  for (size_t t = 0; t < kThreads; ++t) {
    for (const PageId id : owned[t]) {
      auto page = pool->Fetch(id);
      ASSERT_TRUE(page.ok());
      ExpectPattern(page->data(), page_bytes, id);
    }
  }
  const BufferPoolStats stats = pool->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.writebacks, 0u);
  EXPECT_EQ(file_->num_pages(), kThreads * kPagesPerThread);
}

// Many threads fetching one hot page read-only: pin counts and LRU state
// contend on the hottest possible path.
TEST_F(BufferPoolHammerTest, SharedHotPageReadOnly) {
  auto pool = BufferPool::Create(file_.get(), 4);
  ASSERT_TRUE(pool.ok());
  PageId hot = 0;
  {
    auto page = pool->NewPage(&hot);
    ASSERT_TRUE(page.ok());
    FillPattern(page->mutable_data(), pool->page_bytes(), hot);
  }
  ASSERT_TRUE(pool->FlushAll().ok());

  constexpr size_t kThreads = 8;
  constexpr size_t kFetches = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (size_t i = 0; i < kFetches; ++i) {
        auto page = pool->Fetch(hot);
        ASSERT_TRUE(page.ok());
        ASSERT_EQ(page->data()[0], static_cast<uint8_t>((hot * 131) & 0xFF));
      }
    });
  }
  for (auto& th : threads) th.join();
  const BufferPoolStats stats = pool->stats();
  EXPECT_GE(stats.hits, kThreads * kFetches - 1);
}

}  // namespace
}  // namespace c2lsh
