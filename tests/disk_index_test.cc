#include "src/core/disk_index.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "src/storage/disk_bucket_table.h"
#include "src/util/random.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace {

class DiskIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_disk_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(DiskIndexTest, DiskBucketTableMatchesMemoryTable) {
  auto file = PageFile::Create(Path("tbl.pf"), 4096);
  ASSERT_TRUE(file.ok());
  auto pool = BufferPool::Create(&file.value(), 64);
  ASSERT_TRUE(pool.ok());

  Rng rng(3);
  std::vector<std::pair<BucketId, ObjectId>> pairs;
  for (ObjectId i = 0; i < 5000; ++i) {
    pairs.emplace_back(rng.UniformInt(-200, 200), i);
  }
  BucketTable mem = BucketTable::Build(pairs);
  auto disk = DiskBucketTable::Build(&pool.value(), pairs);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(disk->num_entries(), mem.num_entries());
  EXPECT_EQ(disk->num_buckets(), mem.num_buckets());

  // One cursor across all trials: its slot keeps whatever page an earlier
  // range left there, so cached pages also serve unrelated ranges.
  ScanCursor cursor;
  cursor.Reset(1, 4096);
  for (int trial = 0; trial < 100; ++trial) {
    BucketId a = rng.UniformInt(-250, 250);
    BucketId b = a + rng.UniformInt(0, 100);
    std::vector<ObjectId> mem_ids, disk_ids;
    mem.ForEachInRange(a, b, [&](ObjectId id) { mem_ids.push_back(id); });
    auto visited = disk->ForEachInRange(
        a, b, [&](ObjectId id) { disk_ids.push_back(id); }, cursor, 0);
    ASSERT_TRUE(visited.ok());
    std::sort(mem_ids.begin(), mem_ids.end());
    std::sort(disk_ids.begin(), disk_ids.end());
    EXPECT_EQ(disk_ids, mem_ids) << "range [" << a << "," << b << "]";
    EXPECT_EQ(disk->EntriesInRange(a, b), mem.EntriesInRange(a, b));
  }
}

TEST_F(DiskIndexTest, DiskBucketTableSurvivesReload) {
  auto file = PageFile::Create(Path("tbl2.pf"), 512);
  ASSERT_TRUE(file.ok());
  auto pool = BufferPool::Create(&file.value(), 16);
  ASSERT_TRUE(pool.ok());

  std::vector<std::pair<BucketId, ObjectId>> pairs;
  for (ObjectId i = 0; i < 1000; ++i) pairs.emplace_back(i % 37, i);
  auto disk = DiskBucketTable::Build(&pool.value(), pairs);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(pool->FlushAll().ok());

  auto loaded = DiskBucketTable::Load(&pool.value(), disk->root());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_entries(), 1000u);
  size_t count = 0;
  ScanCursor cursor;
  cursor.Reset(1, 512);
  auto visited = loaded->ForEachInRange(0, 36, [&](ObjectId) { ++count; }, cursor, 0);
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(count, 1000u);
}

TEST_F(DiskIndexTest, DiskIndexMatchesMemoryIndexExactly) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 2000, 12, 7);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 13;

  auto mem = C2lshIndex::Build(pd->data, o);
  ASSERT_TRUE(mem.ok());
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("idx.pf"), 512);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  for (size_t q = 0; q < 12; ++q) {
    auto rm = mem->Query(pd->data, pd->queries.row(q), 10);
    auto rd = disk->Query(pd->data, pd->queries.row(q), 10);
    ASSERT_TRUE(rm.ok() && rd.ok());
    ASSERT_EQ(rd->size(), rm->size()) << "q=" << q;
    for (size_t i = 0; i < rm->size(); ++i) {
      EXPECT_EQ((*rd)[i].id, (*rm)[i].id) << "q=" << q << " i=" << i;
      EXPECT_EQ((*rd)[i].dist, (*rm)[i].dist);
    }
  }
}

// Under virtual rehashing a round's interval contains the previous round's,
// so the scan cursor keeps each table's highest entry page read so far and
// the next round does not fetch it again. With a pool far smaller than the index
// (8 frames), every entry page a query reads costs a miss unless the cursor
// serves it: a query's index misses stay within the entry pages the tables
// hold, however many rounds it runs.
TEST_F(DiskIndexTest, ColdQueryReadsEachEntryPageAtMostOnce) {
  constexpr size_t kN = 1500;
  auto pd = MakeProfileDataset(DatasetProfile::kColor, kN, 8, 23);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 29;
  o.page_bytes = 4096;
  auto mem = C2lshIndex::Build(pd->data, o);
  ASSERT_TRUE(mem.ok());
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("once.pf"), /*pool_pages=*/8);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_EQ(disk->OverlayEntries(), 0u);

  // 6000-byte runs: every table spans two 4096-byte entry pages.
  const uint64_t pages_per_table =
      (kN * sizeof(ObjectId) + o.page_bytes - 1) / o.page_bytes;
  ASSERT_GE(pages_per_table, 2u);
  const uint64_t entry_page_bound = disk->num_tables() * pages_per_table;
  // 32-d vectors pack 32 to a page, so each candidate reads one data page.
  ASSERT_EQ(o.page_bytes % (pd->data.dim() * sizeof(float)), 0u);
  const uint64_t pages_per_vector = 1;

  uint64_t multi_round_queries = 0;
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    auto rm = mem->Query(pd->data, pd->queries.row(q), 10);
    DiskQueryStats stats;
    auto rd = disk->Query(pd->queries.row(q), 10, &stats);
    ASSERT_TRUE(rm.ok() && rd.ok());
    if (stats.base.rounds > 1) ++multi_round_queries;
    EXPECT_LE(stats.base.index_pages, entry_page_bound);
    EXPECT_LE(stats.pool_misses,
              entry_page_bound + stats.base.candidates_verified * pages_per_vector);
    EXPECT_EQ(disk->PinnedPoolFrames(), 0u);
    ASSERT_EQ(rd->size(), rm->size());
    for (size_t i = 0; i < rm->size(); ++i) {
      EXPECT_EQ((*rd)[i].id, (*rm)[i].id) << "i=" << i;
      EXPECT_EQ((*rd)[i].dist, (*rm)[i].dist) << "i=" << i;
    }
  }
  // The bound only means something when rounds re-probe the same tables.
  EXPECT_GT(multi_round_queries, 0u);
}

TEST_F(DiskIndexTest, ReopenedIndexMatches) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 1000, 6, 9);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 17;
  const std::string path = Path("reopen.pf");

  std::vector<NeighborList> before;
  {
    auto disk = DiskC2lshIndex::Build(pd->data, o, path, 256);
    ASSERT_TRUE(disk.ok());
    for (size_t q = 0; q < 6; ++q) {
      auto r = disk->Query(pd->data, pd->queries.row(q), 5);
      ASSERT_TRUE(r.ok());
      before.push_back(std::move(r).value());
    }
  }
  auto disk = DiskC2lshIndex::Open(path, 256);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ(disk->num_objects(), 1000u);
  for (size_t q = 0; q < 6; ++q) {
    auto r = disk->Query(pd->data, pd->queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), before[q].size());
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*r)[i].id, before[q][i].id);
    }
  }
}

TEST_F(DiskIndexTest, PoolStatsMeasureIo) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 2000, 4, 11);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 19;
  // Build, then REOPEN so the pool is genuinely cold (building leaves pages
  // resident). The pool is sized above the per-query working set so the
  // repeat pass can hit (an LRU pool smaller than the working set correctly
  // thrashes to zero hits — SmallerPoolMoreMisses covers that regime).
  {
    auto built = DiskC2lshIndex::Build(pd->data, o, Path("io.pf"), 8192);
    ASSERT_TRUE(built.ok());
  }
  auto disk = DiskC2lshIndex::Open(Path("io.pf"), 8192);
  ASSERT_TRUE(disk.ok());

  DiskQueryStats stats;
  auto r = disk->Query(pd->data, pd->queries.row(0), 10, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.pool_misses, 0u);  // cold pool: everything is a miss
  EXPECT_EQ(stats.base.index_pages, stats.pool_misses);
  EXPECT_GT(stats.base.candidates_verified, 0u);

  // A repeated identical query on a warm pool must hit much more.
  DiskQueryStats warm;
  auto r2 = disk->Query(pd->data, pd->queries.row(0), 10, &warm);
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(warm.pool_misses, stats.pool_misses / 2 + 1);
  EXPECT_GT(warm.pool_hits, 0u);
}

TEST_F(DiskIndexTest, SmallerPoolMoreMisses) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 2000, 8, 23);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 29;

  auto run = [&](size_t pool_pages) -> uint64_t {
    auto disk = DiskC2lshIndex::Build(pd->data, o, Path("pool_sweep.pf"), pool_pages);
    EXPECT_TRUE(disk.ok());
    disk->ResetPoolStats();
    uint64_t misses = 0;
    for (size_t q = 0; q < 8; ++q) {
      DiskQueryStats stats;
      auto r = disk->Query(pd->data, pd->queries.row(q), 10, &stats);
      EXPECT_TRUE(r.ok());
      misses += stats.pool_misses;
    }
    return misses;
  };

  const uint64_t small_pool = run(64);
  const uint64_t big_pool = run(4096);
  EXPECT_GE(small_pool, big_pool);
}

TEST_F(DiskIndexTest, SelfContainedQueryMatchesDatasetQuery) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 1500, 8, 41);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 43;
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("selfc.pf"), 4096,
                                    /*store_vectors=*/true);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(disk->has_stored_vectors());
  for (size_t q = 0; q < 8; ++q) {
    auto with_data = disk->Query(pd->data, pd->queries.row(q), 10);
    auto self_contained = disk->Query(pd->queries.row(q), 10);
    ASSERT_TRUE(with_data.ok() && self_contained.ok());
    ASSERT_EQ(self_contained->size(), with_data->size());
    for (size_t i = 0; i < with_data->size(); ++i) {
      EXPECT_EQ((*self_contained)[i].id, (*with_data)[i].id);
      EXPECT_EQ((*self_contained)[i].dist, (*with_data)[i].dist);
    }
  }
}

TEST_F(DiskIndexTest, SelfContainedSurvivesReopenWithoutDataset) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 800, 4, 47);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 53;
  const std::string path = Path("selfc2.pf");
  std::vector<NeighborList> before;
  {
    auto disk = DiskC2lshIndex::Build(pd->data, o, path, 2048);
    ASSERT_TRUE(disk.ok());
    for (size_t q = 0; q < 4; ++q) {
      auto r = disk->Query(pd->queries.row(q), 5);
      ASSERT_TRUE(r.ok());
      before.push_back(std::move(r).value());
    }
  }
  // Reopen: the dataset object is gone; the file alone answers queries.
  auto disk = DiskC2lshIndex::Open(path, 2048);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(disk->has_stored_vectors());
  for (size_t q = 0; q < 4; ++q) {
    auto r = disk->Query(pd->queries.row(q), 5);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), before[q].size());
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*r)[i].id, before[q][i].id);
      EXPECT_EQ((*r)[i].dist, before[q][i].dist);
    }
  }
}

TEST_F(DiskIndexTest, SelfContainedMeasuresDataIo) {
  auto pd = MakeProfileDataset(DatasetProfile::kAudio, 1000, 2, 59);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 61;
  const std::string path = Path("dataio.pf");
  {
    auto built = DiskC2lshIndex::Build(pd->data, o, path, 4096);
    ASSERT_TRUE(built.ok());
  }
  auto disk = DiskC2lshIndex::Open(path, 4096);
  ASSERT_TRUE(disk.ok());
  DiskQueryStats stats;
  auto r = disk->Query(pd->queries.row(0), 10, &stats);
  ASSERT_TRUE(r.ok());
  // Verification reads come from the data segment: measured data pages > 0
  // and the split is consistent with the pool totals.
  EXPECT_GT(stats.base.data_pages, 0u);
  EXPECT_EQ(stats.base.index_pages + stats.base.data_pages, stats.pool_misses);
}

TEST_F(DiskIndexTest, WithoutStoredVectorsSelfQueryRejected) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 400, 1, 67);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 71;
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("novec.pf"), 2048,
                                    /*store_vectors=*/false);
  ASSERT_TRUE(disk.ok());
  EXPECT_FALSE(disk->has_stored_vectors());
  EXPECT_TRUE(disk->Query(pd->queries.row(0), 5).status().IsNotSupported());
  // The dataset-backed path still works.
  auto r = disk->Query(pd->data, pd->queries.row(0), 5);
  EXPECT_TRUE(r.ok());
}

TEST_F(DiskIndexTest, OpenMissingAndGarbage) {
  EXPECT_TRUE(DiskC2lshIndex::Open(Path("nope.pf")).status().IsIOError());
  std::ofstream(Path("junk.pf")) << "garbage";
  EXPECT_TRUE(DiskC2lshIndex::Open(Path("junk.pf")).status().IsCorruption());
}

TEST_F(DiskIndexTest, QueryValidation) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 500, 2, 31);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 37;
  auto disk = DiskC2lshIndex::Build(pd->data, o, Path("val.pf"), 128);
  ASSERT_TRUE(disk.ok());
  EXPECT_TRUE(disk->Query(pd->data, pd->queries.row(0), 0).status().IsInvalidArgument());
  auto other = MakeProfileDataset(DatasetProfile::kMnist, 500, 1, 39);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(disk->Query(other->data, pd->queries.row(0), 1)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace c2lsh
