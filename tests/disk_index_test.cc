#include "src/core/disk_index.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "src/storage/blob.h"
#include "src/storage/disk_bucket_table.h"
#include "src/util/fault_env.h"
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
  EXPECT_TRUE(C2lshIndex::Open(Path("nope.pf")).status().IsIOError());
  std::ofstream(Path("junk.pf")) << "garbage";
  EXPECT_TRUE(DiskC2lshIndex::Open(Path("junk.pf")).status().IsCorruption());
  EXPECT_TRUE(C2lshIndex::Open(Path("junk.pf")).status().IsCorruption());
}

// --- C2lshIndex::Open: the in-memory residency of the same file ----------

class OpenInMemoryTest : public DiskIndexTest {
 protected:
  void SetUp() override {
    DiskIndexTest::SetUp();
    auto pd = MakeProfileDataset(DatasetProfile::kColor, 1200, 8, 5);
    ASSERT_TRUE(pd.ok());
    pd_ = std::make_unique<ProfileData>(std::move(pd).value());
    options_.seed = 11;
    options_.page_bytes = 1024;
  }

  /// Builds an index file without a data segment, as c2lsh_tool does.
  std::string BuildFile(const std::string& name, Env* env = nullptr) {
    const std::string path = Path(name);
    auto disk = DiskC2lshIndex::Build(pd_->data, options_, path, 64,
                                      /*store_vectors=*/false, env);
    EXPECT_TRUE(disk.ok()) << disk.status().ToString();
    return path;
  }

  /// XORs `mask` into the byte at `offset` of the file at `path`.
  static void FlipByte(const std::string& path, uint64_t offset, char mask) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ mask);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }

  /// Byte offset of page `id`'s payload (PageFile v3: two 256-byte header
  /// slots, then pages of page_bytes + an 8-byte footer).
  uint64_t PageOffset(PageId id) const {
    return 512 + (id - 1) * (options_.page_bytes + 8);
  }

  /// Rewrites the index's meta blob through `edit` and publishes the result
  /// as a new, CRC-valid meta root — a forged but well-formed file.
  static void RepublishMeta(const std::string& path,
                            const std::function<void(BufferPool*, std::vector<uint8_t>*)>&
                                edit) {
    auto file = PageFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    auto pool = BufferPool::Create(&file.value(), 16);
    ASSERT_TRUE(pool.ok());
    auto meta = ReadBlob(&pool.value(), file->user_root());
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    edit(&pool.value(), &meta.value());
    auto root = WriteBlob(&pool.value(), meta.value());
    ASSERT_TRUE(root.ok());
    file->SetUserRoot(root.value());
    ASSERT_TRUE(pool->FlushAll().ok());
  }

  std::unique_ptr<ProfileData> pd_;
  C2lshOptions options_;
};

TEST_F(OpenInMemoryTest, OpenedFileAnswersLikeAFreshBuild) {
  const std::string path = BuildFile("index.c2lsh");
  auto opened = C2lshIndex::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto built = C2lshIndex::Build(pd_->data, options_);
  ASSERT_TRUE(built.ok());

  EXPECT_EQ(opened->num_tables(), built->num_tables());
  EXPECT_EQ(opened->num_objects(), built->num_objects());
  EXPECT_EQ(opened->dim(), built->dim());
  EXPECT_EQ(opened->radius_cap(), built->radius_cap());
  EXPECT_EQ(opened->derived().m, built->derived().m);
  EXPECT_EQ(opened->derived().l, built->derived().l);
  EXPECT_EQ(opened->options().page_bytes, options_.page_bytes);
  for (size_t q = 0; q < pd_->queries.num_rows(); ++q) {
    auto got = opened->Query(pd_->data, pd_->queries.row(q), 10);
    auto want = built->Query(pd_->data, pd_->queries.row(q), 10);
    ASSERT_TRUE(got.ok() && want.ok());
    ASSERT_EQ(got->size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].id, (*want)[i].id) << "q=" << q << " i=" << i;
      EXPECT_EQ((*got)[i].dist, (*want)[i].dist) << "q=" << q << " i=" << i;
    }
  }
}

TEST_F(OpenInMemoryTest, TruncatedFileRejected) {
  const std::string path = BuildFile("full.c2lsh");
  const auto size = std::filesystem::file_size(path);
  // Header region, mid-tables, and one byte short of the last page.
  for (const uint64_t keep : {uint64_t{300}, size / 2, size - 1}) {
    const std::string cut = Path("cut.c2lsh");
    std::filesystem::copy_file(path, cut, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(cut, keep);
    const Status st = C2lshIndex::Open(cut).status();
    EXPECT_TRUE(st.IsCorruption()) << "keep=" << keep << ": " << st.ToString();
  }
}

TEST_F(OpenInMemoryTest, BitFlipAnywhereInTheImageRejected) {
  const std::string path = BuildFile("flip.c2lsh");
  const auto size = std::filesystem::file_size(path);
  // Page 2 is table 0's first entry page: a corrupt entry page fails the
  // open (the memory index has no degraded mode). The others land in other
  // tables' runs and directories and in the meta blob at the end.
  for (const uint64_t at : {PageOffset(2) + 10, size / 3, size / 2, size - 20}) {
    const std::string copy = Path("flipped.c2lsh");
    std::filesystem::copy_file(path, copy, std::filesystem::copy_options::overwrite_existing);
    FlipByte(copy, at, 0x40);
    const Status st = C2lshIndex::Open(copy).status();
    EXPECT_TRUE(st.IsCorruption()) << "offset " << at << ": " << st.ToString();
  }
}

TEST_F(OpenInMemoryTest, RetiredSingleStreamFormatNeedsARebuild) {
  // The first u64 of the retired single-stream index format.
  const uint64_t magic = 0xC25123AA2012F00DULL;
  const std::string path = Path("retired.c2lsh");
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    f << std::string(600, '\0');
  }
  const Status st = C2lshIndex::Open(path).status();
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(std::string(st.message()).find("rebuild"), std::string::npos) << st.ToString();
}

TEST_F(OpenInMemoryTest, RoutesThroughTheProvidedEnv) {
  FaultInjectionEnv env(Env::Default());
  const std::string path = BuildFile("env.c2lsh", &env);
  EXPECT_GT(env.stats().writes, 0u);
  EXPECT_GT(env.stats().syncs, 0u);

  env.ResetStats();
  auto opened = C2lshIndex::Open(path, &env);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_GT(env.stats().reads, 0u);

  // A bit flip injected at read time (the file itself untouched) is caught
  // by the page checksum like an on-disk one.
  env.SetReadCorruption(std::filesystem::file_size(path) / 2, 0x08);
  EXPECT_TRUE(C2lshIndex::Open(path, &env).status().IsCorruption());
  env.ClearReadCorruption();
  EXPECT_TRUE(C2lshIndex::Open(path, &env).ok());
}

// The meta blob's layout up to dim (see WriteMetaBlob): magic u32, options
// (w, c, delta, beta f64; max_radius_exponent i32; seed, page_bytes u64),
// derived (model w, c, p1, p2, rho; beta, z, alpha f64; m, l u64), n u64,
// then dim u64.
constexpr size_t kMetaMOffset = 4 + 4 * 8 + 4 + 2 * 8 + 8 * 8;
constexpr size_t kMetaDimOffset = kMetaMOffset + 3 * 8;

TEST_F(OpenInMemoryTest, ForgedMetaCountsAreCorruptionNotAnAllocation) {
  const std::string path = BuildFile("forged_meta.c2lsh");
  uint64_t dim = 0, m = 0;
  {
    auto clean = DiskC2lshIndex::Open(path);
    ASSERT_TRUE(clean.ok());
    dim = clean->dim();
    m = clean->num_tables();
  }

  for (const size_t offset : {kMetaDimOffset, kMetaMOffset}) {
    const std::string copy = Path("forged_copy.c2lsh");
    std::filesystem::copy_file(path, copy, std::filesystem::copy_options::overwrite_existing);
    RepublishMeta(copy, [&](BufferPool*, std::vector<uint8_t>* meta) {
      uint64_t field = 0;
      std::memcpy(&field, meta->data() + offset, sizeof(field));
      ASSERT_EQ(field, offset == kMetaDimOffset ? dim : m) << "meta layout moved";
      const uint64_t forged = uint64_t{1} << 40;
      std::memcpy(meta->data() + offset, &forged, sizeof(forged));
    });
    const Status disk = DiskC2lshIndex::Open(copy).status();
    EXPECT_TRUE(disk.IsCorruption()) << "offset " << offset << ": " << disk.ToString();
    const Status mem = C2lshIndex::Open(copy).status();
    EXPECT_TRUE(mem.IsCorruption()) << "offset " << offset << ": " << mem.ToString();
  }
}

TEST_F(OpenInMemoryTest, ForgedDirectorySizeIsCorruptionNotAnAllocation) {
  const std::string path = BuildFile("forged_dir.c2lsh");
  RepublishMeta(path, [](BufferPool* pool, std::vector<uint8_t>* meta) {
    // Table 0's root is the first of the m roots that end the meta blob.
    uint64_t m = 0;
    std::memcpy(&m, meta->data() + kMetaMOffset, sizeof(m));
    const size_t root_at = meta->size() - m * sizeof(PageId);
    PageId root = 0;
    std::memcpy(&root, meta->data() + root_at, sizeof(root));
    auto dir = ReadBlob(pool, root);
    ASSERT_TRUE(dir.ok());
    // Directory blob: magic u32, num_entries u64, first_entry_page u64,
    // dir_size u64, entries.
    const uint64_t forged = uint64_t{1} << 40;
    std::memcpy(dir->data() + 4 + 2 * 8, &forged, sizeof(forged));
    auto new_root = WriteBlob(pool, dir.value());
    ASSERT_TRUE(new_root.ok());
    std::memcpy(meta->data() + root_at, &new_root.value(), sizeof(PageId));
  });
  const Status disk = DiskC2lshIndex::Open(path).status();
  EXPECT_TRUE(disk.IsCorruption()) << disk.ToString();
  const Status mem = C2lshIndex::Open(path).status();
  EXPECT_TRUE(mem.IsCorruption()) << mem.ToString();
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
