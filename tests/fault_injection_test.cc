// Crash-safety and corruption-detection tests for the storage stack.
//
// The invariants under test (see docs/ARCHITECTURE.md, "Fault model &
// recovery invariants"):
//   1. Crash sweep: for EVERY possible crash point (torn Nth write, then all
//      later writes refused) during Create/Write/Sync or DiskC2lshIndex
//      Build, a subsequent Open either recovers a fully consistent state or
//      fails with Corruption. Never a silently inconsistent one.
//   2. Bit flips: any single flipped byte in the index file makes queries
//      either still-exactly-right, degraded-but-genuine, or a clean
//      Corruption error. Never silently wrong results.
//   3. Transient faults: Unavailable results from the env are retried with
//      observable counts and bounded exhaustion.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/disk_index.h"
#include "src/core/index.h"
#include "src/core/virtual_rehash.h"
#include "src/lsh/pstable.h"
#include "src/storage/page_file.h"
#include "src/util/fault_env.h"
#include "src/vector/distance.h"
#include "src/vector/synthetic.h"

namespace c2lsh {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_fault_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  /// Flips one byte of `path` in place; returns the original byte.
  static uint8_t FlipByteOnDisk(const std::string& path, uint64_t offset,
                                uint8_t mask) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    EXPECT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    f.seekp(static_cast<std::streamoff>(offset));
    char flipped = static_cast<char>(static_cast<uint8_t>(b) ^ mask);
    f.write(&flipped, 1);
    return static_cast<uint8_t>(b);
  }
  static void RestoreByteOnDisk(const std::string& path, uint64_t offset,
                                uint8_t value) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    char b = static_cast<char>(value);
    f.write(&b, 1);
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// 1a. Crash sweep at the PageFile level.
// ---------------------------------------------------------------------------

// A deterministic workload with two Sync (publish) points: create the file,
// fill 4 pages with pattern 'A', sync; overwrite pages 1..2 with pattern
// 'B', sync. Every write the workload performs is a potential crash point.
Status RunPageFileWorkload(const std::string& path, Env* env) {
  constexpr size_t kPage = 256;
  auto f = PageFile::Create(path, kPage, env);
  C2LSH_RETURN_IF_ERROR(f.status());
  std::vector<uint8_t> buf(kPage);
  for (int i = 0; i < 4; ++i) {
    auto id = f->AllocatePage();
    C2LSH_RETURN_IF_ERROR(id.status());
    std::memset(buf.data(), 'A', kPage);
    C2LSH_RETURN_IF_ERROR(f->WritePage(id.value(), buf.data()));
  }
  C2LSH_RETURN_IF_ERROR(f->Sync());
  for (PageId id = 1; id <= 2; ++id) {
    std::memset(buf.data(), 'B', kPage);
    C2LSH_RETURN_IF_ERROR(f->WritePage(id, buf.data()));
  }
  return f->Sync();
}

TEST_F(FaultInjectionTest, PageFileCrashSweepRecoversOrReportsCorruption) {
  const std::string path = Path("sweep.pf");

  // Measure the workload's total write count with no fault armed.
  FaultInjectionEnv env(Env::Default());
  ASSERT_TRUE(RunPageFileWorkload(path, &env).ok());
  const uint64_t total_writes = env.stats().writes;
  ASSERT_GE(total_writes, 8u);  // 2 create + 4 pages + header + 2 pages + header

  for (uint64_t n = 1; n <= total_writes; ++n) {
    SCOPED_TRACE("crash at write " + std::to_string(n) + " of " +
                 std::to_string(total_writes));
    env.ClearCrash();
    env.SetCrashAfterWrites(static_cast<int64_t>(n));
    Status st = RunPageFileWorkload(path, &env);
    ASSERT_FALSE(st.ok());  // the workload must hit the crash
    ASSERT_TRUE(env.crashed());
    env.ClearCrash();  // "restart the process"

    auto reopened = PageFile::Open(path, &env);
    if (!reopened.ok()) {
      // Before the first publish the header may be torn: Corruption is the
      // required answer, anything else (e.g. a silently empty file) is not.
      EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
      continue;
    }
    // Open succeeded: the recovered state must be one the workload actually
    // published — 0 pages (created, nothing synced) or 4 pages. Every page
    // must read back either as a uniform published pattern or as a clean
    // Corruption (a torn in-place overwrite). Mixed bytes accepted by
    // ReadPage would mean the checksum missed a torn write.
    const uint64_t pages = reopened->num_pages();
    EXPECT_TRUE(pages == 0 || pages == 4) << pages;
    std::vector<uint8_t> buf(reopened->page_bytes());
    for (PageId id = 1; id <= pages; ++id) {
      Status rs = reopened->ReadPage(id, buf.data());
      if (!rs.ok()) {
        EXPECT_TRUE(rs.IsCorruption()) << rs.ToString();
        continue;
      }
      const uint8_t first = buf[0];
      EXPECT_TRUE(first == 'A' || first == 'B') << "page " << id;
      EXPECT_EQ(buf, std::vector<uint8_t>(buf.size(), first)) << "page " << id;
    }
  }
}

TEST_F(FaultInjectionTest, ShadowHeaderSurvivesTornHeaderWrite) {
  const std::string path = Path("shadow.pf");
  FaultInjectionEnv env(Env::Default());
  constexpr size_t kPage = 256;
  std::vector<uint8_t> buf(kPage, 0x5A);
  {
    auto f = PageFile::Create(path, kPage, &env);
    ASSERT_TRUE(f.ok());
    auto id = f->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(f->WritePage(id.value(), buf.data()).ok());
    ASSERT_TRUE(f->Sync().ok());  // publish generation 2 in slot 1

    // Second sync performs exactly one write (the inactive header slot).
    // Tear it after 12 bytes: the slot's checksum cannot validate.
    std::memset(buf.data(), 0x6B, kPage);
    ASSERT_TRUE(f->WritePage(id.value(), buf.data()).ok());
    env.SetCrashAfterWrites(1);
    env.SetTornBytes(12);
    EXPECT_FALSE(f->Sync().ok());
  }
  env.ClearCrash();

  // The torn write destroyed only the *inactive* slot; the previous
  // generation is intact and Open recovers it.
  auto f = PageFile::Open(path, &env);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(f->num_pages(), 1u);
  // The page overwrite itself completed before the crash, so the page reads
  // back consistently with its new checksum.
  std::vector<uint8_t> back(kPage);
  ASSERT_TRUE(f->ReadPage(1, back.data()).ok());
  EXPECT_EQ(back, std::vector<uint8_t>(kPage, 0x6B));
  // And the recovered file can publish again.
  ASSERT_TRUE(f->Sync().ok());
  auto again = PageFile::Open(path, &env);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_pages(), 1u);
}

// ---------------------------------------------------------------------------
// 1b. Crash sweep at the DiskC2lshIndex level.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, DiskIndexBuildCrashSweep) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 150, 3, 77);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 79;
  o.page_bytes = 1024;  // small pages keep the write count (sweep size) low
  const std::string path = Path("crash_idx.pf");

  // Reference answers from the in-memory index with the same options/seed.
  auto mem = C2lshIndex::Build(pd->data, o);
  ASSERT_TRUE(mem.ok());

  FaultInjectionEnv env(Env::Default());
  {
    auto clean = DiskC2lshIndex::Build(pd->data, o, path, 64,
                                       /*store_vectors=*/true, &env);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  }
  const uint64_t total_writes = env.stats().writes;
  ASSERT_GT(total_writes, 10u);

  uint64_t recovered = 0, corrupt = 0;
  for (uint64_t n = 1; n <= total_writes; ++n) {
    SCOPED_TRACE("crash at write " + std::to_string(n) + " of " +
                 std::to_string(total_writes));
    env.ClearCrash();
    env.SetCrashAfterWrites(static_cast<int64_t>(n));
    auto built = DiskC2lshIndex::Build(pd->data, o, path, 64,
                                       /*store_vectors=*/true, &env);
    ASSERT_FALSE(built.ok());  // deterministic workload: the crash must hit
    env.ClearCrash();

    auto reopened = DiskC2lshIndex::Open(path, 64, &env);
    if (!reopened.ok()) {
      ++corrupt;
      EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
      continue;
    }
    // Open after a crash succeeded: the index must be FULLY consistent —
    // every query answer identical to the in-memory reference.
    ++recovered;
    for (size_t q = 0; q < 3; ++q) {
      auto want = mem->Query(pd->data, pd->queries.row(q), 5);
      auto got = reopened->Query(pd->data, pd->queries.row(q), 5);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(got->size(), want->size()) << "q=" << q;
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ((*got)[i].id, (*want)[i].id) << "q=" << q;
        EXPECT_EQ((*got)[i].dist, (*want)[i].dist) << "q=" << q;
      }
    }
  }
  // Build publishes once at the end, so mid-build crashes must dominate and
  // be reported as Corruption; if the sweep somehow never exercised the
  // corrupt path the test is vacuous.
  EXPECT_GT(corrupt, 0u);
  // One write past the measured total: the build must succeed untouched.
  env.ClearCrash();
  env.SetCrashAfterWrites(static_cast<int64_t>(total_writes) + 1);
  auto full = DiskC2lshIndex::Build(pd->data, o, path, 64, true, &env);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto want = mem->Query(pd->data, pd->queries.row(0), 5);
  auto got = full->Query(pd->data, pd->queries.row(0), 5);
  ASSERT_TRUE(want.ok() && got.ok());
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*got)[i].id, (*want)[i].id);
  }
}

// ---------------------------------------------------------------------------
// 2. Bit flips: queries are never silently wrong.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, BitFlipSweepNeverSilentlyWrong) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 200, 2, 83);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 89;
  o.page_bytes = 1024;
  const std::string path = Path("flip_idx.pf");
  const size_t dim = pd->data.dim();

  std::vector<NeighborList> clean;
  {
    auto disk = DiskC2lshIndex::Build(pd->data, o, path, 64);
    ASSERT_TRUE(disk.ok());
    for (size_t q = 0; q < 2; ++q) {
      auto r = disk->Query(pd->data, pd->queries.row(q), 5);
      ASSERT_TRUE(r.ok());
      clean.push_back(std::move(r).value());
    }
  }
  const uint64_t file_bytes = std::filesystem::file_size(path);
  ASSERT_GT(file_bytes, 10'000u);

  // Stride through the whole file: headers, entry pages, directory blobs,
  // meta blob, data segment all get hit.
  const uint64_t stride = file_bytes / 151 + 1;
  uint64_t flips = 0, exact = 0, degraded = 0, corrupt = 0;
  for (uint64_t off = 0; off < file_bytes; off += stride) {
    SCOPED_TRACE("bit flip at offset " + std::to_string(off));
    const uint8_t orig = FlipByteOnDisk(path, off, 0x40);
    ++flips;

    auto disk = DiskC2lshIndex::Open(path, 64);
    if (!disk.ok()) {
      ++corrupt;
      EXPECT_TRUE(disk.status().IsCorruption() || disk.status().IsNotSupported())
          << disk.status().ToString();
      RestoreByteOnDisk(path, off, orig);
      continue;
    }
    for (size_t q = 0; q < 2; ++q) {
      DiskQueryStats stats;
      auto r = disk->Query(pd->data, pd->queries.row(q), 5, &stats);
      if (!r.ok()) {
        ++corrupt;
        EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
        continue;
      }
      // Whatever came back must be genuine: real ids with their exact
      // distances (degraded queries may MISS neighbors, never invent them).
      for (const Neighbor& nb : *r) {
        ASSERT_LT(nb.id, pd->data.size());
        EXPECT_EQ(nb.dist, static_cast<float>(
                               L2(pd->queries.row(q), pd->data.object(nb.id), dim)));
      }
      if (stats.degraded) {
        ++degraded;
        EXPECT_GT(stats.tables_skipped + stats.candidates_skipped, 0u);
      } else {
        // No degradation observed: the answer must be bit-for-bit the clean
        // one (the flip landed in slack space or an unread region).
        ++exact;
        ASSERT_EQ(r->size(), clean[q].size());
        for (size_t i = 0; i < clean[q].size(); ++i) {
          EXPECT_EQ((*r)[i].id, clean[q][i].id);
          EXPECT_EQ((*r)[i].dist, clean[q][i].dist);
        }
      }
    }
    RestoreByteOnDisk(path, off, orig);
  }
  ASSERT_GT(flips, 100u);
  // The sweep must actually exercise the detection machinery: flips inside
  // pages are the common case and must surface as degraded or Corruption.
  EXPECT_GT(degraded + corrupt, 0u);
  // And the restore logic is sound: the untouched file still opens cleanly.
  auto final_open = DiskC2lshIndex::Open(path, 64);
  ASSERT_TRUE(final_open.ok()) << final_open.status().ToString();
}

TEST_F(FaultInjectionTest, DegradedQueryReportsSkippedTablesOrCandidates) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 200, 1, 91);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 97;
  o.page_bytes = 1024;
  const std::string path = Path("degraded_idx.pf");
  const size_t dim = pd->data.dim();
  {
    auto disk = DiskC2lshIndex::Build(pd->data, o, path, 64);
    ASSERT_TRUE(disk.ok());
  }

  // Inject read corruption into each data page in turn (via the fault env,
  // so the file itself is never modified) until a query observes a degraded
  // result. Pages read during Open fail there with Corruption instead —
  // also correct, keep scanning.
  FaultInjectionEnv env(Env::Default());
  constexpr uint64_t kHeaderRegion = 512;
  const uint64_t physical_page = o.page_bytes + 8;  // payload + crc footer
  const uint64_t file_bytes = std::filesystem::file_size(path);
  const uint64_t num_pages = (file_bytes - kHeaderRegion) / physical_page;

  bool saw_degraded = false;
  for (uint64_t page = 1; page <= num_pages && !saw_degraded; ++page) {
    SCOPED_TRACE("corrupting page " + std::to_string(page));
    env.SetReadCorruption(kHeaderRegion + (page - 1) * physical_page +
                              o.page_bytes / 2,
                          0xFF);
    auto disk = DiskC2lshIndex::Open(path, 8, &env);  // tiny pool: no caching
    if (!disk.ok()) {
      EXPECT_TRUE(disk.status().IsCorruption()) << disk.status().ToString();
      env.ClearReadCorruption();
      continue;
    }
    DiskQueryStats stats;
    auto r = disk->Query(pd->data, pd->queries.row(0), 5, &stats);
    env.ClearReadCorruption();
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
      continue;
    }
    if (stats.degraded) {
      saw_degraded = true;
      EXPECT_GT(stats.tables_skipped + stats.candidates_skipped, 0u);
      for (const Neighbor& nb : *r) {
        ASSERT_LT(nb.id, pd->data.size());
        EXPECT_EQ(nb.dist, static_cast<float>(
                               L2(pd->queries.row(0), pd->data.object(nb.id), dim)));
      }
    }
  }
  EXPECT_TRUE(saw_degraded)
      << "no page corruption ever produced a degraded (skip-and-continue) query";
}

// The scan cursor keeps a copy of each table's entry page across rounds; a
// page enters it only after its checksum verified. Corrupting the *second*
// entry page of table 0 makes a query that cached the first page in an early
// round meet the corrupt page in a later one: that query must drop exactly
// that table and flag the answer, while a query whose intervals never reach
// the page answers exactly as on the clean file.
TEST_F(FaultInjectionTest, CorruptEntryPageAfterCachedPageDropsOneTable) {
  constexpr size_t kN = 1500;
  constexpr size_t kK = 10;
  auto pd = MakeProfileDataset(DatasetProfile::kColor, kN, 10, 107);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 109;
  o.page_bytes = 4096;
  const std::string path = Path("cursor_flip.pf");
  const size_t dim = pd->data.dim();
  {
    auto disk = DiskC2lshIndex::Build(pd->data, o, path, 8, /*store_vectors=*/false);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  }

  // Without a data segment page 1 is the superblock and table 0's entry run
  // starts on page 2; its 6000 bytes fill pages 2 and 3.
  constexpr PageId kSecondEntryPage = 3;
  const size_t per_page = o.page_bytes / sizeof(ObjectId);
  ASSERT_GT(kN, per_page);
  ASSERT_LE(kN, 2 * per_page);

  // Replays table 0's probe intervals: its sorted bucket column gives the
  // entry run, so each round's interval maps to a run range [b, e).
  auto derived = ComputeDerivedParams(o, kN);
  ASSERT_TRUE(derived.ok());
  const long long radius_cap = RadiusCap(o.c, o.max_radius_exponent);
  auto family = PStableFamily::Sample(derived->m, dim, o.w, o.seed,
                                      static_cast<double>(radius_cap));
  ASSERT_TRUE(family.ok());
  const std::vector<BucketId> buckets = family->BucketColumn(pd->data.vectors(), 0);
  std::vector<std::pair<BucketId, ObjectId>> run;
  for (size_t i = 0; i < kN; ++i) run.emplace_back(buckets[i], static_cast<ObjectId>(i));
  std::sort(run.begin(), run.end());  // DiskBucketTable's entry order
  std::vector<BucketId> column;
  for (const auto& entry : run) column.push_back(entry.first);
  const long long c_int = static_cast<long long>(std::llround(o.c));

  // Candidate queries: the profile's queries, which mostly probe far from
  // the page boundary, plus stored objects lying just below it, whose
  // widening intervals cross into the second page.
  std::vector<const float*> queries;
  for (size_t q = 0; q < pd->queries.num_rows(); ++q) queries.push_back(pd->queries.row(q));
  for (size_t pos = per_page - 200; pos < per_page; pos += 10) {
    queries.push_back(pd->data.object(run[pos].second));
  }
  const size_t kQueries = queries.size();

  // Clean answers, and per query: does an earlier round read only the first
  // entry page before a later round reaches the second?
  auto clean_index = DiskC2lshIndex::Open(path, 8);
  ASSERT_TRUE(clean_index.ok()) << clean_index.status().ToString();
  std::vector<NeighborList> clean(kQueries);
  size_t meets_after_cache = kQueries;  // first query of each kind
  size_t never_reaches = kQueries;
  for (size_t q = 0; q < kQueries; ++q) {
    DiskQueryStats stats;
    auto r = clean_index->Query(pd->data, queries[q], kK, &stats);
    ASSERT_TRUE(r.ok());
    clean[q] = std::move(r).value();
    std::vector<BucketId> qb;
    family->BucketAll(queries[q], &qb);
    bool cached_first = false, reached_second = false;
    long long R = 1;
    for (uint64_t round = 0; round < stats.base.rounds; ++round, R *= c_int) {
      const BucketRange in = QueryIntervalAtRadiusCapped(qb[0], R, radius_cap);
      const size_t b = std::lower_bound(column.begin(), column.end(), in.lo) -
                       column.begin();
      const size_t e = std::upper_bound(column.begin(), column.end(), in.hi) -
                       column.begin();
      if (e > per_page) {
        if (cached_first && !reached_second && meets_after_cache == kQueries) {
          meets_after_cache = q;
        }
        reached_second = true;
      } else if (b < e) {
        cached_first = true;
      }
    }
    if (cached_first && !reached_second && never_reaches == kQueries) {
      never_reaches = q;
    }
  }
  ASSERT_LT(meets_after_cache, kQueries)
      << "no query caches table 0's first entry page before reaching its second";
  ASSERT_LT(never_reaches, kQueries)
      << "no query keeps table 0's probe on its first entry page";

  FaultInjectionEnv env(Env::Default());
  constexpr uint64_t kHeaderRegion = 512;
  const uint64_t physical_page = o.page_bytes + 8;  // payload + crc footer
  env.SetReadCorruption(
      kHeaderRegion + (kSecondEntryPage - 1) * physical_page + o.page_bytes / 2, 0xFF);
  auto disk = DiskC2lshIndex::Open(path, 8, &env);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  {
    SCOPED_TRACE("query " + std::to_string(meets_after_cache));
    DiskQueryStats stats;
    auto r = disk->Query(pd->data, queries[meets_after_cache], kK, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.tables_skipped, 1u);
    EXPECT_EQ(stats.candidates_skipped, 0u);
    EXPECT_EQ(disk->PinnedPoolFrames(), 0u);
    for (const Neighbor& nb : *r) {
      ASSERT_LT(nb.id, pd->data.size());
      EXPECT_EQ(nb.dist,
                static_cast<float>(L2(queries[meets_after_cache],
                                      pd->data.object(nb.id), dim)));
    }
  }
  {
    SCOPED_TRACE("query " + std::to_string(never_reaches));
    DiskQueryStats stats;
    auto r = disk->Query(pd->data, queries[never_reaches], kK, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(stats.degraded);
    EXPECT_EQ(stats.tables_skipped, 0u);
    EXPECT_EQ(disk->PinnedPoolFrames(), 0u);
    const NeighborList& want = clean[never_reaches];
    ASSERT_EQ(r->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*r)[i].id, want[i].id) << "i=" << i;
      EXPECT_EQ((*r)[i].dist, want[i].dist) << "i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Transient faults: retried, observable, bounded.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, PageFileRetriesTransientFaults) {
  FaultInjectionEnv env(Env::Default());
  auto f = PageFile::Create(Path("retry.pf"), 256, &env);
  ASSERT_TRUE(f.ok());
  RetryPolicy fast;
  fast.backoff_initial_us = 0;
  f->SetRetryPolicy(fast);

  auto id = f->AllocatePage();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> buf(256, 0x2F);

  env.SetTransientWriteFaults(2);  // < max_attempts: the write must recover
  ASSERT_TRUE(f->WritePage(id.value(), buf.data()).ok());
  EXPECT_EQ(f->retry_stats().retries, 2u);
  EXPECT_EQ(f->retry_stats().exhausted, 0u);
  EXPECT_EQ(env.stats().transient_faults, 2u);

  env.SetTransientReadFaults(1);
  std::vector<uint8_t> back(256);
  ASSERT_TRUE(f->ReadPage(id.value(), back.data()).ok());
  EXPECT_EQ(back, buf);
  EXPECT_EQ(f->retry_stats().retries, 3u);
}

TEST_F(FaultInjectionTest, PageFileRetryExhaustionIsBounded) {
  FaultInjectionEnv env(Env::Default());
  auto f = PageFile::Create(Path("exhaust.pf"), 256, &env);
  ASSERT_TRUE(f.ok());
  RetryPolicy tight;
  tight.max_attempts = 3;
  tight.backoff_initial_us = 0;
  f->SetRetryPolicy(tight);
  auto id = f->AllocatePage();
  ASSERT_TRUE(id.ok());

  env.SetTransientWriteFaults(1000);  // persistent unavailability
  std::vector<uint8_t> buf(256, 1);
  Status st = f->WritePage(id.value(), buf.data());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();  // converted, never raw Unavailable
  EXPECT_GE(f->retry_stats().exhausted, 1u);
  // Bounded: exactly max_attempts probes hit the env for the failing op.
  EXPECT_EQ(env.stats().transient_faults, 3u);
  env.SetTransientWriteFaults(0);
  ASSERT_TRUE(f->WritePage(id.value(), buf.data()).ok());
}

TEST_F(FaultInjectionTest, DiskIndexQuerySurvivesTransientReadFaults) {
  auto pd = MakeProfileDataset(DatasetProfile::kColor, 200, 2, 101);
  ASSERT_TRUE(pd.ok());
  C2lshOptions o;
  o.seed = 103;
  o.page_bytes = 1024;
  const std::string path = Path("transient_idx.pf");

  FaultInjectionEnv env(Env::Default());
  {
    auto built = DiskC2lshIndex::Build(pd->data, o, path, 64, true, &env);
    ASSERT_TRUE(built.ok());
  }
  auto disk = DiskC2lshIndex::Open(path, 8, &env);  // tiny pool: real reads
  ASSERT_TRUE(disk.ok());
  auto clean = disk->Query(pd->data, pd->queries.row(0), 5);
  ASSERT_TRUE(clean.ok());

  const uint64_t retries_before = disk->retry_stats().retries;
  env.SetTransientReadFaults(3);
  DiskQueryStats stats;
  auto r = disk->Query(pd->data, pd->queries.row(0), 5, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(stats.degraded);  // transient != corrupt: answers are complete
  EXPECT_GE(disk->retry_stats().retries, retries_before + 3);
  ASSERT_EQ(r->size(), clean->size());
  for (size_t i = 0; i < clean->size(); ++i) {
    EXPECT_EQ((*r)[i].id, (*clean)[i].id);
    EXPECT_EQ((*r)[i].dist, (*clean)[i].dist);
  }
}

// ---------------------------------------------------------------------------
// Sync-fault behavior.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, FailedSyncSurfacesAndDroppedSyncStaysConsistent) {
  FaultInjectionEnv env(Env::Default());
  const std::string path = Path("sync.pf");
  auto f = PageFile::Create(path, 256, &env);
  ASSERT_TRUE(f.ok());
  auto id = f->AllocatePage();
  ASSERT_TRUE(id.ok());
  std::vector<uint8_t> buf(256, 0x7E);
  ASSERT_TRUE(f->WritePage(id.value(), buf.data()).ok());

  env.SetFailSyncs(true);
  EXPECT_TRUE(f->Sync().IsIOError());  // the failure is not swallowed
  env.SetFailSyncs(false);

  // A dropped (no-op) fsync without a crash is harmless: the data still hits
  // the file, and the next real Sync publishes it.
  env.SetDropSyncs(true);
  EXPECT_TRUE(f->Sync().ok());
  env.SetDropSyncs(false);
  auto reopened = PageFile::Open(path, &env);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_pages(), 1u);
  std::vector<uint8_t> back(256);
  ASSERT_TRUE(reopened->ReadPage(1, back.data()).ok());
  EXPECT_EQ(back, buf);
}

}  // namespace
}  // namespace c2lsh
