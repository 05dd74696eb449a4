// WriteAheadLog framing, replay, and torn-tail truncation.
//
// The contract under test: a record is durable once Append+Sync return OK;
// Replay applies surviving records exactly once (records at or below the
// caller's applied-LSN watermark are skipped), truncates a torn or corrupt
// tail instead of surfacing garbage, and enforces LSN monotonicity so a
// resurrected stale frame can never reappear past the logical tail.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/wal.h"
#include "src/util/fault_env.h"

namespace c2lsh {
namespace {

using Record = WriteAheadLog::Record;
using RecordType = WriteAheadLog::RecordType;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_wal_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  static Record Insert(uint64_t lsn, ObjectId id, std::vector<float> vec) {
    Record r;
    r.lsn = lsn;
    r.type = RecordType::kInsert;
    r.id = id;
    r.vec = std::move(vec);
    return r;
  }
  static Record Delete(uint64_t lsn, ObjectId id) {
    Record r;
    r.lsn = lsn;
    r.type = RecordType::kDelete;
    r.id = id;
    return r;
  }

  std::filesystem::path dir_;
};

TEST_F(WalTest, AppendReplayRoundtrip) {
  const std::string path = Path("roundtrip.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal->Append(Insert(1, 7, {1.0f, 2.0f, 3.0f})).ok());
    ASSERT_TRUE(wal->Append(Delete(2, 4)).ok());
    ASSERT_TRUE(wal->Append(Insert(3, 9, {-0.5f, 0.25f})).ok());
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->last_lsn(), 3u);
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  std::vector<Record> seen;
  auto replayed = wal->Replay(0, [&](const Record& rec) {
    seen.push_back(rec);
    return Status::OK();
  });
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->applied, 3u);
  EXPECT_EQ(replayed->skipped, 0u);
  EXPECT_EQ(replayed->truncated, 0u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].lsn, 1u);
  EXPECT_EQ(seen[0].type, RecordType::kInsert);
  EXPECT_EQ(seen[0].id, 7u);
  EXPECT_EQ(seen[0].vec, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(seen[1].type, RecordType::kDelete);
  EXPECT_EQ(seen[1].id, 4u);
  EXPECT_EQ(seen[2].vec, (std::vector<float>{-0.5f, 0.25f}));
  EXPECT_EQ(wal->last_lsn(), 3u);
}

TEST_F(WalTest, ReplaySkipsRecordsAtOrBelowWatermark) {
  const std::string path = Path("watermark.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
      ASSERT_TRUE(wal->Append(Delete(lsn, static_cast<ObjectId>(lsn))).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  std::vector<uint64_t> applied;
  auto stats = wal->Replay(3, [&](const Record& rec) {
    applied.push_back(rec.lsn);
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->skipped, 3u);
  EXPECT_EQ(stats->applied, 2u);
  EXPECT_EQ(applied, (std::vector<uint64_t>{4, 5}));
  // The cursor still advanced past everything: the next append must not
  // collide with a skipped record's LSN.
  EXPECT_EQ(wal->last_lsn(), 5u);
}

TEST_F(WalTest, AppendRejectsNonAdvancingLsn) {
  auto wal = WriteAheadLog::Open(Path("monotone.wal"));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(Delete(5, 1)).ok());
  Status st = wal->Append(Delete(5, 2));
  EXPECT_TRUE(st.IsInvalidArgument());
  st = wal->Append(Delete(4, 3));
  EXPECT_TRUE(st.IsInvalidArgument());
  ASSERT_TRUE(wal->Append(Delete(6, 4)).ok());
}

// Crash sweep over the append path: for every possible torn write, replay
// recovers exactly the records whose Append+Sync completed, and reports the
// torn tail via `truncated` without applying any partial frame.
TEST_F(WalTest, TornTailCrashSweepRecoversAckedPrefix) {
  FaultInjectionEnv env(Env::Default());

  // Dry run to count writes: header + one write per record.
  const std::string probe = Path("probe.wal");
  uint64_t total_writes = 0;
  {
    auto wal = WriteAheadLog::Open(probe, &env);
    ASSERT_TRUE(wal.ok());
    for (uint64_t lsn = 1; lsn <= 4; ++lsn) {
      ASSERT_TRUE(wal->Append(Insert(lsn, static_cast<ObjectId>(lsn),
                                     {static_cast<float>(lsn), 0.5f}))
                      .ok());
      ASSERT_TRUE(wal->Sync().ok());
    }
    total_writes = env.stats().writes;
  }
  ASSERT_GE(total_writes, 5u);

  for (uint64_t crash_at = 1; crash_at <= total_writes; ++crash_at) {
    SCOPED_TRACE("crash at write " + std::to_string(crash_at));
    const std::string path = Path("sweep_" + std::to_string(crash_at) + ".wal");
    env.ClearCrash();
    env.SetCrashAfterWrites(static_cast<int64_t>(crash_at));
    uint64_t acked = 0;
    {
      auto wal = WriteAheadLog::Open(path, &env);
      if (wal.ok()) {
        for (uint64_t lsn = 1; lsn <= 4; ++lsn) {
          if (!wal->Append(Insert(lsn, static_cast<ObjectId>(lsn),
                                  {static_cast<float>(lsn), 0.5f}))
                   .ok()) {
            break;
          }
          if (!wal->Sync().ok()) break;
          acked = lsn;
        }
      }
    }
    ASSERT_TRUE(env.crashed());
    env.ClearCrash();

    auto wal = WriteAheadLog::Open(path, &env);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    std::vector<uint64_t> seen;
    auto stats = wal->Replay(0, [&](const Record& rec) {
      EXPECT_EQ(rec.vec.size(), 2u);  // never a partial body
      seen.push_back(rec.lsn);
      return Status::OK();
    });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // Every acknowledged record must replay; the one in-flight at the crash
    // may have reached disk completely (acked + 1) or not at all.
    ASSERT_GE(seen.size(), acked);
    ASSERT_LE(seen.size(), acked + 1);
    for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);

    // And the recovered log accepts new appends exactly after its tail.
    ASSERT_TRUE(wal->Append(Delete(wal->last_lsn() + 1, 99)).ok());
  }
}

// A flipped byte in the middle of the file cuts replay at the damaged frame:
// everything before it is applied, nothing after it (suffix truncation, the
// same policy as a torn tail — a hole in the LSN sequence would be worse
// than losing the tail).
TEST_F(WalTest, MidFileCorruptionTruncatesSuffix) {
  const std::string path = Path("midflip.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t lsn = 1; lsn <= 6; ++lsn) {
      ASSERT_TRUE(wal->Append(Insert(lsn, static_cast<ObjectId>(lsn), {1.0f})).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Flip one byte in the middle of the file body (past the 16-byte header).
  const auto size = std::filesystem::file_size(path);
  const uint64_t offset = 16 + (size - 16) / 2;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    f.seekp(static_cast<std::streamoff>(offset));
    char flipped = static_cast<char>(static_cast<uint8_t>(b) ^ 0x40);
    f.write(&flipped, 1);
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  std::vector<uint64_t> seen;
  auto stats = wal->Replay(0, [&](const Record& rec) {
    seen.push_back(rec.lsn);
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->truncated, 1u);
  EXPECT_LT(seen.size(), 6u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST_F(WalTest, ResetTruncatesButKeepsLsnCursor) {
  const std::string path = Path("reset.wal");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(Insert(1, 1, {1.0f})).ok());
  ASSERT_TRUE(wal->Append(Delete(2, 1)).ok());
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->Reset().ok());
  // Physically empty...
  size_t replayed_count = 0;
  auto stats = wal->Replay(0, [&](const Record&) {
    ++replayed_count;
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(replayed_count, 0u);
  // ...but the cursor survives, so old LSNs can never be reused.
  EXPECT_EQ(wal->last_lsn(), 2u);
  EXPECT_TRUE(wal->Append(Delete(2, 9)).IsInvalidArgument());
  ASSERT_TRUE(wal->Append(Delete(3, 9)).ok());
}

TEST_F(WalTest, OversizedRecordIsRejectedNeverAcknowledged) {
  // Replay treats a frame length beyond kMaxBodyBytes as a torn tail, so a
  // record that encodes past the bound must be refused at Append — writing
  // it would silently drop the acked mutation (and everything after it) at
  // the next recovery.
  const std::string path = Path("oversize.wal");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  // Largest vector that still fits: body = lsn(8) + type(1) + id(4) +
  // dim(4) + 4 bytes per float.
  const size_t fixed = sizeof(uint64_t) + 1 + sizeof(ObjectId) + sizeof(uint32_t);
  const size_t max_floats = (WriteAheadLog::kMaxBodyBytes - fixed) / sizeof(float);

  Record too_big = Insert(1, 0, std::vector<float>(max_floats + 1, 1.0f));
  EXPECT_TRUE(wal->Append(too_big).IsInvalidArgument());
  EXPECT_EQ(wal->last_lsn(), 0u);  // nothing advanced, nothing written

  // The log is still usable, the boundary record still fits, and a reopen
  // replays exactly the records that were acknowledged.
  Record at_limit = Insert(1, 0, std::vector<float>(max_floats, 1.0f));
  ASSERT_TRUE(wal->Append(at_limit).ok());
  ASSERT_TRUE(wal->Append(Delete(2, 3)).ok());
  ASSERT_TRUE(wal->Sync().ok());

  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  std::vector<Record> seen;
  auto stats = reopened->Replay(0, [&](const Record& rec) {
    seen.push_back(rec);
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->applied, 2u);
  EXPECT_EQ(stats->truncated, 0u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].vec.size(), max_floats);
  EXPECT_EQ(seen[1].type, RecordType::kDelete);
}

// A corrupt header discards the whole log, and for good: a second replay
// must not find the frames the first one dropped.
TEST_F(WalTest, CorruptHeaderDiscardsFramesOnEveryReplay) {
  const std::string path = Path("badheader.wal");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
      ASSERT_TRUE(wal->Append(Insert(lsn, static_cast<ObjectId>(lsn), {1.0f})).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const char flipped = 0x00;  // the magic's low byte is nonzero
    f.seekp(0);
    f.write(&flipped, 1);
  }
  for (int open = 0; open < 2; ++open) {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    size_t replayed_count = 0;
    auto stats = wal->Replay(0, [&](const Record&) {
      ++replayed_count;
      return Status::OK();
    });
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(replayed_count, 0u) << "open " << open;
    EXPECT_EQ(stats->truncated, open == 0 ? 1u : 0u) << "open " << open;
  }
}

TEST_F(WalTest, GarbageFileIsTruncatedNotParsed) {
  const std::string path = Path("garbage.wal");
  {
    std::ofstream f(path, std::ios::binary);
    const char junk[] = "this was never a WAL, not even close, but is long enough";
    f.write(junk, sizeof(junk));
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  size_t replayed_count = 0;
  auto stats = wal->Replay(0, [&](const Record&) {
    ++replayed_count;
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(replayed_count, 0u);
  EXPECT_EQ(stats->truncated, 1u);
  // The rewritten header makes the file a usable log again.
  ASSERT_TRUE(wal->Append(Delete(1, 5)).ok());
  ASSERT_TRUE(wal->Sync().ok());
}

}  // namespace
}  // namespace c2lsh
