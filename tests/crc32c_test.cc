// CRC-32C, the checksum behind every persisted byte (src/vector/crc32c.h).
//
// Known answers pin the algorithm (Castagnoli polynomial, reflected, with
// the standard pre/post inversion), every dispatch target the host reaches
// is held bit-exact against the scalar table loop over lengths and
// misalignments that cover every word/tail split, and files written under
// one ISA are opened and replayed under another — the on-disk format must
// not depend on which kernel checksummed it.

#include "src/vector/crc32c.h"

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/page_file.h"
#include "src/storage/wal.h"
#include "src/util/random.h"
#include "src/vector/simd.h"

namespace c2lsh {
namespace {

// Restores the dispatch target a test forced, so test order does not matter.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::ActiveIsa()) {}
  ~IsaGuard() { simd::ForceIsa(saved_); }

 private:
  simd::Isa saved_;
};

uint32_t Crc(const std::vector<uint8_t>& bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

TEST(Crc32cTest, KnownAnswersOnEveryIsa) {
  IsaGuard guard;
  const std::string check = "123456789";
  std::vector<uint8_t> ascending(32), descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  for (simd::Isa isa : simd::SupportedIsas()) {
    ASSERT_TRUE(simd::ForceIsa(isa));
    SCOPED_TRACE(std::string(simd::IsaName(isa)));
    EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283U);
    EXPECT_EQ(Crc32c(nullptr, 0), 0U);
    // RFC 3720 (iSCSI) appendix B.4.
    EXPECT_EQ(Crc(std::vector<uint8_t>(32, 0x00)), 0x8A9136AAU);
    EXPECT_EQ(Crc(std::vector<uint8_t>(32, 0xFF)), 0x62A8AB43U);
    EXPECT_EQ(Crc(ascending), 0x46DD794EU);
    EXPECT_EQ(Crc(descending), 0x113FDB5CU);
  }
}

TEST(Crc32cTest, ChunkedSeedEqualsWholeStream) {
  IsaGuard guard;
  Rng rng(3720);
  std::vector<uint8_t> bytes(1000);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next64());
  for (simd::Isa isa : simd::SupportedIsas()) {
    ASSERT_TRUE(simd::ForceIsa(isa));
    const uint32_t whole = Crc32c(bytes.data(), bytes.size());
    for (size_t split : {0, 1, 7, 8, 9, 63, 500, 999, 1000}) {
      const uint32_t head = Crc32c(bytes.data(), split);
      EXPECT_EQ(Crc32c(bytes.data() + split, bytes.size() - split, head), whole)
          << simd::IsaName(isa) << " split " << split;
    }
  }
}

TEST(Crc32cTest, EveryIsaMatchesScalarAcrossLengthsAndOffsets) {
  const simd::Kernels* scalar = simd::KernelsFor(simd::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  constexpr size_t kMaxLen = 9000;
  constexpr size_t kMaxOffset = 63;
  Rng rng(20120612);
  std::vector<uint8_t> buf(kMaxLen + kMaxOffset);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next64());
  std::vector<uint32_t> want(kMaxLen + 1);
  for (size_t off = 0; off <= kMaxOffset; ++off) {
    const uint8_t* base = buf.data() + off;
    const uint32_t seed = static_cast<uint32_t>(off * 2654435761U);
    // The scalar CRC of every prefix at this offset, one byte at a time.
    want[0] = seed;
    for (size_t len = 1; len <= kMaxLen; ++len) {
      want[len] = scalar->crc32c(base + len - 1, 1, want[len - 1]);
    }
    for (simd::Isa isa : simd::SupportedIsas()) {
      if (isa == simd::Isa::kScalar) continue;
      const simd::Kernels* k = simd::KernelsFor(isa);
      ASSERT_NE(k, nullptr);
      size_t mismatches = 0;
      for (size_t len = 0; len <= kMaxLen; ++len) {
        if (k->crc32c(base, len, seed) != want[len]) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << simd::IsaName(isa) << " offset " << off;
    }
  }
}

TEST(Crc32cTest, MaskRoundTripsAndHidesZeroCrc) {
  for (uint32_t crc : {0U, 1U, 0xE3069283U, 0x7FFFFFFFU, 0xFFFFFFFFU}) {
    EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
  }
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t crc = static_cast<uint32_t>(rng.Next64());
    EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
  }
  EXPECT_NE(Crc32cMask(0), 0U);
}

class Crc32cFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_crc32c_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  // (writer, reader) pairs: scalar -> best and best -> scalar.
  static std::vector<std::pair<simd::Isa, simd::Isa>> IsaPairs() {
    const simd::Isa best = simd::SupportedIsas().back();
    return {{simd::Isa::kScalar, best}, {best, simd::Isa::kScalar}};
  }

  std::filesystem::path dir_;
};

TEST_F(Crc32cFormatTest, PageFileOpensUnderTheOtherIsa) {
  IsaGuard guard;
  for (const auto& [writer, reader] : IsaPairs()) {
    SCOPED_TRACE(std::string(simd::IsaName(writer)) + " -> " +
                 std::string(simd::IsaName(reader)));
    const std::string path = Path("cross.pf");
    std::vector<std::vector<uint8_t>> pages;
    ASSERT_TRUE(simd::ForceIsa(writer));
    {
      auto pf = PageFile::Create(path);
      ASSERT_TRUE(pf.ok()) << pf.status().ToString();
      Rng rng(static_cast<uint64_t>(writer) + 1);
      for (int p = 0; p < 4; ++p) {
        auto id = pf->AllocatePage();
        ASSERT_TRUE(id.ok());
        std::vector<uint8_t> page(pf->page_bytes());
        for (uint8_t& b : page) b = static_cast<uint8_t>(rng.Next64());
        ASSERT_TRUE(pf->WritePage(*id, page.data()).ok());
        pages.push_back(std::move(page));
      }
      pf->SetUserRoot(42);
      ASSERT_TRUE(pf->Sync().ok());
    }
    ASSERT_TRUE(simd::ForceIsa(reader));
    auto pf = PageFile::Open(path);
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    EXPECT_EQ(pf->user_root(), 42u);
    ASSERT_EQ(pf->num_pages(), pages.size());
    std::vector<uint8_t> got(pf->page_bytes());
    for (size_t p = 0; p < pages.size(); ++p) {
      ASSERT_TRUE(pf->ReadPage(static_cast<PageId>(p + 1), got.data()).ok());
      EXPECT_EQ(got, pages[p]) << "page " << p + 1;
    }
  }
}

TEST_F(Crc32cFormatTest, WalReplaysUnderTheOtherIsa) {
  IsaGuard guard;
  using Record = WriteAheadLog::Record;
  for (const auto& [writer, reader] : IsaPairs()) {
    SCOPED_TRACE(std::string(simd::IsaName(writer)) + " -> " +
                 std::string(simd::IsaName(reader)));
    const std::string path = Path("cross.wal");
    std::filesystem::remove(path);
    ASSERT_TRUE(simd::ForceIsa(writer));
    {
      auto wal = WriteAheadLog::Open(path);
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      for (uint64_t lsn = 1; lsn <= 6; ++lsn) {
        Record r;
        r.lsn = lsn;
        r.type = lsn % 3 == 0 ? WriteAheadLog::RecordType::kDelete
                              : WriteAheadLog::RecordType::kInsert;
        r.id = static_cast<ObjectId>(lsn * 10);
        if (r.type == WriteAheadLog::RecordType::kInsert) {
          r.vec.assign(lsn + 3, 0.5f * static_cast<float>(lsn));
        }
        ASSERT_TRUE(wal->Append(r).ok());
      }
      ASSERT_TRUE(wal->Sync().ok());
    }
    ASSERT_TRUE(simd::ForceIsa(reader));
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    std::vector<uint64_t> lsns;
    auto replayed = wal->Replay(0, [&](const Record& rec) {
      lsns.push_back(rec.lsn);
      if (rec.type == WriteAheadLog::RecordType::kInsert) {
        EXPECT_EQ(rec.vec.size(), rec.lsn + 3);
      }
      return Status::OK();
    });
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_EQ(replayed->applied, 6u);
    EXPECT_EQ(replayed->truncated, 0u);
    EXPECT_EQ(lsns, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  }
}

}  // namespace
}  // namespace c2lsh
