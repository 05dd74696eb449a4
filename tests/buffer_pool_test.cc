#include "src/storage/buffer_pool.h"

#include <cstring>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "src/storage/blob.h"
#include "src/util/random.h"

namespace c2lsh {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("c2lsh_bp_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    auto f = PageFile::Create((dir_ / "pool.pf").string(), 512);
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

TEST_F(BufferPoolTest, CreateValidation) {
  EXPECT_TRUE(BufferPool::Create(nullptr, 4).status().IsInvalidArgument());
  EXPECT_TRUE(BufferPool::Create(file_.get(), 0).status().IsInvalidArgument());
  EXPECT_TRUE(BufferPool::Create(file_.get(), 4).ok());
}

TEST_F(BufferPoolTest, NewPageWriteFetchRoundTrip) {
  auto pool = BufferPool::Create(file_.get(), 4);
  ASSERT_TRUE(pool.ok());
  PageId id = 0;
  {
    auto page = pool->NewPage(&id);
    ASSERT_TRUE(page.ok());
    std::memset(page->mutable_data(), 0x3C, 512);
  }
  ASSERT_TRUE(pool->FlushAll().ok());
  auto back = pool->Fetch(id);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(back->data()[i], 0x3C);
  }
}

TEST_F(BufferPoolTest, HitsAndMisses) {
  auto pool = BufferPool::Create(file_.get(), 4);
  ASSERT_TRUE(pool.ok());
  PageId a = 0, b = 0;
  { auto p = pool->NewPage(&a); ASSERT_TRUE(p.ok()); }
  { auto p = pool->NewPage(&b); ASSERT_TRUE(p.ok()); }
  pool->ResetStats();

  { auto p = pool->Fetch(a); ASSERT_TRUE(p.ok()); }  // hit (still resident)
  EXPECT_EQ(pool->stats().hits, 1u);
  EXPECT_EQ(pool->stats().misses, 0u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  auto pool = BufferPool::Create(file_.get(), 2);  // tiny pool
  ASSERT_TRUE(pool.ok());
  // Dirty page 1, then fill the pool with more pages to force eviction.
  PageId first = 0;
  {
    auto p = pool->NewPage(&first);
    ASSERT_TRUE(p.ok());
    std::memset(p->mutable_data(), 0x77, 512);
  }
  PageId other[3];
  for (auto& id : other) {
    auto p = pool->NewPage(&id);
    ASSERT_TRUE(p.ok());
  }
  EXPECT_GT(pool->stats().evictions, 0u);
  EXPECT_GT(pool->stats().writebacks, 0u);
  // The evicted dirty page must read back from the file intact.
  auto back = pool->Fetch(first);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(back->data()[i], 0x77);
  }
}

TEST_F(BufferPoolTest, LruKeepsHotPages) {
  auto pool = BufferPool::Create(file_.get(), 2);
  ASSERT_TRUE(pool.ok());
  PageId hot = 0, cold = 0, extra = 0;
  { auto p = pool->NewPage(&hot); ASSERT_TRUE(p.ok()); }
  { auto p = pool->NewPage(&cold); ASSERT_TRUE(p.ok()); }
  // Touch `hot` so `cold` is the LRU victim.
  { auto p = pool->Fetch(hot); ASSERT_TRUE(p.ok()); }
  { auto p = pool->NewPage(&extra); ASSERT_TRUE(p.ok()); }  // evicts cold
  pool->ResetStats();
  { auto p = pool->Fetch(hot); ASSERT_TRUE(p.ok()); }
  EXPECT_EQ(pool->stats().hits, 1u);
  { auto p = pool->Fetch(cold); ASSERT_TRUE(p.ok()); }
  EXPECT_EQ(pool->stats().misses, 1u);
}

TEST_F(BufferPoolTest, AllFramesPinnedFails) {
  auto pool = BufferPool::Create(file_.get(), 2);
  ASSERT_TRUE(pool.ok());
  PageId a = 0, b = 0, c = 0;
  auto p1 = pool->NewPage(&a);
  auto p2 = pool->NewPage(&b);
  ASSERT_TRUE(p1.ok() && p2.ok());
  // Both frames pinned: a third page cannot be placed.
  EXPECT_TRUE(pool->NewPage(&c).status().IsInternal());
}

TEST_F(BufferPoolTest, AllFramesPinnedFetchFails) {
  auto pool = BufferPool::Create(file_.get(), 2);
  ASSERT_TRUE(pool.ok());
  PageId a = 0, b = 0, c = 0;
  // Create a third page first so there is something unpinned to fetch.
  { auto p = pool->NewPage(&c); ASSERT_TRUE(p.ok()); }
  auto p1 = pool->NewPage(&a);
  auto p2 = pool->NewPage(&b);
  ASSERT_TRUE(p1.ok() && p2.ok());
  // Every frame is pinned: Fetch of an evicted page has no frame to land in.
  EXPECT_TRUE(pool->Fetch(c).status().IsInternal());
  // Releasing one pin makes the fetch succeed.
  { BufferPool::PageHandle release = std::move(p1).value(); }
  EXPECT_TRUE(pool->Fetch(c).ok());
}

TEST_F(BufferPoolTest, PageHandleMoveTransfersThePin) {
  auto pool = BufferPool::Create(file_.get(), 2);
  ASSERT_TRUE(pool.ok());
  PageId id = 0;
  auto page = pool->NewPage(&id);
  ASSERT_TRUE(page.ok());

  BufferPool::PageHandle h = std::move(page).value();
  ASSERT_TRUE(h.valid());
  const uint8_t* bytes = h.data();

  BufferPool::PageHandle moved(std::move(h));
  EXPECT_FALSE(h.valid());  // NOLINT(bugprone-use-after-move): documented
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(moved.data(), bytes);

  BufferPool::PageHandle assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(moved.valid());  // NOLINT(bugprone-use-after-move): documented
  ASSERT_TRUE(assigned.valid());
  EXPECT_EQ(assigned.data(), bytes);
}

TEST_F(BufferPoolTest, PageHandleSelfMoveIsSafe) {
  auto pool = BufferPool::Create(file_.get(), 2);
  ASSERT_TRUE(pool.ok());
  PageId id = 0;
  auto page = pool->NewPage(&id);
  ASSERT_TRUE(page.ok());
  BufferPool::PageHandle h = std::move(page).value();
  // Through a reference so the self-move is not flagged by -Wself-move; the
  // guard under test is the one in operator=.
  BufferPool::PageHandle& alias = h;
  alias = std::move(h);
  ASSERT_TRUE(h.valid());  // self-move must not release the pin
  // The pin is still counted exactly once: dropping it frees the frame.
  { BufferPool::PageHandle release = std::move(h); }
  PageId a = 0, b = 0;
  auto p1 = pool->NewPage(&a);
  auto p2 = pool->NewPage(&b);
  EXPECT_TRUE(p1.ok() && p2.ok());  // both frames available again
}

TEST_F(BufferPoolTest, WritebackStatsOnDirtyReleasedEviction) {
  auto pool = BufferPool::Create(file_.get(), 2);
  ASSERT_TRUE(pool.ok());
  PageId dirty = 0;
  {
    auto p = pool->NewPage(&dirty);  // pinned...
    ASSERT_TRUE(p.ok());
    std::memset(p->mutable_data(), 0x9D, 512);
  }  // ...then released, still dirty and resident
  pool->ResetStats();
  // Force its eviction via Fetch pressure (not NewPage).
  PageId a = 0, b = 0;
  { auto p = pool->NewPage(&a); ASSERT_TRUE(p.ok()); }
  { auto p = pool->NewPage(&b); ASSERT_TRUE(p.ok()); }
  { auto p = pool->Fetch(a); ASSERT_TRUE(p.ok()); }
  EXPECT_GE(pool->stats().evictions, 1u);
  EXPECT_EQ(pool->stats().writebacks, 1u);  // only the dirty page wrote back
  // And the writeback preserved the bytes.
  auto back = pool->Fetch(dirty);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < 512; ++i) EXPECT_EQ(back->data()[i], 0x9D);
}

TEST_F(BufferPoolTest, HitRate) {
  BufferPoolStats s;
  EXPECT_DOUBLE_EQ(s.HitRate(), 0.0);
  s.hits = 3;
  s.misses = 1;
  EXPECT_DOUBLE_EQ(s.HitRate(), 0.75);
}

TEST_F(BufferPoolTest, BlobRoundTripSmall) {
  auto pool = BufferPool::Create(file_.get(), 8);
  ASSERT_TRUE(pool.ok());
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto root = WriteBlob(&pool.value(), payload);
  ASSERT_TRUE(root.ok());
  auto back = ReadBlob(&pool.value(), root.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
}

TEST_F(BufferPoolTest, BlobRoundTripMultiPage) {
  auto pool = BufferPool::Create(file_.get(), 8);
  ASSERT_TRUE(pool.ok());
  Rng rng(5);
  std::vector<uint8_t> payload(512 * 7 + 123);  // spans many 512B pages
  for (auto& b : payload) b = static_cast<uint8_t>(rng.Next64());
  auto root = WriteBlob(&pool.value(), payload);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(pool->FlushAll().ok());
  auto back = ReadBlob(&pool.value(), root.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
}

TEST_F(BufferPoolTest, BlobEmpty) {
  auto pool = BufferPool::Create(file_.get(), 4);
  ASSERT_TRUE(pool.ok());
  auto root = WriteBlob(&pool.value(), {});
  ASSERT_TRUE(root.ok());
  auto back = ReadBlob(&pool.value(), root.value());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

// A chain link must point forward (WriteBlob allocates ascending pages), so
// a self-link is Corruption at once — not a walk bounded only by a guard.
TEST_F(BufferPoolTest, BlobLinkThatDoesNotPointForwardIsCorruption) {
  auto pool = BufferPool::Create(file_.get(), 8);
  ASSERT_TRUE(pool.ok());
  std::vector<uint8_t> payload(512 * 3, 0x5A);
  auto root = WriteBlob(&pool.value(), payload);
  ASSERT_TRUE(root.ok());
  {
    auto page = pool->Fetch(root.value());
    ASSERT_TRUE(page.ok());
    const uint64_t next = root.value();
    const uint32_t len = 0;
    std::memcpy(page->mutable_data(), &next, sizeof(next));
    std::memcpy(page->mutable_data() + sizeof(next), &len, sizeof(len));
  }
  EXPECT_TRUE(ReadBlob(&pool.value(), root.value()).status().IsCorruption());
}

TEST_F(BufferPoolTest, ByteReaderRejectsAnArrayCountThatWouldWrap) {
  ByteBuffer buf;
  const uint64_t words[3] = {1, 2, 3};
  buf.PutArray(words, 3);
  ByteReader r(&buf.bytes());
  uint64_t out[3] = {};
  // count * sizeof(uint64_t) wraps to 8 bytes; the reader must see the count.
  const size_t forged = std::numeric_limits<size_t>::max() / sizeof(uint64_t) + 2;
  EXPECT_FALSE(r.GetArray(out, forged));
  EXPECT_EQ(r.remaining(), sizeof(words));
  EXPECT_TRUE(r.GetArray(out, 3));
  EXPECT_TRUE(r.exhausted());
}

TEST_F(BufferPoolTest, ByteBufferReaderRoundTrip) {
  ByteBuffer buf;
  buf.Put<uint32_t>(7);
  buf.Put<double>(3.5);
  const int arr[3] = {1, 2, 3};
  buf.PutArray(arr, 3);

  ByteReader r(&buf.bytes());
  uint32_t u = 0;
  double d = 0;
  int back[3] = {};
  EXPECT_TRUE(r.Get(&u));
  EXPECT_TRUE(r.Get(&d));
  EXPECT_TRUE(r.GetArray(back, 3));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(u, 7u);
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_EQ(back[2], 3);
  // Reading past the end fails cleanly.
  EXPECT_FALSE(r.Get(&u));
}

}  // namespace
}  // namespace c2lsh
