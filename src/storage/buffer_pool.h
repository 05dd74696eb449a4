// BufferPool: an LRU page cache over a PageFile with pin/unpin semantics —
// the component that turns logical page accesses into *measured* I/O. The
// disk-resident index counts pool misses as its I/O cost, which experiment
// D1 compares against the analytic PageModel predictions.

#pragma once
#ifndef C2LSH_STORAGE_BUFFER_POOL_H_
#define C2LSH_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/storage/page_file.h"
#include "src/util/mutex.h"
#include "src/util/query_context.h"
#include "src/util/result.h"

namespace c2lsh {

/// Cumulative pool statistics.
struct BufferPoolStats {
  uint64_t hits = 0;        ///< page found resident
  uint64_t misses = 0;      ///< page read from the file
  uint64_t evictions = 0;   ///< resident pages displaced
  uint64_t writebacks = 0;  ///< dirty pages flushed on eviction/FlushAll

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// An LRU buffer pool.
///
/// Thread-safety: all pool *metadata* operations (Fetch, NewPage, FlushAll,
/// pin/unpin via PageHandle, stats) are safe to call from multiple threads;
/// a single internal Mutex serializes them, including the PageFile I/O they
/// trigger. The *bytes* of a pinned page are not latched: concurrent readers
/// of one page are fine, but a writer (mutable_data) requires external
/// synchronization against other accessors of that same page, and FlushAll
/// must not run concurrently with in-place writers (it snapshots frame bytes
/// while the writer scribbles). The race-lane hammer test
/// (race_stress_test.cc) exercises exactly this contract under TSan.
///
/// Move is NOT thread-safe: both pools must be externally quiescent (no
/// concurrent operations, no live PageHandles on the source).
class BufferPool {
 public:
  /// `capacity_pages` frames are allocated eagerly. Must be >= 1.
  static Result<BufferPool> Create(PageFile* file, size_t capacity_pages);

  BufferPool(BufferPool&& other) noexcept;
  BufferPool& operator=(BufferPool&& other) noexcept;

  /// RAII pin: while alive, the page stays resident and its bytes stay
  /// valid. Unpins on destruction.
  class PageHandle {
   public:
    PageHandle() = default;
    PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
    PageHandle& operator=(PageHandle&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = other.pool_;
        frame_ = other.frame_;
        data_ = other.data_;
        other.pool_ = nullptr;
        other.data_ = nullptr;
      }
      return *this;
    }
    PageHandle(const PageHandle&) = delete;
    PageHandle& operator=(const PageHandle&) = delete;
    ~PageHandle() { Release(); }

    const uint8_t* data() const { return data_; }
    /// Mutable access marks the frame dirty.
    uint8_t* mutable_data();
    bool valid() const { return pool_ != nullptr; }

   private:
    friend class BufferPool;
    PageHandle(BufferPool* pool, size_t frame, uint8_t* data)
        : pool_(pool), frame_(frame), data_(data) {}
    void Release();

    BufferPool* pool_ = nullptr;
    size_t frame_ = 0;
    // Cached at pin time (under the pool mutex); stable while pinned, so
    // readers never need to touch guarded pool state.
    uint8_t* data_ = nullptr;
  };

  /// Pins page `id`, reading it from the file on a miss. Fails with
  /// ResourceExhausted-like Internal error if every frame is pinned. `ctx`
  /// (nullable) is forwarded to PageFile::ReadPage so transient-fault
  /// retries on a miss respect the query's deadline and cancellation.
  Result<PageHandle> Fetch(PageId id, const QueryContext* ctx = nullptr)
      EXCLUDES(mu_);

  /// Allocates a fresh page in the file and pins it (zeroed, dirty).
  Result<PageHandle> NewPage(PageId* id_out) EXCLUDES(mu_);

  /// Writes all dirty frames back and syncs the file.
  Status FlushAll() EXCLUDES(mu_);

  /// Snapshot of the counters (by value: a const reference would race with
  /// concurrent updates under the mutex).
  BufferPoolStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = BufferPoolStats();
  }
  size_t capacity() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return frames_.size();
  }
  /// Number of frames currently pinned (> 0 pins). Zero once every
  /// PageHandle has been released — the pin-leak assertion used by the
  /// cancellation tests.
  size_t PinnedFrames() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    size_t n = 0;
    for (const Frame& f : frames_) {
      if (f.pins > 0) ++n;
    }
    return n;
  }
  size_t page_bytes() const { return file_->page_bytes(); }
  /// Pages in the underlying file: the bound for any page run a parser
  /// reads from a blob.
  uint64_t num_pages() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return file_->num_pages();
  }

 private:
  struct Frame {
    PageId page = 0;  // 0 = empty
    uint32_t pins = 0;
    bool dirty = false;
    std::vector<uint8_t> data;
    std::list<size_t>::iterator lru_pos;  // valid iff unpinned & occupied
    bool in_lru = false;
  };

  BufferPool(PageFile* file, size_t capacity);

  /// Finds a frame for a new page: empty frame, else LRU-evict.
  Result<size_t> GrabFrame() REQUIRES(mu_);
  void Unpin(size_t frame) EXCLUDES(mu_);
  void MarkDirty(size_t frame) EXCLUDES(mu_);

  PageFile* file_;  // not owned; set at construction, immutable afterwards

  mutable Mutex mu_;
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  std::unordered_map<PageId, size_t> page_to_frame_ GUARDED_BY(mu_);
  std::list<size_t> lru_ GUARDED_BY(mu_);  // front = most recent
  BufferPoolStats stats_ GUARDED_BY(mu_);
};

}  // namespace c2lsh

#endif  // C2LSH_STORAGE_BUFFER_POOL_H_
