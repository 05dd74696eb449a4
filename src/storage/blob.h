// Chained byte blobs over a BufferPool: arbitrary-length metadata (index
// headers, serialized directories) stored as a linked list of pages, each
// [next: u64][len: u32][payload]. Used by the disk-resident index for
// everything that is not a fixed-layout entry page.

#pragma once
#ifndef C2LSH_STORAGE_BLOB_H_
#define C2LSH_STORAGE_BLOB_H_

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/util/result.h"

namespace c2lsh {

/// Writes `bytes` as a page chain; returns the first page id. Empty blobs
/// are valid (a single page with len 0).
Result<PageId> WriteBlob(BufferPool* pool, const std::vector<uint8_t>& bytes);

/// Reads a chain written by WriteBlob.
Result<std::vector<uint8_t>> ReadBlob(BufferPool* pool, PageId first);

/// Append-only byte buffer with trivially-copyable put/get helpers, used to
/// build blob payloads.
class ByteBuffer {
 public:
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  template <typename T>
  void PutArray(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + count * sizeof(T));
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

/// Sequential reader over a byte vector; Get returns false past the end.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>* bytes) : bytes_(bytes) {}

  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > bytes_->size()) return false;
    std::memcpy(v, bytes_->data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  template <typename T>
  bool GetArray(T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) return false;  // no count * size wrap
    const size_t total = count * sizeof(T);
    if (total > 0) std::memcpy(data, bytes_->data() + pos_, total);
    pos_ += total;
    return true;
  }
  /// Bytes not yet read: the bound for any count parsed from the blob.
  size_t remaining() const { return bytes_->size() - pos_; }
  bool exhausted() const { return pos_ == bytes_->size(); }

 private:
  const std::vector<uint8_t>* bytes_;
  size_t pos_ = 0;
};

}  // namespace c2lsh

#endif  // C2LSH_STORAGE_BLOB_H_
