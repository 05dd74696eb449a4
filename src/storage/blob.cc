#include "src/storage/blob.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace c2lsh {

namespace {
constexpr size_t kChainHeader = sizeof(uint64_t) + sizeof(uint32_t);
}  // namespace

Result<PageId> WriteBlob(BufferPool* pool, const std::vector<uint8_t>& bytes) {
  if (pool == nullptr) {
    return Status::InvalidArgument("WriteBlob: pool is null");
  }
  const size_t payload_cap = pool->page_bytes() - kChainHeader;

  PageId first = 0;
  size_t offset = 0;
  BufferPool::PageHandle prev_handle;  // kept pinned so next-ptr can be patched
  do {
    PageId id = 0;
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool->NewPage(&id));
    if (first == 0) {
      first = id;
    } else {
      std::memcpy(prev_handle.mutable_data(), &id, sizeof(id));  // patch next
    }
    const uint32_t len =
        static_cast<uint32_t>(std::min(payload_cap, bytes.size() - offset));
    uint8_t* data = page.mutable_data();
    const uint64_t next = 0;  // patched by the following iteration if any
    std::memcpy(data, &next, sizeof(next));
    std::memcpy(data + sizeof(next), &len, sizeof(len));
    if (len > 0) {
      std::memcpy(data + kChainHeader, bytes.data() + offset, len);
    }
    offset += len;
    prev_handle = std::move(page);
  } while (offset < bytes.size());
  return first;
}

Result<std::vector<uint8_t>> ReadBlob(BufferPool* pool, PageId first) {
  if (pool == nullptr) {
    return Status::InvalidArgument("ReadBlob: pool is null");
  }
  const size_t payload_cap = pool->page_bytes() - kChainHeader;
  std::vector<uint8_t> out;
  PageId id = first;
  while (id != 0) {
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool->Fetch(id));
    const uint8_t* data = page.data();
    uint64_t next = 0;
    uint32_t len = 0;
    std::memcpy(&next, data, sizeof(next));
    std::memcpy(&len, data + sizeof(next), sizeof(len));
    if (len > payload_cap) {
      return Status::Corruption("ReadBlob: implausible chunk length");
    }
    // WriteBlob allocates a chain's pages in ascending order, so a link that
    // does not point forward is damage — and forward-only links cannot
    // cycle: the walk ends at the file's last page at the latest.
    if (next != 0 && next <= id) {
      return Status::Corruption("ReadBlob: page " + std::to_string(id) +
                                " links back to page " + std::to_string(next));
    }
    out.insert(out.end(), data + kChainHeader, data + kChainHeader + len);
    id = next;
  }
  return out;
}

}  // namespace c2lsh
