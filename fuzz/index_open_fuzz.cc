// Fuzz target: C2lshIndex::Open over attacker-controlled bytes.
//
// Opening an index file runs every index-file parser: the PageFile header,
// the meta blob (options, m, dim, hash functions, table roots), each table's
// directory blob, the entry pages and the WAL replay. Forged counts in the
// blobs must fail with Corruption, not allocate terabytes or read past a
// buffer.
//
// Input: [u64 n][n bytes: the index page file][rest: its WAL]. A prefix
// that claims more bytes than follow gives the page file the whole rest
// and no WAL.
//
// Page footers carry a CRC-32C, so a blind mutation inside a page would
// almost never get past ReadPage and the meta and directory parsers would go
// unfuzzed. The harness therefore re-stamps every page footer (masked CRC of
// the mutated payload, the page's own id) before the open, using the v3
// layout: two 256-byte header slots, then pages of page_bytes + an 8-byte
// footer, page_bytes read from slot 0. The header slots keep their CRCs
// (page_header_fuzz covers that parser), and so do WAL records
// (wal_replay_fuzz).
//
// When Open accepts the input, recovery must be stable: a second Open of the
// same files (after the first truncated any torn WAL tail) must succeed with
// the same shape. A failure there is a bug — abort().

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "fuzz/mem_env.h"
#include "src/core/index.h"
#include "src/vector/crc32c.h"

namespace {

constexpr size_t kMaxInput = 1 << 20;
constexpr size_t kHeaderRegionBytes = 512;
constexpr size_t kFooterBytes = 8;
constexpr size_t kPageBytesOffset = 12;  // slot 0: magic u64, version u32, page_bytes u32
constexpr uint32_t kMinPageBytes = 64;
constexpr uint32_t kMaxPageBytes = 1 << 16;

void RestampPageFooters(std::vector<uint8_t>* file) {
  if (file->size() < kHeaderRegionBytes) return;
  uint32_t page_bytes = 0;
  std::memcpy(&page_bytes, file->data() + kPageBytesOffset, sizeof(page_bytes));
  if (page_bytes < kMinPageBytes || page_bytes > kMaxPageBytes) return;
  const size_t phys = page_bytes + kFooterBytes;
  uint32_t id = 1;
  for (size_t off = kHeaderRegionBytes; off + phys <= file->size(); off += phys, ++id) {
    uint8_t* page = file->data() + off;
    const uint32_t crc = c2lsh::Crc32cMask(c2lsh::Crc32c(page, page_bytes));
    std::memcpy(page + page_bytes, &crc, sizeof(crc));
    std::memcpy(page + page_bytes + sizeof(crc), &id, sizeof(id));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput || size < sizeof(uint64_t)) return 0;
  uint64_t file_len = 0;
  std::memcpy(&file_len, data, sizeof(file_len));
  const uint8_t* rest = data + sizeof(file_len);
  const size_t rest_len = size - sizeof(file_len);
  if (file_len > rest_len) file_len = rest_len;

  std::vector<uint8_t> file(rest, rest + file_len);
  RestampPageFooters(&file);
  c2lsh::fuzz::MemEnv env;
  env.SetFileBytes("index", file.data(), file.size());
  if (file_len < rest_len) {
    env.SetFileBytes("index.wal", rest + file_len, rest_len - file_len);
  }

  auto opened = c2lsh::C2lshIndex::Open("index", &env);
  if (!opened.ok()) return 0;  // IOError/Corruption/NotSupported — valid outcomes

  auto again = c2lsh::C2lshIndex::Open("index", &env);
  if (!again.ok()) std::abort();
  if (again->num_objects() != opened->num_objects() ||
      again->num_tables() != opened->num_tables() || again->dim() != opened->dim() ||
      again->ComputeStats().entries_per_table != opened->ComputeStats().entries_per_table) {
    std::abort();
  }
  return 0;
}
