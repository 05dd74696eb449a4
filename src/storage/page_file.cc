#include "src/storage/page_file.h"

#include <cstring>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/vector/crc32c.h"

namespace c2lsh {

namespace {

// Process-wide I/O counters; resolved once, bumped per page operation (the
// operations are real I/O, so the relaxed atomic increment is noise).
struct FileMetrics {
  obs::Counter* reads;
  obs::Counter* writes;
  obs::Counter* crc_failures;
  obs::Counter* syncs;
};

const FileMetrics& Metrics() {
  static const FileMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    FileMetrics mm;
    mm.reads = r.GetCounter("page_file_reads_total", "pages read from disk");
    mm.writes = r.GetCounter("page_file_writes_total",
                             "pages written to disk (including allocations)");
    mm.crc_failures = r.GetCounter(
        "page_file_crc_failures_total",
        "page reads rejected by an integrity check (truncation, footer id, CRC)");
    mm.syncs = r.GetCounter("page_file_syncs_total", "durable sync barriers completed");
    return mm;
  }();
  return m;
}

// v1 (pre-checksum, stdio-era) files start with this magic; they carry no
// page checksums and no shadow header, so they are rejected rather than
// silently misread.
constexpr uint64_t kPageFileMagicV1 = 0xC25F11E0'0000A001ULL;
constexpr uint64_t kPageFileMagic = 0xC25F11E0'0000A002ULL;
constexpr uint32_t kPageFileVersionV2 = 2;  ///< pre-user_root slots, still read
constexpr uint32_t kPageFileVersion = 3;

constexpr size_t kHeaderSlotBytes = 256;
constexpr size_t kHeaderRegionBytes = 2 * kHeaderSlotBytes;
constexpr size_t kPageFooterBytes = sizeof(uint32_t) + sizeof(uint32_t);
constexpr size_t kMinPageBytes = 64;
constexpr size_t kMaxPageBytes = 1u << 26;

// Header slot wire layout (little-endian host order, like every other
// on-disk struct in the library): the checksummed prefix, then its CRC.
struct HeaderFields {
  uint64_t magic;
  uint32_t version;
  uint32_t page_bytes;
  uint64_t num_pages;
  uint64_t generation;
  uint64_t user_root;  ///< v3+; decodes as 0 from a v2 slot
};
static_assert(sizeof(HeaderFields) == 40);

// A v2 slot checksums only the first five fields (32 bytes); v3 includes
// user_root (40 bytes). The CRC sits immediately after the checksummed
// prefix in both layouts.
constexpr size_t kHeaderPrefixBytesV2 = sizeof(HeaderFields) - sizeof(uint64_t);

void EncodeHeaderSlot(uint8_t* slot, const HeaderFields& h) {
  std::memset(slot, 0, kHeaderSlotBytes);
  std::memcpy(slot, &h, sizeof(h));
  const uint32_t crc = Crc32cMask(Crc32c(slot, sizeof(HeaderFields)));
  std::memcpy(slot + sizeof(HeaderFields), &crc, sizeof(crc));
}

/// Returns true iff `slot` holds a well-formed v2 or v3 header.
bool DecodeHeaderSlot(const uint8_t* slot, HeaderFields* h) {
  std::memset(h, 0, sizeof(*h));
  std::memcpy(h, slot, kHeaderPrefixBytesV2);  // magic..generation
  if (h->magic != kPageFileMagic) return false;
  size_t prefix = 0;
  if (h->version == kPageFileVersionV2) {
    prefix = kHeaderPrefixBytesV2;
  } else if (h->version == kPageFileVersion) {
    prefix = sizeof(HeaderFields);
    std::memcpy(&h->user_root, slot + kHeaderPrefixBytesV2, sizeof(h->user_root));
  } else {
    return false;
  }
  uint32_t stored = 0;
  std::memcpy(&stored, slot + prefix, sizeof(stored));
  if (Crc32cUnmask(stored) != Crc32c(slot, prefix)) return false;
  return h->page_bytes >= kMinPageBytes && h->page_bytes <= kMaxPageBytes;
}

void EncodePageFooter(uint8_t* footer, const void* payload, size_t page_bytes,
                      PageId id) {
  const uint32_t crc = Crc32cMask(Crc32c(payload, page_bytes));
  const uint32_t id32 = static_cast<uint32_t>(id);
  std::memcpy(footer, &crc, sizeof(crc));
  std::memcpy(footer + sizeof(crc), &id32, sizeof(id32));
}

}  // namespace

size_t PageFile::PhysicalPageBytes() const { return page_bytes_ + kPageFooterBytes; }

uint64_t PageFile::PageOffset(PageId id) const {
  return kHeaderRegionBytes + (id - 1) * PhysicalPageBytes();
}

Result<PageFile> PageFile::Create(const std::string& path, size_t page_bytes,
                                  Env* env) {
  if (env == nullptr) env = Env::Default();
  if (page_bytes < kMinPageBytes || page_bytes > kMaxPageBytes) {
    return Status::InvalidArgument("PageFile: unreasonable page size " +
                                   std::to_string(page_bytes));
  }
  C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> f, env->NewFile(path));
  PageFile pf(std::move(f), path, page_bytes, 0, /*generation=*/1,
              /*active_slot=*/0, /*user_root=*/0);
  // Slot 0 carries generation 1; slot 1 starts zeroed (invalid) and becomes
  // the target of the first Sync.
  C2LSH_RETURN_IF_ERROR(pf.WriteHeaderSlot(0, 1));
  std::vector<uint8_t> zeros(kHeaderSlotBytes, 0);
  C2LSH_RETURN_IF_ERROR(RetryTransient(pf.retry_policy_, &pf.retry_stats_, [&] {
    return pf.file_->WriteAt(kHeaderSlotBytes, zeros.data(), zeros.size());
  }));
  return pf;
}

Result<PageFile> PageFile::Open(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> f, env->OpenFile(path));

  uint8_t region[kHeaderRegionBytes] = {};
  size_t got = 0;
  // ReadFullyAt, so `got < kHeaderRegionBytes` can only mean the file truly
  // ends there (a legacy one-slot header), never a transient short read.
  C2LSH_RETURN_IF_ERROR(ReadFullyAt(*f, 0, region, sizeof(region), &got));

  HeaderFields slot[2];
  const bool valid0 = got >= kHeaderSlotBytes && DecodeHeaderSlot(region, &slot[0]);
  const bool valid1 =
      got >= kHeaderRegionBytes && DecodeHeaderSlot(region + kHeaderSlotBytes, &slot[1]);
  if (!valid0 && !valid1) {
    uint64_t first_word = 0;
    if (got >= sizeof(first_word)) std::memcpy(&first_word, region, sizeof(first_word));
    if (first_word == kPageFileMagicV1) {
      return Status::NotSupported(
          "PageFile: '" + path +
          "' uses the unchecksummed v1 format, which this build no longer reads; "
          "rebuild the index to migrate it to v2");
    }
    if (first_word == kPageFileMagic) {
      return Status::Corruption("PageFile: '" + path +
                                "' has a v2 magic but no valid header slot "
                                "(both copies torn or corrupt)");
    }
    return Status::Corruption("PageFile: '" + path + "' is not a page file");
  }

  // The valid slot with the highest generation is the durable truth.
  int active;
  if (valid0 && valid1) {
    active = slot[1].generation > slot[0].generation ? 1 : 0;
  } else {
    active = valid1 ? 1 : 0;
  }
  const HeaderFields& h = slot[active];

  PageFile pf(std::move(f), path, h.page_bytes, h.num_pages, h.generation, active,
              h.user_root);
  C2LSH_ASSIGN_OR_RETURN(uint64_t size, pf.file_->Size());
  const uint64_t need =
      kHeaderRegionBytes + h.num_pages * static_cast<uint64_t>(pf.PhysicalPageBytes());
  if (size < need) {
    return Status::Corruption(
        "PageFile: '" + path + "' header claims " + std::to_string(h.num_pages) +
        " pages (" + std::to_string(need) + " bytes) but the file holds only " +
        std::to_string(size) + " bytes (truncated)");
  }
  return pf;
}

Status PageFile::WriteHeaderSlot(int slot, uint64_t generation) {
  uint8_t buf[kHeaderSlotBytes];
  EncodeHeaderSlot(buf, HeaderFields{kPageFileMagic, kPageFileVersion,
                                     static_cast<uint32_t>(page_bytes_), num_pages_,
                                     generation, user_root_});
  return RetryTransient(retry_policy_, &retry_stats_, [&] {
    return file_->WriteAt(slot == 0 ? 0 : kHeaderSlotBytes, buf, sizeof(buf));
  });
}

Status PageFile::CheckPageId(PageId id) const {
  if (id == 0 || id > num_pages_) {
    return Status::OutOfRange("PageFile: page " + std::to_string(id) + " of " +
                              std::to_string(num_pages_) + " in '" + path_ + "'");
  }
  return Status::OK();
}

Result<PageId> PageFile::AllocatePage() {
  const PageId id = num_pages_ + 1;
  scratch_.assign(PhysicalPageBytes(), 0);
  EncodePageFooter(scratch_.data() + page_bytes_, scratch_.data(), page_bytes_, id);
  C2LSH_RETURN_IF_ERROR(RetryTransient(retry_policy_, &retry_stats_, [&] {
    return file_->WriteAt(PageOffset(id), scratch_.data(), scratch_.size());
  }));
  Metrics().writes->Increment();
  ++num_pages_;
  return id;
}

Status PageFile::ReadPage(PageId id, void* buf, const QueryContext* ctx) const {
  C2LSH_RETURN_IF_ERROR(CheckPageId(id));
  const size_t phys = PhysicalPageBytes();
  scratch_.resize(phys);
  size_t got = 0;
  C2LSH_RETURN_IF_ERROR(RetryTransient(retry_policy_, &retry_stats_, ctx, [&] {
    return ReadFullyAt(*file_, PageOffset(id), scratch_.data(), phys, &got);
  }));
  Metrics().reads->Increment();
  if (got < phys) {
    Metrics().crc_failures->Increment();
    return Status::Corruption("PageFile: page " + std::to_string(id) + " of '" +
                              path_ + "' is truncated (" + std::to_string(got) +
                              " of " + std::to_string(phys) +
                              " bytes; torn write or truncated file)");
  }
  uint32_t stored_crc = 0, stored_id = 0;
  std::memcpy(&stored_crc, scratch_.data() + page_bytes_, sizeof(stored_crc));
  std::memcpy(&stored_id, scratch_.data() + page_bytes_ + sizeof(stored_crc),
              sizeof(stored_id));
  if (stored_id != static_cast<uint32_t>(id)) {
    Metrics().crc_failures->Increment();
    return Status::Corruption("PageFile: page " + std::to_string(id) + " of '" +
                              path_ + "' carries footer id " +
                              std::to_string(stored_id) +
                              " (misdirected or torn write)");
  }
  if (Crc32cUnmask(stored_crc) != Crc32c(scratch_.data(), page_bytes_)) {
    Metrics().crc_failures->Increment();
    return Status::Corruption("PageFile: checksum mismatch on page " +
                              std::to_string(id) + " of '" + path_ +
                              "' (torn write or bit corruption)");
  }
  std::memcpy(buf, scratch_.data(), page_bytes_);
  return Status::OK();
}

Status PageFile::WritePage(PageId id, const void* buf) {
  obs::ScopedSpan write_span(obs::SpanSubsystem::kPageFile, "page_write");
  C2LSH_RETURN_IF_ERROR(CheckPageId(id));
  scratch_.resize(PhysicalPageBytes());
  std::memcpy(scratch_.data(), buf, page_bytes_);
  EncodePageFooter(scratch_.data() + page_bytes_, buf, page_bytes_, id);
  Metrics().writes->Increment();
  return RetryTransient(retry_policy_, &retry_stats_, [&] {
    return file_->WriteAt(PageOffset(id), scratch_.data(), scratch_.size());
  });
}

Status PageFile::Sync() {
  obs::ScopedSpan sync_span(obs::SpanSubsystem::kPageFile, "page_sync");
  // Data first: every page write must be durable before the header that
  // makes it reachable is published.
  C2LSH_RETURN_IF_ERROR(file_->Sync());
  const int target = 1 - active_slot_;
  const uint64_t next_generation = generation_ + 1;
  C2LSH_RETURN_IF_ERROR(WriteHeaderSlot(target, next_generation));
  C2LSH_RETURN_IF_ERROR(file_->Sync());
  active_slot_ = target;
  generation_ = next_generation;
  Metrics().syncs->Increment();
  return Status::OK();
}

}  // namespace c2lsh
