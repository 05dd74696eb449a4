#include "src/core/serialize.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/vector/crc32c.h"

namespace c2lsh {

namespace {

constexpr uint64_t kMagic = 0xC25123AA2012F00DULL;  // "C2LSH index, SIGMOD'12"
// v1 used a bitwise crc64 trailer and stdio; v2 shares the storage stack's
// crc32c and Env plumbing. v1 files are rejected, not misread.
constexpr uint32_t kVersion = 2;
constexpr size_t kBufBytes = 1u << 16;

/// Buffered sequential writer over a RandomAccessFile, checksumming every
/// payload byte with the shared CRC-32C.
class Writer {
 public:
  explicit Writer(RandomAccessFile* f) : f_(f) { buf_.reserve(kBufBytes); }

  template <typename T>
  bool Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Append(&v, sizeof(v));
  }
  template <typename T>
  bool PutArray(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    return count == 0 || Append(data, count * sizeof(T));
  }
  /// Appends the checksum trailer and flushes. The trailer itself is not
  /// part of the checksummed stream.
  bool Finish() {
    const uint32_t crc = Crc32cMask(crc_);
    const auto* p = reinterpret_cast<const uint8_t*>(&crc);
    buf_.insert(buf_.end(), p, p + sizeof(crc));
    return Flush() && f_->Sync().ok();
  }
  const Status& status() const { return status_; }

 private:
  bool Append(const void* data, size_t n) {
    crc_ = Crc32c(data, n, crc_);
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
    return buf_.size() < kBufBytes || Flush();
  }
  bool Flush() {
    if (buf_.empty()) return true;
    status_ = f_->WriteAt(offset_, buf_.data(), buf_.size());
    if (!status_.ok()) return false;
    offset_ += buf_.size();
    buf_.clear();
    return true;
  }

  RandomAccessFile* f_;
  uint64_t offset_ = 0;
  std::vector<uint8_t> buf_;
  uint32_t crc_ = 0;
  Status status_;
};

/// Buffered sequential reader; mirrors Writer's checksum accounting.
/// Constructed with the file's size so length fields parsed from the (still
/// unverified) stream can be sanity-bounded BEFORE anything is allocated —
/// the checksum trailer only proves integrity after the whole file is read,
/// so it cannot defend the parser against a forged multi-terabyte count.
class Reader {
 public:
  Reader(RandomAccessFile* f, uint64_t file_size) : f_(f), size_(file_size) {}

  /// Bytes the file can still supply (buffered + unread). Any section that
  /// claims to need more than this is corrupt, however plausible its count
  /// field looks.
  uint64_t RemainingBytes() const {
    // Defensive max(0): a concurrently truncated file must degrade to "no
    // bytes left", not underflow.
    const uint64_t unread = size_ > offset_ ? size_ - offset_ : 0;
    return unread + (avail_ - pos_);
  }

  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Read(v, sizeof(T))) return false;
    crc_ = Crc32c(v, sizeof(T), crc_);
    return true;
  }
  template <typename T>
  bool GetArray(T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return true;
    if (!Read(data, count * sizeof(T))) return false;
    crc_ = Crc32c(data, count * sizeof(T), crc_);
    return true;
  }
  bool VerifyChecksum() {
    uint32_t stored = 0;
    if (!Read(&stored, sizeof(stored))) return false;
    return Crc32cUnmask(stored) == crc_;
  }

 private:
  bool Read(void* out, size_t n) {
    auto* dst = static_cast<uint8_t*>(out);
    while (n > 0) {
      if (pos_ == avail_) {
        buf_.resize(kBufBytes);
        if (!f_->ReadAt(offset_, buf_.data(), buf_.size(), &avail_).ok()) return false;
        if (avail_ == 0) return false;  // end of file
        offset_ += avail_;
        pos_ = 0;
      }
      const size_t chunk = std::min(n, avail_ - pos_);
      std::memcpy(dst, buf_.data() + pos_, chunk);
      dst += chunk;
      pos_ += chunk;
      n -= chunk;
    }
    return true;
  }

  RandomAccessFile* f_;
  uint64_t offset_ = 0;
  uint64_t size_ = 0;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  size_t avail_ = 0;
  uint32_t crc_ = 0;
};

}  // namespace

Status SaveIndex(const std::string& path, C2lshIndex* index, Env* env) {
  if (index == nullptr) {
    return Status::InvalidArgument("SaveIndex: index is null");
  }
  if (env == nullptr) env = Env::Default();
  // Fold overlays/tombstones so the flat representation is the whole truth.
  index->Compact();

  C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> f, env->NewFile(path));
  Writer w(f.get());

  const C2lshOptions& opt = index->options();
  const C2lshDerived& d = index->derived();
  bool ok = w.Put(kMagic) && w.Put(kVersion);
  ok = ok && w.Put(opt.w) && w.Put(opt.c) && w.Put(opt.delta) && w.Put(opt.beta) &&
       w.Put(opt.max_radius_exponent) && w.Put(opt.seed) &&
       w.Put(static_cast<uint64_t>(opt.page_bytes));
  ok = ok && w.Put(d.model.w) && w.Put(d.model.c) && w.Put(d.model.p1) &&
       w.Put(d.model.p2) && w.Put(d.model.rho) && w.Put(d.beta) && w.Put(d.z) &&
       w.Put(d.alpha) && w.Put(static_cast<uint64_t>(d.m)) &&
       w.Put(static_cast<uint64_t>(d.l));
  ok = ok && w.Put(static_cast<uint32_t>(index->num_tables())) &&
       w.Put(static_cast<uint32_t>(index->dim())) &&
       w.Put(static_cast<uint64_t>(index->num_objects())) && w.Put(index->radius_cap());

  for (size_t i = 0; ok && i < index->num_tables(); ++i) {
    const PStableHash& h = index->family().function(i);
    ok = ok && w.PutArray(h.a().data(), h.a().size()) && w.Put(h.b()) && w.Put(h.w());
  }
  std::vector<int64_t> buckets;
  std::vector<ObjectId> ids;
  for (size_t i = 0; ok && i < index->num_tables(); ++i) {
    buckets.clear();
    ids.clear();
    index->table(i).ForEachEntry([&](BucketId b, ObjectId id) {
      buckets.push_back(b);
      ids.push_back(id);
    });
    ok = ok && w.Put(static_cast<uint64_t>(buckets.size())) &&
         w.PutArray(buckets.data(), buckets.size()) && w.PutArray(ids.data(), ids.size());
  }
  ok = ok && w.Finish();
  if (!ok) {
    std::string cause = w.status().ok() ? std::string("short write")
                                        : std::string(w.status().message());
    return Status::IOError("SaveIndex: writing '" + path + "' failed: " + cause);
  }
  return Status::OK();
}

Result<C2lshIndex> LoadIndex(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> f, env->OpenFile(path));
  C2LSH_ASSIGN_OR_RETURN(uint64_t file_size, f->Size());
  Reader r(f.get(), file_size);

  uint64_t magic = 0;
  uint32_t version = 0;
  if (!r.Get(&magic) || magic != kMagic) {
    return Status::Corruption("LoadIndex: '" + path + "' is not a C2LSH index file");
  }
  if (!r.Get(&version)) {
    return Status::Corruption("LoadIndex: truncated header in '" + path + "'");
  }
  if (version != kVersion) {
    return Status::NotSupported(
        "LoadIndex: '" + path + "' is format version " + std::to_string(version) +
        "; this build reads version " + std::to_string(kVersion) +
        " (the checksum format changed in v2 — rebuild and re-save the index)");
  }

  C2lshOptions opt;
  C2lshDerived d;
  uint64_t page_bytes = 0, m64 = 0, l64 = 0, num_objects = 0;
  uint32_t m32 = 0, dim32 = 0;
  long long radius_cap = 0;
  bool ok = r.Get(&opt.w) && r.Get(&opt.c) && r.Get(&opt.delta) && r.Get(&opt.beta) &&
            r.Get(&opt.max_radius_exponent) && r.Get(&opt.seed) && r.Get(&page_bytes);
  ok = ok && r.Get(&d.model.w) && r.Get(&d.model.c) && r.Get(&d.model.p1) &&
       r.Get(&d.model.p2) && r.Get(&d.model.rho) && r.Get(&d.beta) && r.Get(&d.z) &&
       r.Get(&d.alpha) && r.Get(&m64) && r.Get(&l64);
  ok = ok && r.Get(&m32) && r.Get(&dim32) && r.Get(&num_objects) && r.Get(&radius_cap);
  if (!ok) {
    return Status::Corruption("LoadIndex: truncated header in '" + path + "'");
  }
  opt.page_bytes = static_cast<size_t>(page_bytes);
  d.m = static_cast<size_t>(m64);
  d.l = static_cast<size_t>(l64);
  if (m32 != d.m || m32 == 0 || dim32 == 0) {
    return Status::Corruption("LoadIndex: inconsistent header in '" + path + "'");
  }

  // Bound every parsed count against the bytes the file can actually supply
  // before allocating. These fields are read ahead of the checksum trailer,
  // so a bit-flipped or malicious file can claim any m/dim/pair count it
  // likes — without this, a forged count turns into a giant allocation (and
  // its zero-fill) long before VerifyChecksum would reject the file.
  const uint64_t per_fn_bytes =
      uint64_t{dim32} * sizeof(float) + 2 * sizeof(double);
  if (m32 > r.RemainingBytes() / per_fn_bytes) {
    return Status::Corruption("LoadIndex: '" + path + "' claims " +
                              std::to_string(m32) + " hash functions of dim " +
                              std::to_string(dim32) +
                              " but is too small to hold them");
  }

  std::vector<PStableHash> funcs;
  funcs.reserve(m32);
  for (uint32_t i = 0; i < m32; ++i) {
    std::vector<float> a(dim32);
    double b = 0, w = 0;
    if (!r.GetArray(a.data(), a.size()) || !r.Get(&b) || !r.Get(&w)) {
      return Status::Corruption("LoadIndex: truncated hash function in '" + path + "'");
    }
    C2LSH_ASSIGN_OR_RETURN(PStableHash h, PStableHash::FromParts(std::move(a), b, w));
    funcs.push_back(std::move(h));
  }
  C2LSH_ASSIGN_OR_RETURN(PStableFamily family,
                         PStableFamily::FromFunctions(std::move(funcs)));

  std::vector<BucketTable> tables;
  tables.reserve(m32);
  for (uint32_t i = 0; i < m32; ++i) {
    uint64_t count = 0;
    constexpr uint64_t kPairBytes = sizeof(int64_t) + sizeof(ObjectId);
    if (!r.Get(&count) || count > r.RemainingBytes() / kPairBytes) {
      return Status::Corruption("LoadIndex: bad table size in '" + path + "'");
    }
    std::vector<int64_t> buckets(count);
    std::vector<ObjectId> ids(count);
    if (!r.GetArray(buckets.data(), count) || !r.GetArray(ids.data(), count)) {
      return Status::Corruption("LoadIndex: truncated table in '" + path + "'");
    }
    std::vector<std::pair<BucketId, ObjectId>> pairs;
    pairs.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      pairs.emplace_back(buckets[j], ids[j]);
    }
    tables.push_back(BucketTable::Build(std::move(pairs)));
  }

  if (!r.VerifyChecksum()) {
    return Status::Corruption("LoadIndex: checksum mismatch in '" + path +
                              "' (truncated or corrupted file)");
  }
  return C2lshIndex::FromParts(opt, d, std::move(family), std::move(tables),
                               static_cast<size_t>(num_objects), dim32, radius_cap);
}

}  // namespace c2lsh
