#include "src/storage/wal.h"

#include <cstring>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/storage/blob.h"
#include "src/vector/crc32c.h"

namespace c2lsh {

namespace {

// Mutation-durability counters, resolved once per process. Appends are real
// I/O, so the relaxed atomic increment is noise.
struct WalMetrics {
  obs::Counter* appended;
  obs::Counter* syncs;
  obs::Counter* replay_applied;
  obs::Counter* replay_skipped;
  obs::Counter* replay_truncated;
};

const WalMetrics& Metrics() {
  static const WalMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return WalMetrics{
        r.GetCounter("wal_records_appended_total",
                     "Mutation records appended to a write-ahead log"),
        r.GetCounter("wal_syncs_total", "WAL durability barriers completed"),
        r.GetCounter("wal_replay_applied_total",
                     "WAL records re-applied during recovery replay"),
        r.GetCounter("wal_replay_skipped_total",
                     "WAL records skipped at replay (lsn already folded by "
                     "a compaction)"),
        r.GetCounter("wal_replay_truncated_total",
                     "Torn or corrupt WAL tails truncated at replay"),
    };
  }();
  return m;
}

constexpr uint64_t kWalMagic = 0xC25DE17A'0000B001ULL;
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 16;
constexpr size_t kFrameHeaderBytes = sizeof(uint32_t) + sizeof(uint32_t);
// Body = lsn + type + (id [+ dim + floats]); anything larger than
// WriteAheadLog::kMaxBodyBytes is garbage masquerading as a length field.
constexpr size_t kMaxBodyBytes = WriteAheadLog::kMaxBodyBytes;

void EncodeWalHeader(uint8_t* buf) {
  std::memset(buf, 0, kWalHeaderBytes);
  std::memcpy(buf, &kWalMagic, sizeof(kWalMagic));
  std::memcpy(buf + sizeof(kWalMagic), &kWalVersion, sizeof(kWalVersion));
}

bool DecodeWalHeader(const uint8_t* buf) {
  uint64_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, buf, sizeof(magic));
  std::memcpy(&version, buf + sizeof(magic), sizeof(version));
  return magic == kWalMagic && version == kWalVersion;
}

}  // namespace

Result<WriteAheadLog> WriteAheadLog::Open(std::string path, Env* env) {
  if (env == nullptr) env = Env::Default();
  if (env->FileExists(path)) {
    C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> f, env->OpenFile(path));
    // The append offset is provisional until Replay() walks the frames.
    return WriteAheadLog(std::move(f), std::move(path), env, kWalHeaderBytes);
  }
  C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> f, env->NewFile(path));
  WriteAheadLog wal(std::move(f), std::move(path), env, kWalHeaderBytes);
  uint8_t header[kWalHeaderBytes];
  EncodeWalHeader(header);
  C2LSH_RETURN_IF_ERROR(RetryTransient(wal.retry_policy_, &wal.retry_stats_, [&] {
    return wal.file_->WriteAt(0, header, sizeof(header));
  }));
  return wal;
}

Result<WriteAheadLog::ReplayStats> WriteAheadLog::Replay(
    uint64_t applied_lsn, const std::function<Status(const Record&)>& fn) {
  obs::ScopedSpan replay_span(obs::SpanSubsystem::kWal, "wal_replay");
  ReplayStats stats;
  C2LSH_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  std::vector<uint8_t> bytes(size);
  if (size > 0) {
    size_t got = 0;
    // ReadFullyAt: a transient mid-file short read must not shrink `bytes`
    // here — the resize below would silently drop acknowledged records off
    // the tail, which replay would then treat as a (legal) truncation.
    C2LSH_RETURN_IF_ERROR(RetryTransient(retry_policy_, &retry_stats_, [&] {
      return ReadFullyAt(*file_, 0, bytes.data(), bytes.size(), &got);
    }));
    bytes.resize(got);
  }

  if (bytes.size() < kWalHeaderBytes || !DecodeWalHeader(bytes.data())) {
    // A torn or missing header can only come from a crash at creation (or a
    // file that was never a WAL): nothing in it was ever acknowledged, so
    // start over with a fresh header. Anything beyond a well-formed header
    // is a truncation event.
    if (!bytes.empty()) stats.truncated = 1;
    uint8_t header[kWalHeaderBytes];
    EncodeWalHeader(header);
    C2LSH_RETURN_IF_ERROR(RetryTransient(retry_policy_, &retry_stats_, [&] {
      return file_->WriteAt(0, header, sizeof(header));
    }));
    append_offset_ = kWalHeaderBytes;
    Metrics().replay_truncated->Increment(stats.truncated);
    return stats;
  }

  size_t off = kWalHeaderBytes;
  while (off + kFrameHeaderBytes <= bytes.size()) {
    uint32_t stored_crc = 0, len = 0;
    std::memcpy(&stored_crc, bytes.data() + off, sizeof(stored_crc));
    std::memcpy(&len, bytes.data() + off + sizeof(stored_crc), sizeof(len));
    if (len == 0 || len > kMaxBodyBytes ||
        off + kFrameHeaderBytes + len > bytes.size()) {
      break;  // torn tail
    }
    const uint8_t* body = bytes.data() + off + kFrameHeaderBytes;
    if (Crc32cUnmask(stored_crc) != Crc32c(body, len)) break;

    std::vector<uint8_t> body_bytes(body, body + len);
    ByteReader r(&body_bytes);
    Record rec;
    uint8_t type = 0;
    if (!r.Get(&rec.lsn) || !r.Get(&type)) break;
    // Monotonicity is part of the format: a frame that repeats or rewinds
    // the LSN can only be a resurrected stale write — cut it off.
    if (rec.lsn <= last_lsn_) break;
    if (type == static_cast<uint8_t>(RecordType::kInsert)) {
      rec.type = RecordType::kInsert;
      uint32_t dim = 0;
      // Bound dim by the frame's actual length, not just kMaxBodyBytes: the
      // resize below happens before GetArray validates, so a forged dim in
      // a short frame must not buy a large zero-filled allocation.
      if (!r.Get(&rec.id) || !r.Get(&dim) || dim > len / sizeof(float)) break;
      rec.vec.resize(dim);
      if (!r.GetArray(rec.vec.data(), rec.vec.size()) || !r.exhausted()) break;
    } else if (type == static_cast<uint8_t>(RecordType::kDelete)) {
      rec.type = RecordType::kDelete;
      if (!r.Get(&rec.id) || !r.exhausted()) break;
    } else {
      break;  // unknown record type: written by no version of this code
    }

    last_lsn_ = rec.lsn;
    if (rec.lsn <= applied_lsn) {
      ++stats.skipped;
    } else {
      C2LSH_RETURN_IF_ERROR(fn(rec));
      ++stats.applied;
    }
    off += kFrameHeaderBytes + len;
  }

  if (off < bytes.size()) stats.truncated = 1;
  append_offset_ = off;
  Metrics().replay_applied->Increment(stats.applied);
  Metrics().replay_skipped->Increment(stats.skipped);
  Metrics().replay_truncated->Increment(stats.truncated);
  return stats;
}

Status WriteAheadLog::Append(const Record& rec) {
  obs::ScopedSpan append_span(obs::SpanSubsystem::kWal, "wal_append");
  if (rec.lsn <= last_lsn_) {
    return Status::InvalidArgument(
        "WAL: append lsn " + std::to_string(rec.lsn) +
        " does not advance past " + std::to_string(last_lsn_));
  }
  // Mirror of the encoding below; checked before the body is built so a
  // hopeless record costs no allocation. Replay() truncates any frame whose
  // length exceeds kMaxBodyBytes as a torn tail — writing one would silently
  // drop this acknowledged record and everything appended after it.
  const size_t body_bytes =
      sizeof(rec.lsn) + sizeof(uint8_t) + sizeof(rec.id) +
      (rec.type == RecordType::kInsert
           ? sizeof(uint32_t) + rec.vec.size() * sizeof(float)
           : 0);
  if (body_bytes > kMaxBodyBytes) {
    return Status::InvalidArgument(
        "WAL: record body of " + std::to_string(body_bytes) +
        " bytes exceeds the replayable maximum of " +
        std::to_string(kMaxBodyBytes) + " (vector too large for one record)");
  }
  ByteBuffer body;
  body.Put(rec.lsn);
  body.Put(static_cast<uint8_t>(rec.type));
  body.Put(rec.id);
  if (rec.type == RecordType::kInsert) {
    body.Put(static_cast<uint32_t>(rec.vec.size()));
    body.PutArray(rec.vec.data(), rec.vec.size());
  }
  const std::vector<uint8_t>& b = body.bytes();
  const uint32_t crc = Crc32cMask(Crc32c(b.data(), b.size()));
  const uint32_t len = static_cast<uint32_t>(b.size());
  scratch_.resize(kFrameHeaderBytes + b.size());
  std::memcpy(scratch_.data(), &crc, sizeof(crc));
  std::memcpy(scratch_.data() + sizeof(crc), &len, sizeof(len));
  std::memcpy(scratch_.data() + kFrameHeaderBytes, b.data(), b.size());
  C2LSH_RETURN_IF_ERROR(RetryTransient(retry_policy_, &retry_stats_, [&] {
    return file_->WriteAt(append_offset_, scratch_.data(), scratch_.size());
  }));
  append_offset_ += scratch_.size();
  last_lsn_ = rec.lsn;
  Metrics().appended->Increment();
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  obs::ScopedSpan sync_span(obs::SpanSubsystem::kWal, "wal_sync");
  C2LSH_RETURN_IF_ERROR(RetryTransient(retry_policy_, &retry_stats_, [&] {
    return file_->Sync();
  }));
  Metrics().syncs->Increment();
  return Status::OK();
}

Status WriteAheadLog::Reset() {
  // Physical reset: delete + recreate, never a logical rewind — a shorter
  // log sharing bytes with an older, longer one could let a stale valid
  // frame reappear past the new tail. last_lsn_ is retained so LSNs keep
  // increasing across the reset (replay idempotence leans on that).
  file_.reset();
  C2LSH_RETURN_IF_ERROR(env_->DeleteFile(path_));
  C2LSH_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> f, env_->NewFile(path_));
  file_ = std::move(f);
  append_offset_ = kWalHeaderBytes;
  uint8_t header[kWalHeaderBytes];
  EncodeWalHeader(header);
  return RetryTransient(retry_policy_, &retry_stats_, [&] {
    return file_->WriteAt(0, header, sizeof(header));
  });
}

}  // namespace c2lsh
