#include "src/core/disk_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/core/virtual_rehash.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/storage/blob.h"
#include "src/util/timer.h"
#include "src/vector/distance.h"

namespace c2lsh {

namespace {
// v1 meta blobs predate online mutability; v2 adds [applied_lsn u64]
// [stored_objects u64] after first_data_page. Open reads both (a v1 blob
// implies applied_lsn = 0 and stored_objects = n).
constexpr uint32_t kMetaMagic = 0xC25D1234;
constexpr uint32_t kMetaMagicV2 = 0xC25D1235;

// Registry handles for the disk query path, resolved once; RunDiskQuery
// flushes its per-query stats through these at the end of each query.
struct DiskMetrics {
  obs::Counter* queries;
  obs::Counter* rounds;
  obs::Counter* collision_increments;
  obs::Counter* candidates_verified;
  obs::Counter* buckets_scanned;
  obs::Counter* t1;
  obs::Counter* t2;
  obs::Counter* exhausted;
  obs::Counter* deadline;
  obs::Counter* cancelled;
  obs::Counter* degraded_queries;
  obs::Counter* tables_skipped;
  obs::Counter* candidates_skipped;
  obs::Histogram* latency;
  obs::Counter* compaction_runs;
  obs::Histogram* compaction_millis;
  obs::Gauge* overlay_entries;
  obs::Gauge* tombstones;
};

const DiskMetrics& Metrics() {
  static const DiskMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return DiskMetrics{
        r.GetCounter("disk_c2lsh_queries_total", "Disk C2LSH queries answered"),
        r.GetCounter("disk_c2lsh_rounds_total",
                     "Virtual-rehashing rounds executed by disk queries"),
        r.GetCounter("disk_c2lsh_collision_increments_total",
                     "Collision-counter increments (disk queries)"),
        r.GetCounter("disk_c2lsh_candidates_verified_total",
                     "Exact distance verifications (disk queries)"),
        r.GetCounter("disk_c2lsh_buckets_scanned_total",
                     "Hash buckets visited (disk queries)"),
        r.GetCounter("disk_c2lsh_queries_t1_total",
                     "Disk queries terminated by T1"),
        r.GetCounter("disk_c2lsh_queries_t2_total",
                     "Disk queries terminated by T2"),
        r.GetCounter("disk_c2lsh_queries_exhausted_total",
                     "Disk queries that covered every readable bucket"),
        r.GetCounter("disk_c2lsh_queries_deadline_total",
                     "Disk queries stopped by a deadline or page budget "
                     "(partial results)"),
        r.GetCounter("disk_c2lsh_queries_cancelled_total",
                     "Disk queries cooperatively cancelled (partial results)"),
        r.GetCounter("disk_c2lsh_degraded_queries_total",
                     "Disk queries answered while skipping corrupt pages"),
        r.GetCounter("disk_c2lsh_tables_skipped_total",
                     "Hash tables dropped mid-query on a corrupt index page"),
        r.GetCounter("disk_c2lsh_candidates_skipped_total",
                     "Candidates dropped mid-query on a corrupt data page"),
        r.GetHistogram("disk_c2lsh_query_millis",
                       "Disk C2LSH query latency in milliseconds"),
        r.GetCounter("disk_c2lsh_compaction_runs_total",
                     "Disk index compactions completed (WAL truncated)"),
        r.GetHistogram("disk_c2lsh_compaction_millis",
                       "Disk index compaction duration in milliseconds"),
        r.GetGauge("disk_c2lsh_overlay_entries",
                   "Disk-index dynamic inserts awaiting compaction, summed "
                   "over tables"),
        r.GetGauge("disk_c2lsh_tombstones",
                   "Disk-index objects deleted but not yet compacted away"),
    };
  }();
  return m;
}

void FlushDiskQueryMetrics(const DiskQueryStats& st, double millis,
                           uint64_t exemplar_id) {
  const DiskMetrics& m = Metrics();
  m.queries->Increment();
  m.rounds->Increment(st.base.rounds);
  m.collision_increments->Increment(st.base.collision_increments);
  m.candidates_verified->Increment(st.base.candidates_verified);
  m.buckets_scanned->Increment(st.base.buckets_scanned);
  switch (st.base.termination) {
    case Termination::kT1:
      m.t1->Increment();
      break;
    case Termination::kT2:
      m.t2->Increment();
      break;
    case Termination::kExhausted:
      m.exhausted->Increment();
      break;
    case Termination::kDeadline:
      m.deadline->Increment();
      break;
    case Termination::kCancelled:
      m.cancelled->Increment();
      break;
    case Termination::kNone:
      break;
  }
  if (st.degraded) m.degraded_queries->Increment();
  m.tables_skipped->Increment(st.tables_skipped);
  m.candidates_skipped->Increment(st.candidates_skipped);
  m.latency->Observe(millis, exemplar_id);
}

// Serializes the full index metadata (v2) and returns the blob's root page.
// Shared by Build and Compact so the two paths cannot drift.
Result<PageId> WriteMetaBlob(BufferPool* pool, const C2lshOptions& options,
                             const C2lshDerived& derived, size_t num_objects,
                             size_t dim, long long radius_cap,
                             PageId first_data_page, uint64_t applied_lsn,
                             size_t stored_objects, const PStableFamily& family,
                             const std::vector<PageId>& roots) {
  ByteBuffer meta;
  meta.Put(kMetaMagicV2);
  meta.Put(options.w);
  meta.Put(options.c);
  meta.Put(options.delta);
  meta.Put(options.beta);
  meta.Put(options.max_radius_exponent);
  meta.Put(options.seed);
  meta.Put(static_cast<uint64_t>(options.page_bytes));
  meta.Put(derived.model.w);
  meta.Put(derived.model.c);
  meta.Put(derived.model.p1);
  meta.Put(derived.model.p2);
  meta.Put(derived.model.rho);
  meta.Put(derived.beta);
  meta.Put(derived.z);
  meta.Put(derived.alpha);
  meta.Put(static_cast<uint64_t>(derived.m));
  meta.Put(static_cast<uint64_t>(derived.l));
  meta.Put(static_cast<uint64_t>(num_objects));
  meta.Put(static_cast<uint64_t>(dim));
  meta.Put(radius_cap);
  meta.Put(static_cast<uint64_t>(first_data_page));
  meta.Put(applied_lsn);
  meta.Put(static_cast<uint64_t>(stored_objects));
  for (size_t i = 0; i < derived.m; ++i) {
    const PStableHash& h = family.function(i);
    meta.PutArray(h.a().data(), h.a().size());
    meta.Put(h.b());
    meta.Put(h.w());
  }
  meta.PutArray(roots.data(), roots.size());
  return WriteBlob(pool, meta.bytes());
}

Status WriteSuperblock(BufferPool* pool, PageId meta_root) {
  C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool->Fetch(1));
  std::memcpy(page.mutable_data(), &meta_root, sizeof(meta_root));
  return Status::OK();
}

Result<PageId> ReadSuperblock(BufferPool* pool) {
  Result<BufferPool::PageHandle> page = pool->Fetch(1);
  if (!page.ok()) {
    if (page.status().IsCorruption()) return page.status();
    // An out-of-range page 1 means the header was never published (e.g. a
    // crash before the first Sync): the file is not a usable index.
    return Status::Corruption("DiskC2lshIndex: cannot read superblock (" +
                              std::string(page.status().message()) + ")");
  }
  PageId meta_root = 0;
  std::memcpy(&meta_root, page->data(), sizeof(meta_root));
  if (meta_root == 0) {
    return Status::Corruption("DiskC2lshIndex: empty superblock");
  }
  return meta_root;
}

}  // namespace

Result<DiskC2lshIndex> DiskC2lshIndex::Build(const Dataset& data,
                                             const C2lshOptions& options,
                                             const std::string& path,
                                             size_t pool_pages, bool store_vectors,
                                             Env* env) {
  C2LSH_ASSIGN_OR_RETURN(C2lshDerived derived, ComputeDerivedParams(options, data.size()));
  const long long radius_cap = RadiusCap(options.c, options.max_radius_exponent);
  C2LSH_ASSIGN_OR_RETURN(
      PStableFamily family,
      PStableFamily::Sample(derived.m, data.dim(), options.w, options.seed,
                            static_cast<double>(radius_cap)));

  DiskC2lshIndex index;
  C2LSH_ASSIGN_OR_RETURN(PageFile file,
                         PageFile::Create(path, options.page_bytes, env));
  index.file_ = std::make_unique<PageFile>(std::move(file));
  C2LSH_ASSIGN_OR_RETURN(BufferPool pool,
                         BufferPool::Create(index.file_.get(), pool_pages));
  index.pool_ = std::make_unique<BufferPool>(std::move(pool));

  // Reserve the superblock (page 1).
  {
    PageId sb = 0;
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, index.pool_->NewPage(&sb));
    (void)page;
    if (sb != 1) {
      return Status::Internal("DiskC2lshIndex: superblock landed on page " +
                              std::to_string(sb));
    }
  }

  // Data segment: the raw vectors, packed back to back across a contiguous
  // run of pages, so the index file is self-contained and verification I/O
  // is measured through the pool.
  if (store_vectors) {
    const size_t total_bytes = data.size() * data.dim() * sizeof(float);
    const size_t page_bytes = index.pool_->page_bytes();
    const auto* src = reinterpret_cast<const uint8_t*>(data.vectors().data().data());
    size_t offset = 0;
    while (offset < total_bytes || index.first_data_page_ == 0) {
      PageId id = 0;
      C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, index.pool_->NewPage(&id));
      if (index.first_data_page_ == 0) {
        index.first_data_page_ = id;
      } else if (id != index.first_data_page_ + offset / page_bytes) {
        return Status::Internal("DiskC2lshIndex: data pages not contiguous");
      }
      const size_t chunk = std::min(page_bytes, total_bytes - offset);
      std::memcpy(page.mutable_data(), src + offset, chunk);
      offset += chunk;
      if (offset >= total_bytes) break;
    }
  }

  // Tables.
  std::vector<PageId> roots;
  roots.reserve(derived.m);
  for (size_t i = 0; i < derived.m; ++i) {
    const std::vector<BucketId> buckets = family.BucketColumn(data.vectors(), i);
    std::vector<std::pair<BucketId, ObjectId>> pairs;
    pairs.reserve(buckets.size());
    for (size_t r = 0; r < buckets.size(); ++r) {
      pairs.emplace_back(buckets[r], static_cast<ObjectId>(r));
    }
    C2LSH_ASSIGN_OR_RETURN(DiskBucketTable table,
                           DiskBucketTable::Build(index.pool_.get(), std::move(pairs)));
    roots.push_back(table.root());
    index.tables_.push_back(std::move(table));
  }

  // Meta blob, published both through the superblock page (legacy location)
  // and the PageFile header's user_root (the atomic-publish primitive
  // Compact relies on; Open prefers it). Build is the only writer of the
  // superblock — everything here becomes durable in one FlushAll, so there
  // is no earlier image to protect; Compact must never rewrite it (see the
  // publish comment there).
  C2LSH_ASSIGN_OR_RETURN(
      PageId meta_root,
      WriteMetaBlob(index.pool_.get(), options, derived, data.size(), data.dim(),
                    radius_cap, index.first_data_page_, /*applied_lsn=*/0,
                    /*stored_objects=*/data.size(), family, roots));
  C2LSH_RETURN_IF_ERROR(WriteSuperblock(index.pool_.get(), meta_root));
  index.file_->SetUserRoot(meta_root);
  C2LSH_RETURN_IF_ERROR(index.pool_->FlushAll());

  // A fresh build owns a fresh WAL: a stale log left by a previous index at
  // the same path must not replay into this one.
  index.path_ = path;
  index.env_ = (env != nullptr) ? env : Env::Default();
  const std::string wal_path = path + ".wal";
  if (index.env_->FileExists(wal_path)) {
    C2LSH_RETURN_IF_ERROR(index.env_->DeleteFile(wal_path));
  }
  C2LSH_ASSIGN_OR_RETURN(WriteAheadLog wal, WriteAheadLog::Open(wal_path, index.env_));
  index.wal_ = std::make_unique<WriteAheadLog>(std::move(wal));

  index.options_ = options;
  index.derived_ = derived;
  index.num_objects_ = data.size();
  index.stored_objects_ = data.size();
  index.dim_ = data.dim();
  index.radius_cap_ = radius_cap;
  index.family_ = std::make_unique<PStableFamily>(std::move(family));
  index.pool_->ResetStats();
  return index;
}

Result<DiskC2lshIndex> DiskC2lshIndex::Open(const std::string& path, size_t pool_pages,
                                            Env* env) {
  DiskC2lshIndex index;
  C2LSH_ASSIGN_OR_RETURN(PageFile file, PageFile::Open(path, env));
  index.file_ = std::make_unique<PageFile>(std::move(file));
  C2LSH_ASSIGN_OR_RETURN(BufferPool pool,
                         BufferPool::Create(index.file_.get(), pool_pages));
  index.pool_ = std::make_unique<BufferPool>(std::move(pool));

  // The durably published meta root: the PageFile header's user_root when
  // set (v3 files — this is the pointer Compact swings atomically), falling
  // back to the legacy superblock page for files written before user_root
  // existed.
  PageId meta_root = static_cast<PageId>(index.file_->user_root());
  if (meta_root == 0) {
    C2LSH_ASSIGN_OR_RETURN(meta_root, ReadSuperblock(index.pool_.get()));
  }
  C2LSH_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         ReadBlob(index.pool_.get(), meta_root));
  ByteReader r(&bytes);
  uint32_t magic = 0;
  uint64_t page_bytes = 0, m64 = 0, l64 = 0, n64 = 0, dim64 = 0;
  bool ok = r.Get(&magic) && (magic == kMetaMagic || magic == kMetaMagicV2);
  ok = ok && r.Get(&index.options_.w) && r.Get(&index.options_.c) &&
       r.Get(&index.options_.delta) && r.Get(&index.options_.beta) &&
       r.Get(&index.options_.max_radius_exponent) && r.Get(&index.options_.seed) &&
       r.Get(&page_bytes);
  uint64_t first_data_page = 0;
  ok = ok && r.Get(&index.derived_.model.w) && r.Get(&index.derived_.model.c) &&
       r.Get(&index.derived_.model.p1) && r.Get(&index.derived_.model.p2) &&
       r.Get(&index.derived_.model.rho) && r.Get(&index.derived_.beta) &&
       r.Get(&index.derived_.z) && r.Get(&index.derived_.alpha) && r.Get(&m64) &&
       r.Get(&l64) && r.Get(&n64) && r.Get(&dim64) && r.Get(&index.radius_cap_) &&
       r.Get(&first_data_page);
  uint64_t applied_lsn = 0;
  uint64_t stored_objects = n64;
  if (ok && magic == kMetaMagicV2) {
    ok = r.Get(&applied_lsn) && r.Get(&stored_objects);
  }
  if (!ok) {
    return Status::Corruption("DiskC2lshIndex: bad meta blob in '" + path + "'");
  }
  index.options_.page_bytes = static_cast<size_t>(page_bytes);
  index.derived_.m = static_cast<size_t>(m64);
  index.derived_.l = static_cast<size_t>(l64);
  index.num_objects_ = static_cast<size_t>(n64);
  index.dim_ = static_cast<size_t>(dim64);
  index.first_data_page_ = static_cast<PageId>(first_data_page);
  index.applied_lsn_ = applied_lsn;
  index.stored_objects_ = static_cast<size_t>(stored_objects);

  std::vector<PStableHash> funcs;
  funcs.reserve(index.derived_.m);
  for (size_t i = 0; i < index.derived_.m; ++i) {
    std::vector<float> a(index.dim_);
    double b = 0, w = 0;
    if (!r.GetArray(a.data(), a.size()) || !r.Get(&b) || !r.Get(&w)) {
      return Status::Corruption("DiskC2lshIndex: truncated hash functions");
    }
    C2LSH_ASSIGN_OR_RETURN(PStableHash h, PStableHash::FromParts(std::move(a), b, w));
    funcs.push_back(std::move(h));
  }
  C2LSH_ASSIGN_OR_RETURN(PStableFamily family,
                         PStableFamily::FromFunctions(std::move(funcs)));
  index.family_ = std::make_unique<PStableFamily>(std::move(family));

  std::vector<PageId> roots(index.derived_.m);
  if (!r.GetArray(roots.data(), roots.size()) || !r.exhausted()) {
    return Status::Corruption("DiskC2lshIndex: truncated table roots");
  }
  for (PageId root : roots) {
    C2LSH_ASSIGN_OR_RETURN(DiskBucketTable table,
                           DiskBucketTable::Load(index.pool_.get(), root));
    index.tables_.push_back(std::move(table));
  }

  // Recovery: replay every acknowledged mutation the base image has not yet
  // folded in. Records at or below applied_lsn_ are skipped (idempotence), a
  // torn tail is truncated — a crashed, unacknowledged append can never
  // surface.
  index.path_ = path;
  index.env_ = (env != nullptr) ? env : Env::Default();
  C2LSH_ASSIGN_OR_RETURN(WriteAheadLog wal,
                         WriteAheadLog::Open(path + ".wal", index.env_));
  index.wal_ = std::make_unique<WriteAheadLog>(std::move(wal));
  C2LSH_RETURN_IF_ERROR(
      index.wal_
          ->Replay(index.applied_lsn_,
                   [&index](const WriteAheadLog::Record& rec) {
                     return index.ApplyRecord(rec);
                   })
          .status());
  index.UpdateMutationGauges();

  index.pool_->ResetStats();
  return index;
}

Status DiskC2lshIndex::ApplyRecord(const WriteAheadLog::Record& rec) {
  if (rec.type == WriteAheadLog::RecordType::kInsert) {
    if (rec.vec.size() != dim_) {
      return Status::Corruption("DiskC2lshIndex: WAL insert for id " +
                                std::to_string(rec.id) + " has dim " +
                                std::to_string(rec.vec.size()) + ", index has " +
                                std::to_string(dim_));
    }
    std::vector<BucketId> buckets;
    family_->BucketAll(rec.vec.data(), &buckets);
    for (size_t i = 0; i < tables_.size(); ++i) {
      tables_[i].OverlayInsert(buckets[i], rec.id);
    }
    overlay_vectors_[rec.id] = rec.vec;
    // An insert supersedes any earlier delete of the same id: without this
    // erase a delete-then-reinsert would stay invisible (the tombstone
    // gauge would report it) and Compact would drop the acknowledged
    // insert. The per-table tombstones are lifted inside OverlayInsert.
    const auto it = std::lower_bound(deleted_ids_.begin(), deleted_ids_.end(), rec.id);
    if (it != deleted_ids_.end() && *it == rec.id) {
      deleted_ids_.erase(it);
    }
    if (static_cast<size_t>(rec.id) + 1 > num_objects_) {
      num_objects_ = static_cast<size_t>(rec.id) + 1;
    }
  } else {
    for (DiskBucketTable& table : tables_) {
      table.OverlayDelete(rec.id);
    }
    const auto it = std::lower_bound(deleted_ids_.begin(), deleted_ids_.end(), rec.id);
    if (it == deleted_ids_.end() || *it != rec.id) {
      deleted_ids_.insert(it, rec.id);
    }
  }
  return Status::OK();
}

Status DiskC2lshIndex::Insert(ObjectId id, const float* v) {
  if (wal_ == nullptr) {
    return Status::Internal("DiskC2lshIndex: no WAL attached");
  }
  WriteAheadLog::Record rec;
  // Past both the WAL cursor and the folded watermark: after a compaction
  // truncated the log and the index reopened, the cursor restarts at 0 while
  // applied_lsn_ stays high — an LSN at or below it would be skipped at the
  // next replay, silently dropping an acknowledged mutation.
  rec.lsn = std::max(wal_->last_lsn(), applied_lsn_) + 1;
  rec.type = WriteAheadLog::RecordType::kInsert;
  rec.id = id;
  rec.vec.assign(v, v + dim_);
  // WAL first, sync second, apply third: the mutation is acknowledged only
  // once it would survive a crash, and the in-memory state never runs ahead
  // of the log.
  C2LSH_RETURN_IF_ERROR(wal_->Append(rec));
  C2LSH_RETURN_IF_ERROR(wal_->Sync());
  C2LSH_RETURN_IF_ERROR(ApplyRecord(rec));
  UpdateMutationGauges();
  return Status::OK();
}

Status DiskC2lshIndex::Delete(ObjectId id) {
  if (wal_ == nullptr) {
    return Status::Internal("DiskC2lshIndex: no WAL attached");
  }
  if (static_cast<size_t>(id) >= num_objects_) {
    return Status::NotFound("Delete: object id " + std::to_string(id) +
                            " was never registered with this index");
  }
  WriteAheadLog::Record rec;
  rec.lsn = std::max(wal_->last_lsn(), applied_lsn_) + 1;  // see Insert
  rec.type = WriteAheadLog::RecordType::kDelete;
  rec.id = id;
  C2LSH_RETURN_IF_ERROR(wal_->Append(rec));
  C2LSH_RETURN_IF_ERROR(wal_->Sync());
  C2LSH_RETURN_IF_ERROR(ApplyRecord(rec));
  UpdateMutationGauges();
  return Status::OK();
}

Status DiskC2lshIndex::Flush() {
  if (wal_ != nullptr) C2LSH_RETURN_IF_ERROR(wal_->Sync());
  return file_->Sync();
}

size_t DiskC2lshIndex::OverlayEntries() const {
  size_t total = 0;
  for (const DiskBucketTable& table : tables_) total += table.OverlayEntries();
  return total;
}

void DiskC2lshIndex::UpdateMutationGauges() const {
  const DiskMetrics& m = Metrics();
  m.overlay_entries->Set(static_cast<double>(OverlayEntries()));
  m.tombstones->Set(static_cast<double>(deleted_ids_.size()));
}

Status DiskC2lshIndex::Compact() {
  obs::ScopedSpan compact_span(obs::SpanSubsystem::kCompaction, "disk_compact");
  if (wal_ == nullptr) {
    return Status::Internal("DiskC2lshIndex: no WAL attached");
  }
  Timer timer;

  // 1. Gather every table's live entries off the current image. All tables
  // hold the same id set; the first table determines the new high-water.
  std::vector<std::vector<std::pair<BucketId, ObjectId>>> live(tables_.size());
  long long max_live = -1;
  for (size_t t = 0; t < tables_.size(); ++t) {
    live[t].reserve(tables_[t].num_entries());
    C2LSH_RETURN_IF_ERROR(tables_[t].ForEachEntry(
        [&live, &max_live, t](BucketId bucket, ObjectId id) {
          live[t].emplace_back(bucket, id);
          if (t == 0) max_live = std::max(max_live, static_cast<long long>(id));
        }));
  }
  const size_t new_n = static_cast<size_t>(max_live + 1);

  // 2. Rewrite the data segment (when one exists) for ids [0, new_n): old
  // segment bytes for ids it stored, resident overlay vectors for dynamic
  // inserts, zeros for holes left by deletes (their table entries are gone,
  // so the bytes are never read). Everything is appended — the old segment
  // stays valid until the header publish below.
  PageId new_first_data_page = 0;
  if (first_data_page_ != 0) {
    const size_t page_bytes = pool_->page_bytes();
    const size_t vec_bytes = dim_ * sizeof(float);
    std::vector<uint8_t> segment(new_n * vec_bytes, 0);
    std::vector<float> vec(dim_);
    for (size_t id = 0; id < new_n; ++id) {
      const auto ov = overlay_vectors_.find(static_cast<ObjectId>(id));
      if (ov != overlay_vectors_.end()) {
        std::memcpy(segment.data() + id * vec_bytes, ov->second.data(), vec_bytes);
      } else if (id < stored_objects_) {
        C2LSH_RETURN_IF_ERROR(ReadStoredVector(static_cast<ObjectId>(id),
                                               vec.data(), nullptr));
        std::memcpy(segment.data() + id * vec_bytes, vec.data(), vec_bytes);
      }
    }
    size_t offset = 0;
    while (offset < segment.size() || new_first_data_page == 0) {
      PageId pid = 0;
      C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool_->NewPage(&pid));
      if (new_first_data_page == 0) {
        new_first_data_page = pid;
      } else if (pid != new_first_data_page + offset / page_bytes) {
        return Status::Internal("DiskC2lshIndex: compacted data pages not contiguous");
      }
      const size_t chunk = std::min(page_bytes, segment.size() - offset);
      std::memcpy(page.mutable_data(), segment.data() + offset, chunk);
      offset += chunk;
      if (offset >= segment.size()) break;
    }
  }

  // 3. Fresh bucket runs from the gathered entries.
  std::vector<DiskBucketTable> new_tables;
  std::vector<PageId> roots;
  new_tables.reserve(tables_.size());
  roots.reserve(tables_.size());
  for (size_t t = 0; t < tables_.size(); ++t) {
    C2LSH_ASSIGN_OR_RETURN(DiskBucketTable table,
                           DiskBucketTable::Build(pool_.get(), std::move(live[t])));
    roots.push_back(table.root());
    new_tables.push_back(std::move(table));
  }

  // 4. New meta blob with the folded watermark, then the atomic publish:
  // user_root swings to the new blob in the same header write that makes the
  // new pages durable. A crash before FlushAll completes recovers the old
  // root (the WAL still covers the delta); after it, the new image.
  // user_root is the ONLY publish channel here: the legacy superblock (page
  // 1) is deliberately left untouched. Rewriting it would destroy the old
  // meta root's last pointer before the header publish — on a pre-v3 file
  // (durable user_root == 0) a crash between page 1's writeback and Sync
  // would leave Open's superblock fallback pointing at pages beyond the
  // durable num_pages, making the index permanently unopenable. Stale is
  // safe: Open only consults the superblock while user_root is 0, and a
  // successful publish makes user_root nonzero forever after.
  // max() and not just the WAL cursor: with no mutations since open the
  // cursor can sit below the watermark already baked into the meta blob, and
  // the watermark must never move backwards.
  const uint64_t folded_lsn = std::max(wal_->last_lsn(), applied_lsn_);
  C2LSH_ASSIGN_OR_RETURN(
      PageId meta_root,
      WriteMetaBlob(pool_.get(), options_, derived_, new_n, dim_, radius_cap_,
                    new_first_data_page, folded_lsn, new_n, *family_, roots));
  file_->SetUserRoot(meta_root);
  C2LSH_RETURN_IF_ERROR(pool_->FlushAll());

  // 5. The new image is durable: swap it in and truncate the log. A failure
  // in Reset leaves a log whose records are all <= applied_lsn_ — replay
  // skips them, so recovery stays exact.
  tables_ = std::move(new_tables);
  first_data_page_ = new_first_data_page;
  num_objects_ = new_n;
  stored_objects_ = new_n;
  applied_lsn_ = folded_lsn;
  overlay_vectors_.clear();
  deleted_ids_.clear();
  C2LSH_RETURN_IF_ERROR(wal_->Reset());

  const DiskMetrics& m = Metrics();
  m.compaction_runs->Increment();
  m.compaction_millis->Observe(timer.ElapsedMillis());
  UpdateMutationGauges();
  return Status::OK();
}

Status DiskC2lshIndex::ReadStoredVector(ObjectId id, float* out,
                                        const QueryContext* ctx) const {
  const size_t page_bytes = pool_->page_bytes();
  const size_t vec_bytes = dim_ * sizeof(float);
  size_t byte_off = static_cast<size_t>(id) * vec_bytes;
  auto* dst = reinterpret_cast<uint8_t*>(out);
  size_t copied = 0;
  while (copied < vec_bytes) {
    const PageId page_id = first_data_page_ + (byte_off / page_bytes);
    const size_t in_page = byte_off % page_bytes;
    const size_t chunk = std::min(page_bytes - in_page, vec_bytes - copied);
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool_->Fetch(page_id, ctx));
    std::memcpy(dst + copied, page.data() + in_page, chunk);
    copied += chunk;
    byte_off += chunk;
  }
  return Status::OK();
}

Status DiskC2lshIndex::LoadVector(ObjectId id, float* out,
                                  const QueryContext* ctx) const {
  // Dynamic inserts live in the resident overlay until a compaction moves
  // them into the data segment; their reads cost no I/O.
  const auto it = overlay_vectors_.find(id);
  if (it != overlay_vectors_.end()) {
    std::memcpy(out, it->second.data(), dim_ * sizeof(float));
    return Status::OK();
  }
  if (static_cast<size_t>(id) >= stored_objects_) {
    return Status::Corruption("DiskC2lshIndex: object " + std::to_string(id) +
                              " has no stored vector");
  }
  return ReadStoredVector(id, out, ctx);
}

Result<NeighborList> DiskC2lshIndex::Query(const float* query, size_t k,
                                           DiskQueryStats* stats,
                                           obs::QueryTrace* trace,
                                           const QueryContext* ctx) const {
  if (first_data_page_ == 0) {
    return Status::NotSupported(
        "DiskC2LSH: this index was built without a data segment; pass the Dataset "
        "to Query or rebuild with store_vectors = true");
  }
  return RunDiskQuery(nullptr, query, k, stats, trace, ctx);
}

Result<NeighborList> DiskC2lshIndex::Query(const Dataset& data, const float* query,
                                           size_t k, DiskQueryStats* stats,
                                           obs::QueryTrace* trace,
                                           const QueryContext* ctx) const {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("DiskC2LSH query: dataset dim mismatch");
  }
  if (data.size() < num_objects_) {
    return Status::InvalidArgument("DiskC2LSH query: dataset smaller than the index");
  }
  return RunDiskQuery(&data, query, k, stats, trace, ctx);
}

Result<std::vector<NeighborList>> DiskC2lshIndex::QueryBatch(
    const FloatMatrix& queries, size_t k, std::vector<DiskQueryStats>* stats,
    const std::vector<const QueryContext*>& contexts) const {
  if (first_data_page_ == 0) {
    return Status::NotSupported(
        "DiskC2LSH: this index was built without a data segment; pass the Dataset "
        "to QueryBatch or rebuild with store_vectors = true");
  }
  return RunDiskBatch(nullptr, queries, k, stats, contexts);
}

Result<std::vector<NeighborList>> DiskC2lshIndex::QueryBatch(
    const Dataset& data, const FloatMatrix& queries, size_t k,
    std::vector<DiskQueryStats>* stats,
    const std::vector<const QueryContext*>& contexts) const {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("DiskC2LSH query: dataset dim mismatch");
  }
  if (data.size() < num_objects_) {
    return Status::InvalidArgument("DiskC2LSH query: dataset smaller than the index");
  }
  return RunDiskBatch(&data, queries, k, stats, contexts);
}

Result<std::vector<NeighborList>> DiskC2lshIndex::RunDiskBatch(
    const Dataset* data, const FloatMatrix& queries, size_t k,
    std::vector<DiskQueryStats>* stats,
    const std::vector<const QueryContext*>& contexts) const {
  if (k == 0) return Status::InvalidArgument("DiskC2LSH query: k must be positive");
  if (queries.dim() != dim_) {
    return Status::InvalidArgument("DiskC2LSH QueryBatch: query dim mismatch");
  }
  const size_t nq = queries.num_rows();
  if (!contexts.empty() && contexts.size() != nq) {
    return Status::InvalidArgument(
        "DiskC2LSH QueryBatch: contexts must be empty or hold one (nullable) pointer "
        "per query row");
  }
  std::vector<NeighborList> results(nq);
  std::vector<DiskQueryStats> local_stats;
  std::vector<DiskQueryStats>* st = (stats != nullptr) ? stats : &local_stats;
  st->assign(nq, DiskQueryStats());
  if (nq == 0) return results;

  // Layer 1 only: the whole batch is bucketed in one query-major blocked
  // projection pass. The scan/verify rounds stay sequential per query — the
  // disk index is single-reader by contract (one scratch, one buffer pool,
  // one WAL cursor), so the in-memory engine's query-parallel lanes do not
  // apply here.
  const size_t m = tables_.size();
  std::vector<BucketId> qbuckets;
  family_->BucketAllMulti(queries.row(0), nq, queries.dim(), &qbuckets);

  for (size_t q = 0; q < nq; ++q) {
    const QueryContext* ctx = contexts.empty() ? nullptr : contexts[q];
    Result<NeighborList> r =
        RunDiskQuery(data, queries.row(q), k, &(*st)[q], /*trace=*/nullptr, ctx,
                     qbuckets.data() + q * m);
    if (!r.ok()) return r.status();
    results[q] = std::move(r).value();
  }
  return results;
}

Result<NeighborList> DiskC2lshIndex::RunDiskQuery(const Dataset* data, const float* query,
                                                  size_t k, DiskQueryStats* stats,
                                                  obs::QueryTrace* trace,
                                                  const QueryContext* ctx,
                                                  const BucketId* qbuckets_in) const {
  if (k == 0) return Status::InvalidArgument("DiskC2LSH query: k must be positive");
  DiskQueryStats local;
  DiskQueryStats* st = (stats != nullptr) ? stats : &local;
  *st = DiskQueryStats();
  const bool tracing = trace != nullptr;
  if (tracing) trace->Clear();
  // Same sampling contract as the in-memory RunQuery: one id ties this
  // query's spans, latency exemplar, and any flight-recorder dump together.
  const bool sampled = obs::Tracer::Global().SampleQuery(ctx);
  const uint64_t span_query_id =
      ctx != nullptr && ctx->trace_id != 0
          ? ctx->trace_id
          : (sampled ? obs::Tracer::Global().NextQueryId() : 0);
  obs::ScopedSpan query_span(obs::SpanSubsystem::kQuery, "disk_c2lsh_query",
                             span_query_id, sampled);
  Timer query_timer;
  const BufferPoolStats pool_before = pool_->stats();

  counts_.assign(num_objects_, 0);
  table_bad_.assign(tables_.size(), 0);
  cursor_.Reset(tables_.size(), pool_->page_bytes());

  const size_t m = tables_.size();
  const uint32_t l = static_cast<uint32_t>(derived_.l);
  const long long c_int = static_cast<long long>(std::llround(derived_.model.c));
  const size_t t2_threshold = std::min<size_t>(
      num_objects_,
      k + static_cast<size_t>(
              std::ceil(derived_.beta * static_cast<double>(num_objects_))));

  // QueryBatch hands in the buckets from its batched projection pass
  // (bit-identical to BucketAll by the dot_rows_multi exactness contract);
  // a lone query computes its own.
  std::vector<BucketId> qbuckets_storage;
  if (qbuckets_in == nullptr) {
    family_->BucketAll(query, &qbuckets_storage);
    qbuckets_in = qbuckets_storage.data();
  }
  const BucketId* qbuckets = qbuckets_in;

  std::vector<BucketRange> prev(m);
  NeighborList found;
  found.reserve(t2_threshold + m);
  const PageModel data_model(options_.page_bytes);
  const uint64_t vector_pages = data_model.PagesPerVector(dim_);
  vector_buf_.resize(dim_);
  uint64_t data_misses = 0;

  // Cooperative-stop state, same contract as the in-memory RunQuery: kNone
  // while running; once set, every remaining scan is skipped and the query
  // returns its partial results under that Termination.
  Termination early_stop = Termination::kNone;

  Status scan_status;
  auto scan_range = [&](size_t table_idx, const BucketRange& range) {
    if (range.empty() || !scan_status.ok() || table_bad_[table_idx] != 0) return;
    if (ctx != nullptr && early_stop == Termination::kNone) {
      early_stop = ctx->CheckNow();
    }
    if (early_stop != Termination::kNone) return;
    Result<size_t> visited = tables_[table_idx].ForEachInRange(
        range.lo, range.hi,
        [&](ObjectId id) {
          if (early_stop != Termination::kNone) return;
          ++st->base.collision_increments;
          if (ctx != nullptr && ctx->cancelled()) {
            early_stop = Termination::kCancelled;
            return;
          }
          if (++counts_[id] == l) {
            const float* vec = nullptr;
            if (data != nullptr) {
              vec = data->object(id);
              st->base.data_pages += vector_pages;  // modelled (external data)
            } else {
              const uint64_t misses_before = pool_->stats().misses;
              if (Status s = LoadVector(id, vector_buf_.data(), ctx); !s.ok()) {
                if (s.IsCorruption()) {
                  // The candidate's stored vector is unreadable: drop it and
                  // flag the answer as degraded rather than returning a
                  // distance computed from garbage bytes.
                  st->degraded = true;
                  ++st->candidates_skipped;
                  return;
                }
                if (ctx != nullptr &&
                    (ctx->CheckNow() != Termination::kNone || s.IsUnavailable())) {
                  // The retry layer gave up because the query's budget ended,
                  // not because the device failed hard: stop with partial
                  // results instead of surfacing an error. A still-transient
                  // Unavailable under a context can only mean abandonment —
                  // possibly *before* the deadline strictly expires, when the
                  // remaining budget cannot cover the next backoff — so it
                  // converts even while CheckNow() is still kNone.
                  const Termination now = ctx->CheckNow();
                  early_stop = now != Termination::kNone ? now : Termination::kDeadline;
                  return;
                }
                scan_status = s;
                return;
              }
              data_misses += pool_->stats().misses - misses_before;
              vec = vector_buf_.data();
            }
            const double dist = L2(query, vec, dim_);
            found.push_back(Neighbor{id, static_cast<float>(dist)});
            ++st->base.candidates_verified;
          }
        },
        cursor_, table_idx, ctx);
    if (!visited.ok()) {
      if (visited.status().IsCorruption()) {
        // A table page failed its checksum: drop this table for the rest of
        // the query. Collision counts only ever come from verified page
        // reads, so skipping can under-count (fewer candidates, flagged
        // below) but never mis-count.
        st->degraded = true;
        ++st->tables_skipped;
        table_bad_[table_idx] = 1;
        return;
      }
      if (ctx != nullptr && (ctx->CheckNow() != Termination::kNone ||
                             visited.status().IsUnavailable())) {
        // As above: an abandoned retry under the query's context is an early
        // stop, not an error.
        const Termination now = ctx->CheckNow();
        early_stop = now != Termination::kNone ? now : Termination::kDeadline;
        return;
      }
      scan_status = visited.status();
      return;
    }
    st->base.buckets_scanned += visited.value();
  };

  long long R = 1;
  Timer round_timer;
  while (true) {
    // Round boundary: the full context check — deadline, cancellation, and
    // the I/O-page budget against *measured* pool misses so far. A
    // pre-expired context runs zero rounds and returns empty.
    if (ctx != nullptr && early_stop == Termination::kNone) {
      early_stop = ctx->Check(pool_->stats().misses - pool_before.misses);
    }
    if (early_stop != Termination::kNone) {
      st->base.termination = early_stop;
      break;
    }
    ++st->base.rounds;
    st->base.final_radius = R;
    obs::ScopedSpan round_span(obs::SpanSubsystem::kRound, "round",
                               span_query_id, sampled);
    C2lshQueryStats before;
    uint64_t misses_at_round_start = 0;
    uint64_t data_misses_at_round_start = 0;
    if (tracing) {
      round_timer.Reset();
      before = st->base;
      misses_at_round_start = pool_->stats().misses;
      data_misses_at_round_start = data_misses;
    }
    bool all_covered = true;
    for (size_t i = 0; i < m; ++i) {
      if (early_stop != Termination::kNone) break;
      const BucketRange next = QueryIntervalAtRadiusCapped(qbuckets[i], R, radius_cap_);
      const RangeDelta delta = ComputeRangeDelta(prev[i], next);
      scan_range(i, delta.left);
      scan_range(i, delta.right);
      if (!scan_status.ok()) return scan_status;
      prev[i] = next;
      if (table_bad_[i] == 0 && tables_[i].num_buckets() > 0 &&
          tables_[i].EntriesInRange(next.lo, next.hi) < tables_[i].num_entries()) {
        all_covered = false;
      }
    }

    // T1 is evaluated even after an early stop: if the partial scan already
    // proved the answer, the query keeps the full-quality termination.
    const double cr = derived_.model.c * static_cast<double>(R);
    size_t within = 0;
    for (const Neighbor& nb : found) {
      if (nb.dist <= cr) ++within;
      if (within >= k) break;
    }
    if (within >= k) {
      st->base.termination = Termination::kT1;
    } else if (found.size() >= t2_threshold) {
      st->base.termination = Termination::kT2;
    } else if (early_stop != Termination::kNone) {
      // Partial results; beats kExhausted because an interrupted round never
      // evaluated the remaining tables' coverage.
      st->base.termination = early_stop;
    } else if (all_covered) {
      st->base.termination = Termination::kExhausted;
    }
    if (tracing) {
      obs::QueryRoundSpan span;
      span.radius = R;
      span.buckets_scanned = st->base.buckets_scanned - before.buckets_scanned;
      span.collision_increments =
          st->base.collision_increments - before.collision_increments;
      span.candidates_verified =
          st->base.candidates_verified - before.candidates_verified;
      // Index pages this round: measured pool misses minus the misses
      // attributed to data-segment vector reads.
      const uint64_t round_misses =
          pool_->stats().misses - misses_at_round_start;
      const uint64_t round_data_misses =
          data_misses - data_misses_at_round_start;
      span.index_pages = round_misses - round_data_misses;
      span.t1_fired = st->base.termination == Termination::kT1;
      span.t2_fired = st->base.termination == Termination::kT2;
      span.millis = round_timer.ElapsedMillis();
      trace->rounds.push_back(span);
    }
    if (st->base.termination != Termination::kNone) break;
    R *= c_int;
  }

  const BufferPoolStats pool_after = pool_->stats();
  st->pool_hits = pool_after.hits - pool_before.hits;
  st->pool_misses = pool_after.misses - pool_before.misses;
  // Measured, not simulated: pool misses split into index probes and (when
  // the data segment serves verification) vector reads.
  st->base.index_pages = st->pool_misses - data_misses;
  if (data == nullptr) {
    st->base.data_pages = data_misses;
  }

  std::sort(found.begin(), found.end(), NeighborLess());
  if (found.size() > k) found.resize(k);
  const double total_millis = query_timer.ElapsedMillis();
  if (tracing) {
    trace->termination = st->base.termination;
    trace->total_millis = total_millis;
    trace->pool_hits = st->pool_hits;
    trace->pool_misses = st->pool_misses;
    trace->degraded = st->degraded;
  }
  FlushDiskQueryMetrics(*st, total_millis, span_query_id);
  // End the query span before the anomaly hook: a flight dump snapshots the
  // rings, and an open span has not reached its ring yet.
  query_span.End();
  if (obs::FlightRecorder::Global().enabled()) {
    if (tracing) {
      obs::MaybeRecordQueryAnomaly("disk_c2lsh_query", span_query_id, *trace);
    } else {
      obs::QueryTrace anomaly_trace;
      anomaly_trace.termination = st->base.termination;
      anomaly_trace.total_millis = total_millis;
      anomaly_trace.pool_hits = st->pool_hits;
      anomaly_trace.pool_misses = st->pool_misses;
      anomaly_trace.degraded = st->degraded;
      obs::MaybeRecordQueryAnomaly("disk_c2lsh_query", span_query_id,
                                   anomaly_trace);
    }
  }
  return found;
}

}  // namespace c2lsh
