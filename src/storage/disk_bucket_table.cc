#include "src/storage/disk_bucket_table.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace c2lsh {

namespace {
constexpr uint32_t kDirMagic = 0xD15CD1A7;
}  // namespace

void ScanCursor::Reset(size_t num_slots, size_t page_bytes) {
  ids_per_page_ = page_bytes / sizeof(ObjectId);
  pages_.assign(num_slots, 0);
  if (ids_.size() < num_slots * ids_per_page_) ids_.resize(num_slots * ids_per_page_);
}

void ScanCursor::Keep(size_t slot, PageId page, const uint8_t* data) {
  if (page <= pages_[slot]) return;
  std::memcpy(ids_.data() + slot * ids_per_page_, data, ids_per_page_ * sizeof(ObjectId));
  pages_[slot] = page;
}

Result<DiskBucketTable> DiskBucketTable::Build(
    BufferPool* pool, std::vector<std::pair<BucketId, ObjectId>> entries) {
  if (pool == nullptr) {
    return Status::InvalidArgument("DiskBucketTable: pool is null");
  }
  std::sort(entries.begin(), entries.end());

  // Directory over the sorted pairs.
  std::vector<DirEntry> directory;
  for (size_t i = 0; i < entries.size();) {
    const BucketId bucket = entries[i].first;
    size_t j = i;
    while (j < entries.size() && entries[j].first == bucket) ++j;
    directory.push_back(DirEntry{bucket, static_cast<uint32_t>(i),
                                 static_cast<uint32_t>(j - i)});
    i = j;
  }

  // Entry pages: a contiguous run of page ids (NewPage allocates
  // sequentially; assert the contiguity we rely on).
  const size_t per_page = pool->page_bytes() / sizeof(ObjectId);
  PageId first_entry_page = 0;
  for (size_t off = 0; off < entries.size(); off += per_page) {
    PageId id = 0;
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool->NewPage(&id));
    if (first_entry_page == 0) {
      first_entry_page = id;
    } else if (id != first_entry_page + off / per_page) {
      return Status::Internal("DiskBucketTable: entry pages not contiguous");
    }
    auto* ids = reinterpret_cast<ObjectId*>(page.mutable_data());
    const size_t count = std::min(per_page, entries.size() - off);
    for (size_t i = 0; i < count; ++i) {
      ids[i] = entries[off + i].second;
    }
  }
  if (entries.empty()) {
    // Still allocate a (never-read) anchor so first_entry_page is valid.
    PageId id = 0;
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool->NewPage(&id));
    (void)page;
    first_entry_page = id;
  }

  // Directory blob: [magic][num_entries][first_entry_page][dir size][dir...].
  ByteBuffer buf;
  buf.Put(kDirMagic);
  buf.Put(static_cast<uint64_t>(entries.size()));
  buf.Put(static_cast<uint64_t>(first_entry_page));
  buf.Put(static_cast<uint64_t>(directory.size()));
  buf.PutArray(directory.data(), directory.size());
  C2LSH_ASSIGN_OR_RETURN(PageId root, WriteBlob(pool, buf.bytes()));

  return DiskBucketTable(pool, root, first_entry_page, entries.size(),
                         std::move(directory));
}

Result<DiskBucketTable> DiskBucketTable::Load(BufferPool* pool, PageId root) {
  if (pool == nullptr) {
    return Status::InvalidArgument("DiskBucketTable: pool is null");
  }
  C2LSH_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadBlob(pool, root));
  ByteReader r(&bytes);
  uint32_t magic = 0;
  uint64_t num_entries = 0, first_entry_page = 0, dir_size = 0;
  if (!r.Get(&magic) || magic != kDirMagic || !r.Get(&num_entries) ||
      !r.Get(&first_entry_page) || !r.Get(&dir_size)) {
    return Status::Corruption("DiskBucketTable: bad directory blob");
  }
  // Counts parsed from the blob are bounded before anything is sized by
  // them: the directory by the bytes left, the entry run by the file's pages
  // (Build writes at least one entry page, the anchor of an empty run).
  const uint64_t per_page = pool->page_bytes() / sizeof(ObjectId);
  const uint64_t run_pages =
      std::max<uint64_t>(1, num_entries / per_page + (num_entries % per_page != 0));
  const uint64_t file_pages = pool->num_pages();
  if (dir_size > r.remaining() / sizeof(DirEntry) || first_entry_page == 0 ||
      first_entry_page > file_pages || run_pages > file_pages - first_entry_page + 1) {
    return Status::Corruption("DiskBucketTable: directory blob claims " +
                              std::to_string(dir_size) + " buckets, " +
                              std::to_string(num_entries) + " entries");
  }
  std::vector<DirEntry> directory(dir_size);
  if (!r.GetArray(directory.data(), directory.size()) || !r.exhausted()) {
    return Status::Corruption("DiskBucketTable: truncated directory blob");
  }
  return DiskBucketTable(pool, root, first_entry_page,
                         static_cast<size_t>(num_entries), std::move(directory));
}

std::pair<size_t, size_t> DiskBucketTable::EntryRange(BucketId lo, BucketId hi) const {
  if (directory_.empty() || lo > hi) return {0, 0};
  const auto first = std::lower_bound(
      directory_.begin(), directory_.end(), lo,
      [](const DirEntry& e, BucketId b) { return e.bucket < b; });
  if (first == directory_.end() || first->bucket > hi) return {0, 0};
  const auto last = std::upper_bound(
      directory_.begin(), directory_.end(), hi,
      [](BucketId b, const DirEntry& e) { return b < e.bucket; });
  const DirEntry& tail = *(last - 1);
  return {first->offset, static_cast<size_t>(tail.offset) + tail.count};
}

size_t DiskBucketTable::EntriesInRange(BucketId lo, BucketId hi) const {
  const auto [b, e] = EntryRange(lo, hi);
  size_t count = e - b;
  for (auto it = std::lower_bound(
           overlay_.begin(), overlay_.end(), lo,
           [](const std::pair<BucketId, ObjectId>& o, BucketId b2) {
             return o.first < b2;
           });
       it != overlay_.end() && it->first <= hi; ++it) {
    ++count;
  }
  return count;
}

bool DiskBucketTable::IsDeleted(ObjectId id) const {
  return std::binary_search(tombstones_.begin(), tombstones_.end(), id);
}

bool DiskBucketTable::IsDeadInRun(ObjectId id) const {
  return std::binary_search(run_dead_.begin(), run_dead_.end(), id);
}

void DiskBucketTable::OverlayInsert(BucketId bucket, ObjectId id) {
  // Upsert: every earlier trace of the id dies before the new entry lands.
  // The tombstone is lifted (a reinserted id is live again), stale overlay
  // entries from a previous insert are physically removed, and the id's
  // base-run entries stay dead via run_dead_ — their bucket was computed
  // from the superseded vector, so resurrecting them would place the id in
  // stale buckets and double-count collisions after a same-vector reinsert.
  const auto t = std::lower_bound(tombstones_.begin(), tombstones_.end(), id);
  if (t != tombstones_.end() && *t == id) tombstones_.erase(t);
  overlay_.erase(std::remove_if(overlay_.begin(), overlay_.end(),
                                [id](const std::pair<BucketId, ObjectId>& o) {
                                  return o.second == id;
                                }),
                 overlay_.end());
  const auto d = std::lower_bound(run_dead_.begin(), run_dead_.end(), id);
  if (d == run_dead_.end() || *d != id) run_dead_.insert(d, id);
  const auto pos = std::upper_bound(
      overlay_.begin(), overlay_.end(), bucket,
      [](BucketId b, const std::pair<BucketId, ObjectId>& o) { return b < o.first; });
  overlay_.insert(pos, {bucket, id});
}

void DiskBucketTable::OverlayDelete(ObjectId id) {
  const auto it = std::lower_bound(tombstones_.begin(), tombstones_.end(), id);
  if (it == tombstones_.end() || *it != id) tombstones_.insert(it, id);
  const auto d = std::lower_bound(run_dead_.begin(), run_dead_.end(), id);
  if (d == run_dead_.end() || *d != id) run_dead_.insert(d, id);
}

Result<size_t> DiskBucketTable::ForEachInRange(
    BucketId lo, BucketId hi, const std::function<void(ObjectId)>& fn,
    ScanCursor& cursor, size_t slot, const QueryContext* ctx) const {
  const auto [begin_idx, end_idx] = EntryRange(lo, hi);
  const size_t per_page = EntriesPerPage();
  size_t visited = 0;
  for (size_t page_idx = begin_idx / per_page;
       begin_idx < end_idx && page_idx * per_page < end_idx; ++page_idx) {
    // Page boundaries are the scan's checkpoints: each iteration may cost a
    // real disk read, so an expired context stops before paying for the next
    // page and the caller sees a clean partial count. A cached page is
    // checked the same way, so where a scan stops does not depend on what
    // the cursor holds.
    if (ctx != nullptr && ctx->CheckNow() != Termination::kNone) return visited;
    const PageId id = first_entry_page_ + page_idx;
    const ObjectId* ids = cursor.Find(slot, id);
    BufferPool::PageHandle page;  // pinned only while this page is visited
    if (ids == nullptr) {
      C2LSH_ASSIGN_OR_RETURN(page, pool_->Fetch(id, ctx));
      cursor.Keep(slot, id, page.data());
      ids = reinterpret_cast<const ObjectId*>(page.data());
    }
    const size_t page_start = page_idx * per_page;
    const size_t from = std::max(begin_idx, page_start) - page_start;
    const size_t to = std::min(end_idx, page_start + per_page) - page_start;
    for (size_t i = from; i < to; ++i) {
      if (IsDeadInRun(ids[i])) continue;
      fn(ids[i]);
      ++visited;
    }
  }
  // Overlay inserts after the base run, in bucket order — the same scan
  // order BucketTable::Snapshot::ForEachInRange produces, so the two index
  // modes verify candidates in the same sequence.
  for (auto it = std::lower_bound(
           overlay_.begin(), overlay_.end(), lo,
           [](const std::pair<BucketId, ObjectId>& o, BucketId b) {
             return o.first < b;
           });
       it != overlay_.end() && it->first <= hi; ++it) {
    if (IsDeleted(it->second)) continue;
    fn(it->second);
    ++visited;
  }
  return visited;
}

Status DiskBucketTable::ForEachEntry(
    const std::function<void(BucketId, ObjectId)>& fn) const {
  // The base run is bucket-contiguous over [0, num_entries_), so the scan
  // walks it one page at a time — each entry page is fetched (and its pool
  // frame looked up) exactly once — while a directory cursor labels every
  // index with its bucket.
  const size_t per_page = EntriesPerPage();
  auto dir = directory_.begin();
  for (size_t idx = 0; idx < num_entries_;) {
    const PageId page_id = first_entry_page_ + idx / per_page;
    C2LSH_ASSIGN_OR_RETURN(BufferPool::PageHandle page, pool_->Fetch(page_id));
    const auto* ids = reinterpret_cast<const ObjectId*>(page.data());
    const size_t page_end = std::min(num_entries_, (idx / per_page + 1) * per_page);
    for (; idx < page_end; ++idx) {
      while (dir != directory_.end() &&
             idx >= static_cast<size_t>(dir->offset) + dir->count) {
        ++dir;
      }
      if (dir == directory_.end() || idx < dir->offset) {
        // A loaded directory whose spans don't contiguously cover
        // [0, num_entries_) (possible only from a corrupt blob that still
        // parsed) must not be walked off the end or mislabel a bucket.
        return Status::Corruption(
            "DiskBucketTable: directory does not cover the entry run");
      }
      const ObjectId oid = ids[idx % per_page];
      if (!IsDeadInRun(oid)) fn(dir->bucket, oid);
    }
  }
  for (const auto& [bucket, oid] : overlay_) {
    if (!IsDeleted(oid)) fn(bucket, oid);
  }
  return Status::OK();
}

}  // namespace c2lsh
