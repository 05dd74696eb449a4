// DiskBucketTable: the external-memory counterpart of BucketTable.
//
// Layout inside a shared PageFile:
//   * entry pages — the bucket-contiguous ObjectId array, split across a
//     contiguous run of pages (ids packed page_bytes/4 per page);
//   * a directory blob — the sorted (bucket, offset, count) triples,
//     serialized via WriteBlob and cached in memory after open (per-table
//     directories are tiny; both the paper and the in-memory mode treat them
//     as resident).
//
// Range probes therefore cost the entry pages they touch — the quantity the
// BufferPool measures and experiment D1 compares against the analytic model.
// A query's range probes share a ScanCursor, which keeps one private copy of
// an entry page per table, so a page the previous round already read is not
// fetched again.
//
// Mutability: the on-disk run is immutable, but the table carries a small
// in-memory delta — a sorted insert overlay plus a tombstone set — that
// scans consult alongside the run. The delta is *not* persisted here: the
// owning DiskC2lshIndex makes each mutation durable in its write-ahead log
// first and rebuilds the deltas by replay at Open(); a compaction folds them
// into a freshly written run (see core/disk_index.h).

#pragma once
#ifndef C2LSH_STORAGE_DISK_BUCKET_TABLE_H_
#define C2LSH_STORAGE_DISK_BUCKET_TABLE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/storage/blob.h"
#include "src/storage/bucket_table.h"
#include "src/util/query_context.h"
#include "src/util/result.h"
#include "src/vector/types.h"

namespace c2lsh {

/// Per-query scan scratch for DiskBucketTable::ForEachInRange: one slot per
/// table, each holding a private copy of the highest entry page that table's
/// scans fetched during the current query.
///
/// Under virtual rehashing a round's interval contains the previous round's,
/// so a table's next scan begins on the page holding its previous right end —
/// the highest page read so far. A scan whose page is in the slot reads the
/// copy and makes no BufferPool::Fetch; any other page is fetched as usual.
/// One table needs both ends only while its interval straddles a page
/// boundary; then the left end's page is fetched once per round.
///
/// The cursor holds no pool pin (a copy, never a frame), so it costs no
/// frames however many tables it covers, and a page enters a slot only after
/// Fetch returned it, i.e. after its checksum verified. Slots are keyed by
/// page id, which is unique across tables, so a slot can never serve another
/// table's bytes. Scratch is num_slots pages, allocated once and reused.
class ScanCursor {
 public:
  /// Starts a query: empties every slot of `num_slots` tables whose pages
  /// hold `page_bytes` bytes. Keeps the allocation, growing it only.
  void Reset(size_t num_slots, size_t page_bytes);

 private:
  friend class DiskBucketTable;

  /// The ids of `page` if slot `slot` holds it, else nullptr.
  const ObjectId* Find(size_t slot, PageId page) const {
    return pages_[slot] == page ? ids_.data() + slot * ids_per_page_ : nullptr;
  }
  /// Copies a fetched `page` into slot `slot` if it is above the page held.
  void Keep(size_t slot, PageId page, const uint8_t* data);

  size_t ids_per_page_ = 0;
  std::vector<PageId> pages_;  ///< per slot; 0 = empty (page 0 is the header)
  std::vector<ObjectId> ids_;  ///< slot-major page copies
};

/// An on-disk bucket table: an immutable base run plus an in-memory,
/// WAL-recovered delta overlay.
class DiskBucketTable {
 public:
  /// Builds the table from (bucket, object) pairs (sorted internally),
  /// writing entry pages and the directory blob through `pool`. Returns the
  /// table with its in-memory directory populated.
  static Result<DiskBucketTable> Build(BufferPool* pool,
                                       std::vector<std::pair<BucketId, ObjectId>> entries);

  /// Reopens a table from its root (the directory blob's first page).
  static Result<DiskBucketTable> Load(BufferPool* pool, PageId root);

  /// The directory blob's first page — persist this to find the table again.
  PageId root() const { return root_; }

  /// Base-run plus overlay entries (tombstoned objects still occupy their
  /// slots until a compaction rewrites the run).
  size_t num_entries() const { return num_entries_ + overlay_.size(); }
  size_t num_buckets() const { return directory_.size(); }

  /// Calls `fn(ObjectId)` for every live object with bucket in [lo, hi] —
  /// base-run entries first (tombstoned ids skipped), then overlay inserts
  /// in bucket order. Entry pages come from slot `slot` of `cursor` when it
  /// holds them, else from the pool (so misses are measured I/O). Returns
  /// the number of objects visited, or an error if a page fetch fails (the
  /// slot is then left as it was). `ctx` (nullable) bounds the scan: the
  /// deadline/cancellation is checked at every entry-page boundary, cached
  /// or not, and an expired context stops the scan early, returning the
  /// objects visited so far (not an error) — the caller decides how a
  /// partial scan terminates the query.
  Result<size_t> ForEachInRange(BucketId lo, BucketId hi,
                                const std::function<void(ObjectId)>& fn,
                                ScanCursor& cursor, size_t slot,
                                const QueryContext* ctx = nullptr) const;

  /// Calls `fn(BucketId, ObjectId)` for every live entry (base run in
  /// directory order, then overlay), fetching entry pages through the pool.
  /// Compaction's input: the union of run and delta with tombstones applied.
  Status ForEachEntry(const std::function<void(BucketId, ObjectId)>& fn) const;

  /// Entries in [lo, hi] (base run + overlay), answered from resident state
  /// (no I/O). Tombstoned entries still count — see num_entries().
  size_t EntriesInRange(BucketId lo, BucketId hi) const;

  /// Records a dynamic insert in the overlay (kept sorted by bucket,
  /// insertion-ordered within a bucket — the same scan order the in-memory
  /// BucketTable produces). An insert is an upsert: it lifts any tombstone
  /// on `id`, drops stale overlay entries from an earlier insert of the
  /// same id, and hides the id's base-run entries (whose bucket came from
  /// the superseded vector) until a compaction rewrites the run — so a
  /// delete-then-reinsert is visible exactly once, never lost and never
  /// double-counted. Durability is the caller's job (WAL first).
  void OverlayInsert(BucketId bucket, ObjectId id);

  /// Tombstones `id`: every occurrence (run or overlay) disappears from
  /// scans. Idempotent; undone by a later OverlayInsert of the same id.
  void OverlayDelete(ObjectId id);

  size_t OverlayEntries() const { return overlay_.size(); }
  size_t NumTombstones() const { return tombstones_.size(); }

 private:
  struct DirEntry {
    BucketId bucket;
    uint32_t offset;
    uint32_t count;
  };

  DiskBucketTable(BufferPool* pool, PageId root, PageId first_entry_page,
                  size_t num_entries, std::vector<DirEntry> directory)
      : pool_(pool),
        root_(root),
        first_entry_page_(first_entry_page),
        num_entries_(num_entries),
        directory_(std::move(directory)) {}

  std::pair<size_t, size_t> EntryRange(BucketId lo, BucketId hi) const;
  size_t EntriesPerPage() const { return pool_->page_bytes() / sizeof(ObjectId); }
  bool IsDeleted(ObjectId id) const;
  bool IsDeadInRun(ObjectId id) const;

  BufferPool* pool_;  // not owned
  PageId root_ = 0;
  PageId first_entry_page_ = 0;
  size_t num_entries_ = 0;
  std::vector<DirEntry> directory_;
  /// The in-memory delta: overlay sorted by bucket, tombstones and run_dead
  /// sorted by id. Rebuilt from the WAL at open; emptied by compaction.
  /// tombstones_ holds currently-deleted ids (hides overlay entries and
  /// feeds NumTombstones); run_dead_ holds ids whose BASE-RUN entries are
  /// dead — every deleted id plus every reinserted one, whose live entries
  /// now live in the overlay. Scans check exactly one set per entry.
  std::vector<std::pair<BucketId, ObjectId>> overlay_;
  std::vector<ObjectId> tombstones_;
  std::vector<ObjectId> run_dead_;
};

}  // namespace c2lsh

#endif  // C2LSH_STORAGE_DISK_BUCKET_TABLE_H_
