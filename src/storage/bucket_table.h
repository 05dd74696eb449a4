// BucketTable: the physical hash table behind one base LSH function.
//
// C2LSH builds one table per base function and, at radius R, probes the run
// of R *consecutive* base buckets that form the query's level-R bucket
// (virtual rehashing). The table is therefore laid out as a bucket directory
// sorted by bucket id over a flat, bucket-contiguous entry array — an aligned
// range of bucket ids maps to one contiguous slice of entries, which is both
// cache-friendly in memory and sequential on the simulated disk.
//
// Dynamic inserts/deletes land in a small sorted overlay that is consulted
// alongside the flat run and can be folded in with Compact() — the classic
// main-file + delta organization of disk-based indexes.
//
// Concurrency: the table's entire state lives in one immutable Rep published
// through a shared_ptr guarded by an annotated Mutex. Readers take a
// Snapshot (one brief lock to copy the pointer) and then scan lock-free;
// mutators build a fresh Rep off to the side and swap the pointer (again one
// brief lock). Readers therefore NEVER block on a mutation — not even on a
// full Compact() — they simply keep scanning the Rep they pinned. Mutators
// are not serialized against each other here; the owning index holds its
// writer lock around them (see C2lshIndex).

#pragma once
#ifndef C2LSH_STORAGE_BUCKET_TABLE_H_
#define C2LSH_STORAGE_BUCKET_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/storage/page_model.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/vector/types.h"

namespace c2lsh {

/// Signed base bucket id (projections are real-valued, so ids are signed).
using BucketId = int64_t;

/// One LSH hash table: bucket id -> list of object ids.
class BucketTable {
 private:
  struct DirEntry {
    BucketId bucket;
    uint32_t offset;  // first entry index in entries
    uint32_t count;
  };

  /// The compacted run: a directory sorted by bucket id over a flat,
  /// bucket-contiguous entry array. Immutable once built.
  struct Flat {
    std::vector<DirEntry> directory;
    std::vector<ObjectId> entries;

    /// Returns [begin, end) indexes into entries covering buckets in [lo, hi].
    std::pair<size_t, size_t> EntryRange(BucketId lo, BucketId hi) const;
  };

  /// One immutable version of the table: the shared flat run plus this
  /// version's overlay (sorted by bucket, insertion-ordered within a bucket)
  /// and two sorted id sets. Mutations copy-on-write the delta vectors but
  /// share the flat run, so an Insert costs O(overlay), not O(n).
  ///
  /// `tombstones` holds currently-deleted ids — it hides overlay entries
  /// and feeds NumTombstones. `flat_dead` holds ids whose FLAT-RUN entries
  /// are dead: every deleted id plus every reinserted one (whose live
  /// entries moved to the overlay, bucketed by the new vector). Keeping the
  /// union precomputed means each scanned entry checks exactly one set.
  struct Rep {
    std::shared_ptr<const Flat> flat;
    std::vector<std::pair<BucketId, ObjectId>> overlay;
    std::vector<ObjectId> tombstones;
    std::vector<ObjectId> flat_dead;

    bool IsDeleted(ObjectId id) const {
      return std::binary_search(tombstones.begin(), tombstones.end(), id);
    }
    bool IsDeadInFlat(ObjectId id) const {
      return std::binary_search(flat_dead.begin(), flat_dead.end(), id);
    }
  };

 public:
  BucketTable();

  // Movable so std::vector<BucketTable> works (moves happen only while the
  // owning index is being built or reassembled, single-threaded); the Mutex
  // pins each table in place otherwise, so the moved-into table constructs a
  // fresh one and adopts the source's current Rep.
  BucketTable(BucketTable&& other) noexcept;
  BucketTable& operator=(BucketTable&& other) noexcept;
  BucketTable(const BucketTable&) = delete;
  BucketTable& operator=(const BucketTable&) = delete;

  /// Builds the table from (bucket, object) pairs. Consumes the input
  /// (sorted in place). Duplicate pairs are kept as-is.
  static BucketTable Build(std::vector<std::pair<BucketId, ObjectId>> entries);

  /// A pinned, immutable view of the table. Scans on a Snapshot are
  /// wait-free with respect to concurrent Insert/Delete/Compact — they see
  /// exactly the state at snapshot() time. Cheap to take (one pointer copy
  /// under the lock); take one per table per query, not per probe.
  class Snapshot {
   public:
    /// Calls `fn(ObjectId)` for every object whose bucket id lies in
    /// [lo, hi] (inclusive), including overlay inserts and excluding deleted
    /// objects. Returns the number of objects visited.
    template <typename Fn>
    size_t ForEachInRange(BucketId lo, BucketId hi, Fn&& fn) const {
      size_t visited = 0;
      const Flat& flat = *rep_->flat;
      const auto [begin_idx, end_idx] = flat.EntryRange(lo, hi);
      for (size_t i = begin_idx; i < end_idx; ++i) {
        const ObjectId id = flat.entries[i];
        if (rep_->IsDeadInFlat(id)) continue;
        fn(id);
        ++visited;
      }
      for (auto it = OverlayLowerBound(lo); it != rep_->overlay.end() && it->first <= hi;
           ++it) {
        if (rep_->IsDeleted(it->second)) continue;
        fn(it->second);
        ++visited;
      }
      return visited;
    }

    /// Bulk ForEachInRange: appends every live object id in [lo, hi] with
    /// id < id_bound to *out, in the exact enumeration order of
    /// ForEachInRange (flat run first, then overlay), and returns the
    /// number of live entries visited (ids >= id_bound count as visited but
    /// are not appended — they are objects concurrent mutators published
    /// after the caller fixed its object count). The common case — a range
    /// of the flat run with no dead entries — is one branchless sequential
    /// copy of the contiguous entry slice, much cheaper than a per-entry
    /// callback with a deadness probe. Batched query scans
    /// (src/core/batch.cc) live on this path.
    size_t AppendRangeTo(BucketId lo, BucketId hi, size_t id_bound,
                         std::vector<ObjectId>* out) const {
      size_t visited = 0;
      const Flat& flat = *rep_->flat;
      const auto [begin_idx, end_idx] = flat.EntryRange(lo, hi);
      if (rep_->flat_dead.empty()) {
        // Every flat entry is live: copy the whole contiguous slice with a
        // branch-free bound filter (the write pointer advances only past
        // in-bound ids, so out-of-bound ids are overwritten in place).
        const size_t old_size = out->size();
        out->resize(old_size + (end_idx - begin_idx));
        ObjectId* w = out->data() + old_size;
        for (size_t i = begin_idx; i < end_idx; ++i) {
          const ObjectId id = flat.entries[i];
          *w = id;
          w += static_cast<size_t>(id) < id_bound ? 1 : 0;
        }
        out->resize(static_cast<size_t>(w - out->data()));
        visited += end_idx - begin_idx;
      } else {
        for (size_t i = begin_idx; i < end_idx; ++i) {
          const ObjectId id = flat.entries[i];
          if (rep_->IsDeadInFlat(id)) continue;
          if (static_cast<size_t>(id) < id_bound) out->push_back(id);
          ++visited;
        }
      }
      for (auto it = OverlayLowerBound(lo);
           it != rep_->overlay.end() && it->first <= hi; ++it) {
        if (rep_->IsDeleted(it->second)) continue;
        if (static_cast<size_t>(it->second) < id_bound) out->push_back(it->second);
        ++visited;
      }
      return visited;
    }

    /// Number of entries whose bucket id lies in [lo, hi] (deleted objects
    /// still occupy their slots until Compact()). Used for I/O accounting.
    size_t EntriesInRange(BucketId lo, BucketId hi) const;

    /// Simulated pages touched when reading the range [lo, hi]: one page for
    /// the directory descent plus the sequential entry pages.
    size_t PagesForRange(BucketId lo, BucketId hi, const PageModel& model) const;

    size_t num_buckets() const { return rep_->flat->directory.size(); }
    size_t num_entries() const {
      return rep_->flat->entries.size() + rep_->overlay.size();
    }
    size_t MaxBucketSize() const;
    size_t OverlayEntries() const { return rep_->overlay.size(); }
    size_t NumTombstones() const { return rep_->tombstones.size(); }
    size_t MemoryBytes() const;

    /// Largest live (non-tombstoned) object id, or -1 when the snapshot is
    /// empty of live entries. The index's Compact() uses this to shrink its
    /// object-count high-water after trailing deletes.
    long long MaxLiveId() const;

   private:
    friend class BucketTable;
    explicit Snapshot(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

    std::vector<std::pair<BucketId, ObjectId>>::const_iterator OverlayLowerBound(
        BucketId lo) const {
      return std::lower_bound(
          rep_->overlay.begin(), rep_->overlay.end(), lo,
          [](const std::pair<BucketId, ObjectId>& e, BucketId b) { return e.first < b; });
    }

    std::shared_ptr<const Rep> rep_;
  };

  /// Pins the current version. Thread-safe against every other method.
  Snapshot snapshot() const EXCLUDES(mu_);

  // Convenience passthroughs: each takes a fresh snapshot. Callers scanning
  // more than once per query should hold their own Snapshot instead.
  template <typename Fn>
  size_t ForEachInRange(BucketId lo, BucketId hi, Fn&& fn) const {
    return snapshot().ForEachInRange(lo, hi, std::forward<Fn>(fn));
  }
  size_t EntriesInRange(BucketId lo, BucketId hi) const {
    return snapshot().EntriesInRange(lo, hi);
  }
  size_t PagesForRange(BucketId lo, BucketId hi, const PageModel& model) const {
    return snapshot().PagesForRange(lo, hi, model);
  }
  size_t num_buckets() const { return snapshot().num_buckets(); }
  size_t num_entries() const { return snapshot().num_entries(); }
  size_t MaxBucketSize() const { return snapshot().MaxBucketSize(); }
  size_t OverlayEntries() const { return snapshot().OverlayEntries(); }
  size_t NumTombstones() const { return snapshot().NumTombstones(); }
  size_t MemoryBytes() const { return snapshot().MemoryBytes(); }

  /// Inserts a dynamic entry into the overlay. An insert is an upsert: it
  /// lifts any tombstone on `id`, drops stale overlay entries from an
  /// earlier insert of the same id, and hides the id's flat-run entries
  /// (bucketed by the superseded vector) until Compact rewrites the run —
  /// so a delete-then-reinsert is visible exactly once, never lost and
  /// never double-counted. Publishes a new version; in-flight Snapshots are
  /// unaffected. Concurrent mutators must be serialized by the caller (the
  /// index's writer lock).
  void Insert(BucketId bucket, ObjectId id) EXCLUDES(mu_);

  /// Marks an object deleted everywhere in this table (tombstone). Undone
  /// by a later Insert of the same id. Same publication contract as Insert.
  void Delete(ObjectId id) EXCLUDES(mu_);

  /// Folds overlay inserts and drops tombstoned entries, restoring the flat
  /// contiguous layout. The fold runs off to the side on a pinned snapshot;
  /// readers keep scanning the old version until the new one is published.
  void Compact() EXCLUDES(mu_);

 private:
  static std::shared_ptr<const Flat> BuildFlat(
      std::vector<std::pair<BucketId, ObjectId>> entries);

  std::shared_ptr<const Rep> CurrentRep() const EXCLUDES(mu_);
  void PublishRep(std::shared_ptr<const Rep> rep) EXCLUDES(mu_);

  mutable Mutex mu_;
  std::shared_ptr<const Rep> rep_ GUARDED_BY(mu_);  ///< never null
};

}  // namespace c2lsh

#endif  // C2LSH_STORAGE_BUCKET_TABLE_H_
