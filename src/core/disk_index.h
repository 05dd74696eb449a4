// DiskC2lshIndex: the external-memory deployment the paper describes —
// hash tables resident in a PageFile, queried through an LRU BufferPool
// whose misses ARE the I/O cost (no simulation).
//
// Its file is the library's one index file, with two residencies: this
// class queries it in place, and C2lshIndex::Open (core/index.h) reads it
// through this class's Open — the only parser of the meta blob — and
// materializes every table in memory. Build here is how any index is saved.
//
// File layout (one PageFile):
//   page 0   PageFile header
//   page 1   superblock: [meta blob root: u64]
//   ...      data segment (store_vectors only): the raw vectors
//   ...      per-table entry pages + directory blobs (DiskBucketTable)
//   ...      meta blob: options, derived params, hash functions, table roots
//   <path>.wal beside it: the write-ahead log of mutations since the last
//            compaction
//
// The query algorithm is identical to C2lshIndex (incremental virtual
// rehashing, T1/T2 termination); candidate vectors live with the caller's
// Dataset, and their fetch cost is charged via the analytic model as in the
// in-memory index (the paper likewise separates index I/O from the one
// random data access per candidate).
//
// Mutability & crash safety: Insert/Delete append an LSN-stamped record to a
// write-ahead log beside the index file (<path>.wal) and acknowledge only
// after the log syncs; the in-memory effect is a per-table overlay entry or
// tombstone (storage/disk_bucket_table.h). Open() replays the log — records
// at or below the durably published applied-LSN watermark are skipped, a
// torn or corrupt tail is truncated, never applied — so every acknowledged
// mutation is visible exactly once after any crash. Compact() folds overlays
// and tombstones into freshly appended bucket runs (and a rewritten data
// segment), publishes the new meta root atomically through the PageFile
// header's user_root, then truncates the log; a crash at any point recovers
// either the pre- or post-compaction image, both complete.

#pragma once
#ifndef C2LSH_CORE_DISK_INDEX_H_
#define C2LSH_CORE_DISK_INDEX_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/index.h"
#include "src/core/params.h"
#include "src/lsh/pstable.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_bucket_table.h"
#include "src/storage/page_file.h"
#include "src/storage/wal.h"
#include "src/util/query_context.h"
#include "src/util/result.h"
#include "src/vector/dataset.h"

namespace c2lsh {

/// Query statistics with measured pool I/O.
struct DiskQueryStats {
  C2lshQueryStats base;   ///< rounds, candidates, etc. index_pages here is
                          ///< the MEASURED pool-miss count.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  /// Degraded-query accounting: when an index or data page fails its
  /// checksum mid-query, the query drops the affected table (or candidate)
  /// instead of aborting — the results are still genuine neighbors with
  /// exact distances, but possibly fewer of them. `degraded` is the signal
  /// that the answer may be incomplete; it is NEVER silently wrong.
  bool degraded = false;
  uint64_t tables_skipped = 0;      ///< hash tables dropped on a corrupt page
  uint64_t candidates_skipped = 0;  ///< candidates dropped on a corrupt data page
};

/// The disk-resident C2LSH index.
class DiskC2lshIndex {
 public:
  /// Builds the index over `data` into a fresh page file at `path`.
  /// `pool_pages` is the buffer-pool capacity used for both build and
  /// queries (the paper's experiments fix a small constant buffer).
  /// When `store_vectors` is true (the default) the raw vectors are written
  /// into a data segment of the same file, making the index fully
  /// self-contained: queries need no external Dataset and every candidate
  /// verification is a *measured* page access — the complete external-memory
  /// deployment of the paper.
  /// `env` (nullptr = Env::Default()) is the filesystem the index lives in;
  /// tests pass a FaultInjectionEnv to exercise crash and corruption paths.
  static Result<DiskC2lshIndex> Build(const Dataset& data, const C2lshOptions& options,
                                      const std::string& path, size_t pool_pages = 256,
                                      bool store_vectors = true, Env* env = nullptr);

  /// Reopens an index built by Build. After a crash during Build or Sync
  /// this either recovers a fully consistent index or fails with
  /// Corruption (never a partially-applied one). Surviving WAL records are
  /// replayed into the tables' overlays, so every acknowledged Insert/Delete
  /// is visible — exactly once — no matter where the crash landed.
  static Result<DiskC2lshIndex> Open(const std::string& path, size_t pool_pages = 256,
                                     Env* env = nullptr);

  /// Dynamic insert: logs (id, vector) to the WAL, syncs, and only then
  /// applies the mutation to the per-table overlays — a return of OK means
  /// the insert survives any crash. The id becomes the new high-water when
  /// it extends the id space. Mutators and queries on a DiskC2lshIndex share
  /// per-query scratch and the single WAL cursor: callers must serialize
  /// Insert/Delete/Compact/Query externally (single-writer, single-reader;
  /// the in-memory C2lshIndex is the concurrent-query engine).
  Status Insert(ObjectId id, const float* v);

  /// Dynamic delete: logs a tombstone, syncs, then hides `id` from every
  /// table. NotFound if `id` was never registered. Same durability and
  /// serialization contract as Insert.
  Status Delete(ObjectId id);

  /// Folds overlays, tombstones, and overlay vectors into freshly written
  /// bucket runs (and data segment), atomically publishes the new meta root
  /// via the PageFile header, then truncates the WAL. Old pages stay in the
  /// file as dead space until the next full rebuild — crash safety over
  /// space reuse. A crash anywhere during compaction recovers either the old
  /// image (plus WAL replay) or the new one, never a mix.
  Status Compact();

  /// Forces everything to durable storage without changing the image: syncs
  /// the WAL (a no-op for already-acked mutations, which sync before ack)
  /// and the PageFile (publishing its current header generation). The
  /// serving layer calls this per index during graceful drain so a
  /// post-drain kill -9 loses nothing. Same external-serialization contract
  /// as Insert.
  Status Flush();

  /// c-k-ANN query against the stored data segment. Requires the index to
  /// have been built with store_vectors = true. `trace`, when non-null,
  /// receives one span per rehashing round plus measured pool hit/miss
  /// counts (src/obs/trace.h). `ctx` (nullable) bounds the query: on
  /// deadline expiry, cancellation, or an exceeded I/O-page budget
  /// (measured pool misses) the query returns best-effort partial results
  /// with termination kDeadline / kCancelled — never an error; an expired
  /// context also stops in-flight transient-fault retries (util/retry.h).
  /// Single-threaded: queries share one scratch and must also be serialized
  /// against Insert/Delete/Compact (see Insert).
  Result<NeighborList> Query(const float* query, size_t k,
                             DiskQueryStats* stats = nullptr,
                             obs::QueryTrace* trace = nullptr,
                             const QueryContext* ctx = nullptr) const;

  /// c-k-ANN query verifying against the caller's dataset (works with or
  /// without a stored data segment); identical answers to the in-memory
  /// C2lshIndex built with the same options/seed. Single-threaded: same
  /// serialization contract as the stored-vector Query above.
  Result<NeighborList> Query(const Dataset& data, const float* query, size_t k,
                             DiskQueryStats* stats = nullptr,
                             obs::QueryTrace* trace = nullptr,
                             const QueryContext* ctx = nullptr) const;

  /// Batched c-k-ANN against the stored data segment: one query per row of
  /// `queries`, answers identical to looping Query(). The projection layer is
  /// batched — all rows are bucketed in one query-major GEMM-style pass
  /// (PStableFamily::BucketAllMulti, bit-identical to per-query bucketing) —
  /// but the scan/verify rounds run sequentially per query: the disk index
  /// is documented single-reader (one scratch, one WAL cursor, one buffer
  /// pool), so unlike C2lshIndex::QueryBatch its queries do not run in
  /// parallel. `contexts`, when non-empty, holds one (nullable) QueryContext per
  /// row with the usual per-query deadline/cancellation/budget semantics —
  /// one query expiring never perturbs its batchmates. `stats`, when
  /// non-null, is resized to one entry per query.
  Result<std::vector<NeighborList>> QueryBatch(
      const FloatMatrix& queries, size_t k,
      std::vector<DiskQueryStats>* stats = nullptr,
      const std::vector<const QueryContext*>& contexts = {}) const;

  /// QueryBatch verifying against the caller's dataset (works with or
  /// without a stored data segment). Same contract as the stored-vector
  /// QueryBatch above.
  Result<std::vector<NeighborList>> QueryBatch(
      const Dataset& data, const FloatMatrix& queries, size_t k,
      std::vector<DiskQueryStats>* stats = nullptr,
      const std::vector<const QueryContext*>& contexts = {}) const;

  bool has_stored_vectors() const { return first_data_page_ != 0; }

  const C2lshOptions& options() const { return options_; }
  const C2lshDerived& derived() const { return derived_; }
  size_t num_objects() const { return num_objects_; }
  size_t dim() const { return dim_; }
  size_t num_tables() const { return tables_.size(); }
  long long radius_cap() const { return radius_cap_; }
  const PStableFamily& family() const { return *family_; }
  const DiskBucketTable& table(size_t i) const { return tables_[i]; }

  /// Dynamic inserts awaiting Compact, summed over tables.
  size_t OverlayEntries() const;
  /// Objects deleted but not yet compacted away.
  size_t NumTombstones() const { return deleted_ids_.size(); }
  /// LSN of the last WAL record folded into the published base image.
  uint64_t applied_lsn() const { return applied_lsn_; }
  /// LSN of the last record appended to (or replayed from) the WAL.
  uint64_t wal_last_lsn() const { return wal_ != nullptr ? wal_->last_lsn() : 0; }

  /// Pages in the file — the on-disk index size.
  uint64_t FilePages() const { return file_->num_pages(); }

  /// Cumulative pool statistics (reset by ResetPoolStats). By value: the
  /// pool hands out a snapshot, not a reference into mutex-guarded state.
  BufferPoolStats pool_stats() const { return pool_->stats(); }
  void ResetPoolStats() { pool_->ResetStats(); }

  /// Transient-failure retry counters of the underlying PageFile.
  const RetryStats& retry_stats() const { return file_->retry_stats(); }

  /// Retry behavior of the underlying PageFile for transient env failures.
  /// Tests install sleepy policies here to race cancellation against an
  /// in-flight retry loop.
  void SetRetryPolicy(const RetryPolicy& policy) { file_->SetRetryPolicy(policy); }

  /// Buffer-pool frames currently pinned. Zero between queries — the
  /// cancellation tests assert an early-stopped query leaks no pins.
  size_t PinnedPoolFrames() const { return pool_->PinnedFrames(); }

 private:
  DiskC2lshIndex() = default;

  /// Shared query loop. `data` may be null when vectors are stored.
  /// `qbuckets`, when non-null, holds the query's num_tables() precomputed
  /// bucket ids (QueryBatch's batched projection); null recomputes them.
  Result<NeighborList> RunDiskQuery(const Dataset* data, const float* query, size_t k,
                                    DiskQueryStats* stats, obs::QueryTrace* trace,
                                    const QueryContext* ctx,
                                    const BucketId* qbuckets = nullptr) const;

  /// Shared validation + projection + sequential loop behind both QueryBatch
  /// overloads.
  Result<std::vector<NeighborList>> RunDiskBatch(
      const Dataset* data, const FloatMatrix& queries, size_t k,
      std::vector<DiskQueryStats>* stats,
      const std::vector<const QueryContext*>& contexts) const;

  /// Reads object `id`'s vector from the data segment into `out`
  /// (dim_ floats), charging the pool. `ctx` bounds the retry loop of the
  /// underlying page reads.
  Status ReadStoredVector(ObjectId id, float* out, const QueryContext* ctx) const;

  /// Vector lookup that sees mutations: overlay vectors first (free — they
  /// are resident), then the data segment. `id` must be live.
  Status LoadVector(ObjectId id, float* out, const QueryContext* ctx) const;

  /// Applies one WAL record to the in-memory overlays (shared by the live
  /// mutation path and Open's replay, so replayed and acked mutations cannot
  /// diverge).
  Status ApplyRecord(const WriteAheadLog::Record& rec);

  /// Refreshes the disk-side overlay/tombstone gauges.
  void UpdateMutationGauges() const;

  C2lshOptions options_;
  C2lshDerived derived_;
  size_t num_objects_ = 0;
  size_t dim_ = 0;
  long long radius_cap_ = 1;
  PageId first_data_page_ = 0;  ///< 0 = no data segment
  size_t stored_objects_ = 0;   ///< vectors resident in the data segment
  std::string path_;
  Env* env_ = nullptr;  ///< not owned; the filesystem the index lives in

  /// Durability state. applied_lsn_ is the watermark baked into the meta
  /// blob: records at or below it are already part of the base image and are
  /// skipped at replay.
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t applied_lsn_ = 0;

  /// The mutation delta mirrored by the WAL: vectors of dynamic inserts
  /// (resident until a compaction moves them into the data segment) and the
  /// sorted set of deleted ids (every table tombstones the same set).
  std::map<ObjectId, std::vector<float>> overlay_vectors_;
  std::vector<ObjectId> deleted_ids_;

  // Order matters: tables_ hold raw pool pointers, pool_ holds a raw file
  // pointer; destruction must run tables -> pool -> file.
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<PStableFamily> family_;
  std::vector<DiskBucketTable> tables_;

  // Per-query scratch.
  mutable std::vector<uint32_t> counts_;  ///< per-id collision counts
  mutable std::vector<float> vector_buf_;
  mutable std::vector<uint8_t> table_bad_;  ///< tables dropped this query
  mutable ScanCursor cursor_;  ///< one entry page per table, m pages at most
};

}  // namespace c2lsh

#endif  // C2LSH_CORE_DISK_INDEX_H_
