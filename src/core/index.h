// C2lshIndex — the paper's primary contribution.
//
// Indexing: sample m i.i.d. p-stable functions and build one BucketTable per
// function over the base buckets h_i(o).
//
// Query (c-k-ANN): run rounds at radii R = 1, c, c^2, ... Each round widens
// every table's probe interval to the query's level-R bucket (virtual
// rehashing; the widening is incremental because intervals nest) and
// increments per-object collision counters. An object whose count reaches
// the threshold l becomes a *candidate* and its exact distance is verified
// immediately. The round ends with the paper's two termination tests:
//   T1: >= k verified candidates lie within distance c*R  -> answer found;
//   T2: >= k + beta*n candidates were verified in total    -> answer found.
// Otherwise R <- c*R. Returns the k closest verified candidates.
//
// The index is decoupled from vector storage: it maps ids to buckets only,
// and verification distances are computed against the Dataset passed to
// Query. Dynamic inserts/deletes go through the tables' delta overlays.
//
// Concurrency model: queries pin per-table snapshots (storage/bucket_table.h)
// and run lock-free against them, so any number of Searcher queries may run
// concurrently with Insert/Delete/Compact — readers never block on a
// mutation, not even a full compaction. Mutators serialize on an internal
// writer lock; a mutation is visible to every query that *starts* after the
// mutating call returns, while in-flight queries keep the versions they
// pinned.

#pragma once
#ifndef C2LSH_CORE_INDEX_H_
#define C2LSH_CORE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/params.h"
#include "src/core/virtual_rehash.h"
#include "src/lsh/pstable.h"
#include "src/obs/trace.h"
#include "src/storage/bucket_table.h"
#include "src/storage/page_model.h"
#include "src/util/env.h"
#include "src/util/mutex.h"
#include "src/util/query_context.h"
#include "src/util/thread_annotations.h"
#include "src/util/result.h"
#include "src/vector/dataset.h"
#include "src/vector/types.h"

namespace c2lsh {

/// Per-query execution statistics, the raw material of every figure in the
/// evaluation.
struct C2lshQueryStats {
  uint64_t rounds = 0;                 ///< virtual-rehashing rounds executed
  long long final_radius = 0;          ///< R of the terminating round
  uint64_t collision_increments = 0;   ///< counter updates performed
  uint64_t candidates_verified = 0;    ///< exact distance computations
  uint64_t buckets_scanned = 0;        ///< base buckets visited
  uint64_t index_pages = 0;            ///< simulated index I/O (pages)
  uint64_t data_pages = 0;             ///< simulated verification I/O (pages)
  /// Which condition ended the query: kT1 / kT2 / kExhausted (full
  /// coverage), kDeadline / kCancelled (a QueryContext stopped it with
  /// partial results), or kNone when an external bound stopped it first
  /// (RangeQuery's radius schedule, DecisionQuery's single round).
  Termination termination = Termination::kNone;

  uint64_t total_pages() const { return index_pages + data_pages; }
};

/// Reusable per-query scratch space. One instance per thread; see
/// C2lshIndex::Searcher for the thread-safe query API.
struct C2lshQueryScratch {
  std::vector<uint32_t> counts;  ///< per-id collision counts, zeroed per query
  std::vector<ObjectId> ids;     ///< one delta range's live ids, in scan order
  std::vector<BucketId> qbuckets;
};

/// The build recipe both residencies share (C2lshIndex::Build and
/// DiskC2lshIndex::Build): the derived parameters, the radius cap and the
/// sampled hash family for (data, options), and each table's (bucket, id)
/// pairs. The two Builds differ only in where they put the tables, so an
/// index opened from a disk file equals one built in memory by construction.
struct BuildRecipe {
  C2lshDerived derived;
  long long radius_cap = 1;  ///< offsets span b* ~ U[0, w * radius_cap)
  PStableFamily family;

  static Result<BuildRecipe> Make(const Dataset& data, const C2lshOptions& options);

  /// Table `i`'s entries: (h_i(o), o) for every row o of `data`, in row order.
  std::vector<std::pair<BucketId, ObjectId>> TablePairs(const Dataset& data,
                                                        size_t i) const;
};

/// The C2LSH index.
class C2lshIndex {
 public:
  /// Builds the index over `data` (only ids and hashes are retained — keep
  /// the dataset alive and pass it to Query for verification).
  /// `num_threads = 0` builds tables in parallel with hardware concurrency.
  static Result<C2lshIndex> Build(const Dataset& data, const C2lshOptions& options,
                                  size_t num_threads = 0);

  /// Opens an index file written by DiskC2lshIndex::Build into memory: the
  /// same file, resident. DiskC2lshIndex::Open parses it and replays its WAL
  /// tail; every table is then materialized from its live entries (overlays
  /// applied, tombstones dropped), and num_objects() is the largest live id
  /// + 1, as after Compact. Answers equal C2lshIndex::Build over the live
  /// set. A missing file is IOError; a damaged one (torn, truncated, bit
  /// flipped, forged) is Corruption, never a wrong index; a file of a format
  /// this build no longer reads is NotSupported. `env` (nullptr =
  /// Env::Default()) is the filesystem the file lives in.
  static Result<C2lshIndex> Open(const std::string& path, Env* env = nullptr);

  /// c-k-ANN query. Returns up to k neighbors sorted by ascending exact
  /// distance. `stats` may be null. `trace`, when non-null, receives one
  /// span per virtual-rehashing round (cleared first; see src/obs/trace.h).
  /// `ctx` (nullable) bounds the query: on deadline expiry, cancellation, or
  /// an exceeded I/O-page budget the query returns its best-effort partial
  /// results with stats->termination = kDeadline / kCancelled — never an
  /// error (see util/query_context.h).
  /// Safe to call concurrently with Insert/Delete/Compact (the query runs on
  /// pinned table snapshots), but this convenience entry point reuses one
  /// internal scratch shared with FilteredQuery/RangeQuery/DecisionQuery —
  /// at most one of those four may run at a time. Concurrent query callers
  /// must each use their own Searcher instead.
  Result<NeighborList> Query(const Dataset& data, const float* query, size_t k,
                             C2lshQueryStats* stats = nullptr,
                             obs::QueryTrace* trace = nullptr,
                             const QueryContext* ctx = nullptr) const;

  /// A lightweight per-thread query handle. Any number of Searchers may run
  /// concurrently — each owns its scratch, and every query pins immutable
  /// table snapshots, so Searchers are also safe against concurrent
  /// Insert/Delete/Compact. The Searcher must not outlive the index.
  class Searcher {
   public:
    explicit Searcher(const C2lshIndex* index) : index_(index) {}

    /// Same contract as C2lshIndex::Query, safe to call concurrently with
    /// other Searchers.
    Result<NeighborList> Query(const Dataset& data, const float* query, size_t k,
                               C2lshQueryStats* stats = nullptr,
                               obs::QueryTrace* trace = nullptr,
                               const QueryContext* ctx = nullptr) {
      return index_->RunQuery(data, query, k, stats, &scratch_, /*filter=*/nullptr,
                              trace, ctx);
    }

   private:
    const C2lshIndex* index_;
    C2lshQueryScratch scratch_;
  };

  /// Options for QueryBatch (src/core/batch.cc).
  struct BatchQueryOptions {
    /// Queries per execution block; blocks run one after another, each on
    /// min(block, pool width) query-parallel lanes. 0 = the whole batch in
    /// one block.
    size_t batch_size = 0;
    /// Ignored: kept so existing callers still compile. The pool's width is
    /// the only control over parallelism.
    size_t num_shards = 0;
    /// Worker pool whose width sets the lane count; nullptr =
    /// ThreadPool::Shared().
    class ThreadPool* pool = nullptr;
    /// Per-query contexts (deadline/cancellation/page budget), same contract
    /// as Query's ctx. Empty = no context for any query; otherwise must hold
    /// one (nullable) pointer per query row. One query expiring never
    /// perturbs its batchmates' results.
    std::vector<const QueryContext*> contexts;
  };

  /// Batched c-k-ANN over every row of `queries` (src/core/batch.h). Each
  /// block's queries run in parallel across the pool's lanes, every query on
  /// the serial round loop with its own scratch and context, so results,
  /// per-query stats and termination tags are bitwise-identical to a serial
  /// loop of Query() calls for every batch_size/pool configuration. Safe to
  /// call from several threads at once, on one pool or on different pools.
  /// `stats`, when non-null, is resized to one entry per query.
  Result<std::vector<NeighborList>> QueryBatch(
      const Dataset& data, const FloatMatrix& queries, size_t k,
      const BatchQueryOptions& options,
      std::vector<C2lshQueryStats>* stats = nullptr) const;

  /// QueryBatch with default options (whole batch in one block, shared pool,
  /// no per-query contexts). An overload rather than a default argument: a
  /// nested struct's member initializers are only parsed at the end of the
  /// enclosing class, so `= {}` is ill-formed here.
  Result<std::vector<NeighborList>> QueryBatch(const Dataset& data,
                                               const FloatMatrix& queries,
                                               size_t k) const {
    return QueryBatch(data, queries, k, BatchQueryOptions());
  }

  /// Filtered c-k-ANN: like Query, but only objects for which
  /// `filter(id)` returns true may be verified or returned (predicate
  /// push-down — deleted-but-not-compacted rows, tenant isolation, time
  /// windows). Filtered-out objects still participate in collision counting
  /// (their hashes are in the tables) but are skipped at the verification
  /// gate, so the filter adds no distance computations for rejected ids.
  /// The k+beta*n candidate budget counts only accepted objects. Shares the
  /// convenience scratch (see Query for the concurrency contract).
  Result<NeighborList> FilteredQuery(const Dataset& data, const float* query, size_t k,
                                     const std::function<bool(ObjectId)>& filter,
                                     C2lshQueryStats* stats = nullptr) const;

  /// Approximate range query: returns every object within distance `radius`
  /// of the query that becomes frequent by the round at R >= radius —
  /// per-object recall >= 1 - delta by property P1 (an object at distance
  /// <= radius collides >= l times once R >= radius w.h.p.). Results are
  /// sorted ascending by exact distance; false positives are filtered by
  /// verification, so precision is exact. Shares the convenience scratch
  /// (see Query for the concurrency contract). `ctx`, when non-null, applies
  /// the deadline/cancellation contract: the scan polls at the standard
  /// cadence and stops with partial results, recording
  /// stats->termination = kDeadline / kCancelled.
  Result<NeighborList> RangeQuery(const Dataset& data, const float* query, double radius,
                                  C2lshQueryStats* stats = nullptr,
                                  const QueryContext* ctx = nullptr) const;

  /// The (R, c)-NN decision primitive (Definition 2.2 of the LSH
  /// literature): a single round at fixed radius R. Returns a verified
  /// object within distance c*R if the round surfaces one, NotFound
  /// otherwise (which is a correct answer whenever no object lies within R).
  /// `ctx`, when non-null, applies the deadline/cancellation contract: an
  /// interrupted scan records stats->termination = kDeadline / kCancelled,
  /// and a NotFound returned after an interruption is *not* a verified "no"
  /// — callers that care must check the stats.
  Result<Neighbor> DecisionQuery(const Dataset& data, const float* query, long long R,
                                 C2lshQueryStats* stats = nullptr,
                                 const QueryContext* ctx = nullptr) const;

  /// Collision counts of every object against `query` at exactly radius R —
  /// the quantity properties P1/P2 speak about. For property tests and the
  /// threshold-ablation bench. Costs one pass over the query's intervals.
  std::vector<uint32_t> CollisionCountsAtRadius(const float* query, long long R) const;

  /// Dynamic insert: registers object `id` with vector `v` (d floats) in all
  /// m tables' delta overlays. The caller's dataset must expose `id` by the
  /// time a query that should see it runs. Mutators serialize on the writer
  /// lock and are safe against concurrent queries; the insert is visible to
  /// every query that starts after this returns.
  Status Insert(ObjectId id, const float* v) EXCLUDES(writer_mu_);

  /// Dynamic delete: tombstones `id` in all tables. Same concurrency
  /// contract as Insert.
  Status Delete(ObjectId id) EXCLUDES(writer_mu_);

  /// Folds overlays and tombstones back into the flat tables and shrinks the
  /// object-count high-water past trailing deletes. Runs off to the side on
  /// pinned snapshots; concurrent queries never block on it — they keep the
  /// versions they pinned until the compacted tables publish.
  void Compact() EXCLUDES(writer_mu_);

  const C2lshOptions& options() const { return options_; }
  const C2lshDerived& derived() const { return derived_; }
  size_t num_tables() const { return tables_.size(); }
  /// Object-count high-water (1 + largest id ever inserted, until a Compact
  /// after trailing deletes lowers it). Acquire-load so a query thread that
  /// reads the new count also sees the table versions published before it.
  size_t num_objects() const { return num_objects_.load(std::memory_order_acquire); }
  size_t dim() const { return dim_; }
  long long radius_cap() const { return radius_cap_; }
  const PStableFamily& family() const { return family_; }

  /// Resident index bytes (tables + hash functions), for the T2 experiment.
  size_t MemoryBytes() const;

  /// Structural diagnostics over the m hash tables — bucket-occupancy
  /// distribution and overlay pressure. Cheap (directory metadata only);
  /// used by operators to sanity-check a build (a pathological w shows up
  /// as a single giant bucket per table here long before query latency
  /// reveals it).
  struct IndexStats {
    size_t num_tables = 0;
    size_t entries_per_table = 0;       ///< live entries (same for all tables)
    double mean_buckets_per_table = 0;  ///< distinct buckets, averaged
    size_t min_buckets = 0;             ///< worst (most skewed) table
    size_t max_buckets = 0;
    double mean_bucket_size = 0;        ///< entries / buckets, averaged
    size_t max_bucket_size = 0;         ///< largest single bucket anywhere
    size_t overlay_entries = 0;         ///< dynamic inserts awaiting Compact
  };
  IndexStats ComputeStats() const;

  // Movable (for Result<C2lshIndex> and factory returns); moves must not
  // race with any other use of either index — the writer Mutex and atomic
  // count pin the object in place otherwise.
  C2lshIndex(C2lshIndex&& other) noexcept;
  C2lshIndex& operator=(C2lshIndex&& other) noexcept;
  C2lshIndex(const C2lshIndex&) = delete;
  C2lshIndex& operator=(const C2lshIndex&) = delete;

 private:
  C2lshIndex(C2lshOptions options, C2lshDerived derived, PStableFamily family,
             std::vector<BucketTable> tables, size_t num_objects, size_t dim,
             long long radius_cap);

  /// Shared round loop, run to termination. `scratch` holds the per-query
  /// state; distinct scratches make concurrent queries safe. `filter`, when
  /// non-null, gates verification (see FilteredQuery). `trace`, when
  /// non-null, records one QueryRoundSpan per round. `ctx`, when non-null,
  /// is checked at every round boundary (deadline, cancellation, page
  /// budget) and inside the bucket scan (cancellation every increment, the
  /// clock every kCheckIntervalMask+1 increments); expiry stops the query
  /// cooperatively with partial results.
  Result<NeighborList> RunQuery(const Dataset& data, const float* query, size_t k,
                                C2lshQueryStats* stats, C2lshQueryScratch* scratch,
                                const std::function<bool(ObjectId)>* filter = nullptr,
                                obs::QueryTrace* trace = nullptr,
                                const QueryContext* ctx = nullptr) const;

  /// Refreshes the overlay/tombstone gauges after a mutation. Called with
  /// writer_mu_ held (tables are quiescent, so per-table snapshots agree).
  void UpdateMutationGauges() const;

  C2lshOptions options_;
  C2lshDerived derived_;
  PStableFamily family_;
  std::vector<BucketTable> tables_;
  /// Store-release by mutators after their table versions publish; see
  /// num_objects().
  std::atomic<size_t> num_objects_{0};
  size_t dim_ = 0;
  long long radius_cap_ = 1;  ///< c^max_radius_exponent
  PageModel page_model_;
  /// Serializes Insert/Delete/Compact against each other (never held while a
  /// query scans — queries run on pinned snapshots).
  mutable Mutex writer_mu_;

  // Scratch behind the convenience Query()/DecisionQuery() entry points
  // (those are documented non-concurrent; Searcher owns its own).
  mutable C2lshQueryScratch scratch_;
};

}  // namespace c2lsh

#endif  // C2LSH_CORE_INDEX_H_
