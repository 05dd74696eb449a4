// The batched, shard-parallel query engine behind C2lshIndex::QueryBatch.
// See src/core/batch.h for the architecture and the determinism contract.

#include "src/core/batch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/core/counter.h"
#include "src/core/virtual_rehash.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/storage/page_model.h"
#include "src/util/timer.h"
#include "src/vector/distance.h"
#include "src/vector/matrix.h"

namespace c2lsh {
namespace batch {
namespace {

// Registry handles for the engine itself, resolved once per process. A
// finished batch query also flushes through the shared core c2lsh_*
// instruments (FlushQueryMetrics, the same flush RunQuery uses), so serial
// and batched queries land in one set of counters.
struct BatchMetrics {
  obs::Counter* batch_queries;
  obs::Counter* batch_blocks;
  obs::Counter* scan_groups;
  obs::Counter* shared_scan_hits;
  obs::Gauge* batch_size;
  obs::Gauge* num_shards;
  obs::Gauge* pool_threads;
  obs::Histogram* batch_query_millis;
};

const BatchMetrics& Metrics() {
  static const BatchMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return BatchMetrics{
        r.GetCounter("c2lsh_batch_queries_total",
                     "Queries answered through the batched engine (QueryBatch)"),
        r.GetCounter("c2lsh_batch_blocks_total",
                     "Co-resident execution blocks run by QueryBatch"),
        r.GetCounter("c2lsh_batch_scan_groups_total",
                     "Distinct (table, bucket-run) scans performed by the batch engine"),
        r.GetCounter("c2lsh_batch_shared_scan_hits_total",
                     "Bucket-run scans saved by sharing (group members beyond the first)"),
        r.GetGauge("c2lsh_batch_size",
                   "Co-resident queries per execution block (last QueryBatch)"),
        r.GetGauge("c2lsh_batch_num_shards",
                   "Table shards per execution block (last QueryBatch)"),
        r.GetGauge("c2lsh_thread_pool_threads",
                   "Worker threads in the pool serving QueryBatch"),
        r.GetHistogram("c2lsh_batch_query_millis",
                       "Per-query completion latency within a batch block (ms)"),
    };
  }();
  return m;
}

/// One co-resident query's execution state across rounds. `counts` is the
/// zeroed per-id array the counting kernel (core/counter.h) runs on, the
/// same layout RunQuery keeps in its scratch.
struct QueryState {
  std::vector<uint32_t> counts;    ///< per-id collision count this query
  std::vector<BucketRange> prev;   ///< per-table interval already scanned
  /// 1 once this query's interval covers every entry the table holds.
  /// Coverage is monotone (intervals only grow over a pinned snapshot), so
  /// a covered table contributes nothing in any later round — its delta
  /// ranges hold zero entries and charge zero pages — and Phase A skips it
  /// entirely instead of re-deriving an empty delta, which is where the
  /// exhaustive-fallback rounds of easy profiles spend most of their
  /// per-table bookkeeping.
  std::vector<uint8_t> table_covered;
  NeighborList found;
  C2lshQueryStats stats;
  Termination early_stop = Termination::kNone;
};

/// One shared scan: a distinct (table, bucket-run) some subset of the active
/// queries probes this round. The run is scanned exactly once; every member
/// query consumes the same id buffer by reference in Phase B (no per-member
/// copies), while the I/O it represents is charged to each member
/// individually, as a serial Query would charge it.
struct GroupScan {
  std::vector<ObjectId> ids;   ///< id<n entries, in scan order
  uint64_t index_pages = 0;    ///< per-member page charge for this run
  uint64_t buckets_scanned = 0;  ///< live entries enumerated (incl. id>=n)
};

/// What one shard hands one query at the round barrier: the indices (into
/// the shard's GroupScan pool, in deterministic sorted-range order) of the
/// runs this query is a member of, plus the coverage AND over the shard's
/// tables. Written by exactly one shard in Phase A, read by exactly one
/// query in Phase B — the ParallelFor barrier between the phases is the
/// only synchronization needed.
struct ShardDelta {
  std::vector<uint32_t> group_ixs;
  bool covered = true;
};

}  // namespace

void RunBatchBlock(const C2lshIndex& index, const Dataset& data,
                   const float* queries, size_t num_queries, size_t qstride,
                   size_t k, const QueryContext* const* ctxs,
                   size_t num_shards, ThreadPool* pool,
                   NeighborList* results, C2lshQueryStats* stats) {
  // Block-level sampling (kAlways / kEveryNth); per-query opt-in contexts
  // still get their pool/page spans via the instrumented lower layers.
  const bool sampled = obs::Tracer::Global().SampleQuery(nullptr);
  const uint64_t block_id =
      sampled ? obs::Tracer::Global().NextQueryId() : 0;
  obs::ScopedSpan block_span(obs::SpanSubsystem::kBatch, "batch_block",
                             block_id, sampled);
  Timer block_timer;
  // The block's frozen view, same scheme as RunQuery: the object count is
  // read once and every table is pinned once, up front, shared by all
  // co-resident queries.
  const size_t n = index.num_objects();
  const size_t m = index.num_tables();
  const size_t dim = index.dim();
  const uint32_t l = static_cast<uint32_t>(index.derived().l);
  const double c = index.derived().model.c;
  const long long c_int = static_cast<long long>(std::llround(c));
  const long long radius_cap = index.radius_cap();
  const size_t t2_threshold = std::min<size_t>(
      n, k + static_cast<size_t>(
                 std::ceil(index.derived().beta * static_cast<double>(n))));
  const PageModel page_model(index.options().page_bytes);
  const uint64_t vector_pages = page_model.PagesPerVector(dim);

  std::vector<BucketTable::Snapshot> snaps;
  snaps.reserve(m);
  for (size_t i = 0; i < m; ++i) snaps.push_back(index.table(i).snapshot());

  // Layer 1: one query-major GEMM-style projection pass buckets the whole
  // block — qbuckets[q * m + i] is bit-identical to per-query BucketAll.
  std::vector<BucketId> qbuckets;
  index.family().BucketAllMulti(queries, num_queries, qstride, &qbuckets);

  const size_t S = std::max<size_t>(1, std::min(num_shards, std::max<size_t>(m, 1)));
  std::vector<QueryState> states(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    QueryState& qs = states[q];
    qs.counts.assign(n, 0);
    qs.prev.assign(m, BucketRange{});
    qs.table_covered.assign(m, 0);
    qs.found.reserve(t2_threshold + m);
    // Per-table descent charge, once per query (RunQuery's I/O model).
    qs.stats.index_pages += m;
  }

  // deltas[s][q]: shard s's round contribution to query q (indices into
  // groups_pool[s]). The pools keep their buffers across rounds so the
  // steady state allocates nothing.
  std::vector<std::vector<ShardDelta>> deltas(S, std::vector<ShardDelta>(num_queries));
  std::vector<std::vector<GroupScan>> groups_pool(S);
  std::vector<uint64_t> shard_scan_groups(S, 0);
  std::vector<uint64_t> shard_shared_hits(S, 0);

  std::vector<uint32_t> active;
  active.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) active.push_back(static_cast<uint32_t>(q));

  const BatchMetrics& bm = Metrics();
  auto finalize = [&](uint32_t q) {
    QueryState& qs = states[q];
    // Only the k nearest survive — identical finalization to RunQuery, and
    // NeighborLess is a total order (distance, then id), so the ranking is
    // unique regardless of verification order.
    if (qs.found.size() > k) {
      std::partial_sort(qs.found.begin(),
                        qs.found.begin() + static_cast<std::ptrdiff_t>(k),
                        qs.found.end(), NeighborLess());
      qs.found.resize(k);
    } else {
      std::sort(qs.found.begin(), qs.found.end(), NeighborLess());
    }
    results[q] = std::move(qs.found);
    stats[q] = qs.stats;
    const double millis = block_timer.ElapsedMillis();
    FlushQueryMetrics(qs.stats, millis, /*exemplar_id=*/0);
    bm.batch_queries->Increment();
    bm.batch_query_millis->Observe(millis);
  };

  long long R = 1;
  while (!active.empty()) {
    // Round boundary: the full context check (deadline, cancellation, page
    // budget) per query. A pre-expired context runs zero rounds and returns
    // empty, exactly as in RunQuery; its batchmates are untouched.
    {
      size_t w = 0;
      for (uint32_t q : active) {
        QueryState& qs = states[q];
        const QueryContext* ctx = (ctxs != nullptr) ? ctxs[q] : nullptr;
        if (ctx != nullptr && qs.early_stop == Termination::kNone) {
          qs.early_stop = ctx->Check(qs.stats.total_pages());
        }
        if (qs.early_stop != Termination::kNone) {
          qs.stats.termination = qs.early_stop;
          finalize(q);
        } else {
          active[w++] = q;
        }
      }
      active.resize(w);
    }
    if (active.empty()) break;
    obs::ScopedSpan round_span(obs::SpanSubsystem::kRound, "batch_round",
                               block_id, sampled);
    for (uint32_t q : active) {
      ++states[q].stats.rounds;
      states[q].stats.final_radius = R;
    }

    // Phase A — sharded shared scans. Shard s owns tables i % S == s; for
    // each owned table it groups the active queries by identical delta
    // range and scans each distinct range ONCE, into a single group-owned
    // id buffer every member consumes by reference in Phase B. Writes are
    // confined to the shard's own deltas[s] row and groups_pool[s], each
    // query's own prev elements of the shard's tables, and the shard's own
    // metric slots — disjoint by construction (the thread_pool.h
    // ParallelFor contract).
    obs::ScopedSpan phase_a_span(obs::SpanSubsystem::kBatch, "phase_a_scan",
                                 block_id, sampled);
    pool->ParallelFor(S, [&](size_t s) {
      std::vector<GroupScan>& pool_s = groups_pool[s];
      size_t used = 0;     // GroupScan slots consumed this round
      uint64_t refs = 0;   // (query, run) memberships this round
      for (uint32_t q : active) {
        ShardDelta& d = deltas[s][q];
        d.group_ixs.clear();
        d.covered = true;
      }
      // Per-table grouping scratch, reused across the shard's tables: one
      // slot per non-empty delta side, in (active query, left, right)
      // order. Sort-based grouping over these flat arrays replaces a keyed
      // map — no node allocations on the per-round hot path.
      std::vector<std::pair<BucketId, BucketId>> side_keys;
      std::vector<uint32_t> side_q;    // owning query of each side
      std::vector<uint32_t> side_ix;   // resolved GroupScan index
      std::vector<uint32_t> order;     // sort permutation over sides
      // analyze-ok(cancellation-cadence): Phase A only groups and scans one round's bounded delta ranges; the consuming Phase B merge polls cancellation every increment and the clock at the mask cadence, and the driver runs the full ctx Check at every round boundary.
      for (size_t i = s; i < m; i += S) {
        const BucketTable::Snapshot& snap = snaps[i];
        side_keys.clear();
        side_q.clear();
        // analyze-ok(cancellation-cadence): one bounded pass over this round's active queries — grouping plus at most one shared scan per distinct delta range; per-query polls happen in the Phase B merge (every increment / mask cadence) and at the round boundary.
        for (uint32_t q : active) {
          QueryState& qs = states[q];
          // A covered table stays covered (the interval only grows over the
          // pinned snapshot): no new entries, no pages, nothing to do.
          if (qs.table_covered[i] != 0) continue;
          const BucketRange next =
              QueryIntervalAtRadiusCapped(qbuckets[q * m + i], R, radius_cap);
          const RangeDelta delta = ComputeRangeDelta(qs.prev[i], next);
          qs.prev[i] = next;
          if (!delta.left.empty()) {
            side_keys.emplace_back(delta.left.lo, delta.left.hi);
            side_q.push_back(q);
          }
          if (!delta.right.empty()) {
            side_keys.emplace_back(delta.right.lo, delta.right.hi);
            side_q.push_back(q);
          }
          // Coverage test, per query: once the interval spans every bucket
          // the table holds, further rounds cannot add collisions from it.
          if (snap.num_buckets() > 0 &&
              snap.EntriesInRange(next.lo, next.hi) < snap.num_entries()) {
            deltas[s][q].covered = false;
          } else {
            qs.table_covered[i] = 1;
          }
        }
        const size_t num_sides = side_keys.size();
        refs += num_sides;
        order.resize(num_sides);
        for (size_t e = 0; e < num_sides; ++e) order[e] = static_cast<uint32_t>(e);
        std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
          return side_keys[a] < side_keys[b];
        });
        side_ix.resize(num_sides);
        // Walk the sorted runs: the first side of each distinct (lo, hi)
        // scans the run once; the rest just take its index. Which side of a
        // tied run scans is irrelevant — every member consumes the same
        // buffer, and each query's own group order is fixed below.
        // analyze-ok(cancellation-cadence): at most one bounded shared scan per distinct delta range this round; per-query ctx polls happen in the Phase B merge and at the round boundary.
        for (size_t e = 0; e < num_sides;) {
          const std::pair<BucketId, BucketId> key = side_keys[order[e]];
          const uint32_t ix = static_cast<uint32_t>(used++);
          if (pool_s.size() <= ix) pool_s.emplace_back();
          GroupScan& g = pool_s[ix];
          g.ids.clear();
          // I/O is charged per member even though the scan is shared — the
          // paper's cost model (and RunQuery) charges every query for the
          // entry pages its interval covers.
          const size_t range_entries = snap.EntriesInRange(key.first, key.second);
          g.index_pages =
              range_entries > 0
                  ? page_model.PagesForEntries(range_entries, sizeof(ObjectId))
                  : 0;
          // buckets_scanned counts every live entry enumerated (including
          // ids inserted after the block pinned its view); only id < n
          // entries feed the collision counters — both exactly as in
          // RunQuery. The bulk append is one sequential copy of the flat
          // run's contiguous slice in the common no-deletes case.
          g.buckets_scanned = snap.AppendRangeTo(key.first, key.second, n, &g.ids);
          for (; e < num_sides && side_keys[order[e]] == key; ++e) {
            side_ix[order[e]] = ix;
          }
        }
        // Fan the indices back out in the original (query, left, right)
        // order, so each query consumes its groups exactly as a serial
        // Query would scan its own delta ranges.
        for (size_t e = 0; e < num_sides; ++e) {
          deltas[s][side_q[e]].group_ixs.push_back(side_ix[e]);
        }
      }
      shard_scan_groups[s] += used;
      shard_shared_hits[s] += refs - used;
    });
    phase_a_span.End();

    // Phase B — per-query merge. Each query (one owner per count array, no
    // atomics) runs every shard's buffers through the counting kernel, which
    // keeps the serial cadence when the query has a context. The round-end
    // verified set is increment-order-independent, so the merge order
    // (shard 0..S-1, scan order within) yields the same state as any serial
    // interleaving.
    obs::ScopedSpan phase_b_span(obs::SpanSubsystem::kBatch, "phase_b_merge",
                                 block_id, sampled);
    pool->ParallelFor(active.size(), [&](size_t a) {
      const uint32_t q = active[a];
      QueryState& qs = states[q];
      const QueryContext* ctx = (ctxs != nullptr) ? ctxs[q] : nullptr;
      const float* query = queries + q * qstride;
      bool all_covered = true;
      // analyze-ok(cancellation-cadence): O(S + groups) bookkeeping sweep over this round's group indices; the counting kernel just below polls cancellation every increment and the clock at the mask cadence.
      for (size_t s = 0; s < S; ++s) {
        const ShardDelta& d = deltas[s][q];
        all_covered = all_covered && d.covered;
        for (uint32_t ix : d.group_ixs) {
          const GroupScan& g = groups_pool[s][ix];
          qs.stats.index_pages += g.index_pages;
          qs.stats.buckets_scanned += g.buckets_scanned;
        }
      }
      auto on_frequent = [&](ObjectId id) {
        const double dist = L2(query, data.object(id), dim);
        qs.found.push_back(Neighbor{id, static_cast<float>(dist)});
        ++qs.stats.candidates_verified;
        qs.stats.data_pages += vector_pages;
      };
      for (size_t s = 0; s < S && qs.early_stop == Termination::kNone; ++s) {
        for (uint32_t ix : deltas[s][q].group_ixs) {
          const std::vector<ObjectId>& ids = groups_pool[s][ix].ids;
          qs.early_stop = CountCollisions(ids.data(), ids.size(), qs.counts.data(), l, ctx,
                                          &qs.stats.collision_increments, on_frequent);
          if (qs.early_stop != Termination::kNone) break;
        }
      }
      // Round end, merged counts: T1 > T2 > early stop > exhausted — the
      // exact RunQuery precedence. T1 is evaluated even after an early stop
      // so a query whose partial merge already proved the answer gets the
      // full-quality termination.
      const double cr = c * static_cast<double>(R);
      size_t within = 0;
      for (const Neighbor& nb : qs.found) {
        if (nb.dist <= cr) ++within;
        if (within >= k) break;
      }
      if (within >= k) {
        qs.stats.termination = Termination::kT1;
      } else if (qs.found.size() >= t2_threshold) {
        qs.stats.termination = Termination::kT2;
      } else if (qs.early_stop != Termination::kNone) {
        qs.stats.termination = qs.early_stop;
      } else if (all_covered) {
        qs.stats.termination = Termination::kExhausted;
      }
    });

    // Retire finished queries (sequential, so metric flush order is
    // deterministic) and advance the radius schedule.
    size_t w = 0;
    // analyze-ok(cancellation-cadence): O(active) bookkeeping at the round boundary — the boundary immediately rechecks every remaining query's ctx at the top of the next iteration.
    for (uint32_t q : active) {
      if (states[q].stats.termination != Termination::kNone) {
        finalize(q);
      } else {
        active[w++] = q;
      }
    }
    active.resize(w);
    R *= c_int;
  }

  uint64_t scan_groups = 0;
  uint64_t shared_hits = 0;
  for (size_t s = 0; s < S; ++s) {
    scan_groups += shard_scan_groups[s];
    shared_hits += shard_shared_hits[s];
  }
  bm.scan_groups->Increment(scan_groups);
  bm.shared_scan_hits->Increment(shared_hits);
  bm.batch_blocks->Increment();
}

}  // namespace batch

Result<std::vector<NeighborList>> C2lshIndex::QueryBatch(
    const Dataset& data, const FloatMatrix& queries, size_t k,
    const BatchQueryOptions& options, std::vector<C2lshQueryStats>* stats) const {
  if (k == 0) return Status::InvalidArgument("C2LSH query: k must be positive");
  if (queries.dim() != dim_) {
    return Status::InvalidArgument("QueryBatch: query dim mismatch");
  }
  if (data.dim() != dim_) {
    return Status::InvalidArgument("C2LSH query: dataset dim mismatch");
  }
  if (data.size() < num_objects()) {
    return Status::InvalidArgument(
        "C2LSH query: dataset has fewer objects than the index — pass the dataset the "
        "index was built on (plus any inserted rows)");
  }
  const size_t nq = queries.num_rows();
  if (!options.contexts.empty() && options.contexts.size() != nq) {
    return Status::InvalidArgument(
        "QueryBatch: contexts must be empty or hold one (nullable) pointer per query row");
  }
  std::vector<NeighborList> results(nq);
  std::vector<C2lshQueryStats> local_stats;
  std::vector<C2lshQueryStats>* st = (stats != nullptr) ? stats : &local_stats;
  st->assign(nq, C2lshQueryStats());
  if (nq == 0) return results;

  ThreadPool* pool = (options.pool != nullptr) ? options.pool : &ThreadPool::Shared();
  const size_t m = tables_.size();
  size_t num_shards = (options.num_shards != 0) ? options.num_shards : pool->num_threads();
  num_shards = std::max<size_t>(1, std::min(num_shards, std::max<size_t>(m, 1)));
  const size_t block = (options.batch_size != 0) ? options.batch_size : nq;

  const batch::BatchMetrics& bm = batch::Metrics();
  bm.batch_size->Set(static_cast<double>(std::min(block, nq)));
  bm.num_shards->Set(static_cast<double>(num_shards));
  bm.pool_threads->Set(static_cast<double>(pool->num_threads()));

  for (size_t start = 0; start < nq; start += block) {
    const size_t count = std::min(block, nq - start);
    const QueryContext* const* ctxs =
        options.contexts.empty() ? nullptr : options.contexts.data() + start;
    batch::RunBatchBlock(*this, data, queries.row(start), count, queries.dim(), k,
                         ctxs, num_shards, pool, results.data() + start,
                         st->data() + start);
  }
  return results;
}

Result<std::vector<NeighborList>> C2lshIndex::BatchQuery(const Dataset& data,
                                                         const FloatMatrix& queries,
                                                         size_t k,
                                                         size_t num_threads) const {
  // Thin wrapper over the batch engine: num_threads bounds the table
  // sharding. Results are bitwise-invariant under the value (determinism
  // contract), so callers migrating from the old thread-per-query loop see
  // identical answers for every setting.
  BatchQueryOptions options;
  options.num_shards = num_threads;
  return QueryBatch(data, queries, k, options);
}

}  // namespace c2lsh
