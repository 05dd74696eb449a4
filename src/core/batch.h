// Batched, shard-parallel query execution for C2lshIndex.
//
// C2LSH's dynamic collision counting makes the rehash round the natural
// synchronization boundary: a query's verified set at the end of a round is
// {id : cumulative collision count >= l}, which does not depend on the order
// the increments arrived in, and the T1/T2 termination tests are evaluated
// only at round end over that set. The batch engine exploits this twice:
//
//  * Shared scans. All co-resident queries advance through the radii
//    R = 1, c, c^2, ... in lockstep. Within a round, queries whose delta
//    interval lands on the same bucket run of the same table are grouped,
//    and each distinct run is scanned ONCE — the single pass feeds every
//    grouped query's collision buffer. Per-query I/O accounting (index
//    pages, buckets scanned) is still charged per query, exactly as a
//    serial Query would charge it.
//
//  * Table sharding. The m tables are partitioned across N shards (shard s
//    owns tables i with i % N == s) and scanned by a reusable worker pool
//    (src/util/thread_pool.h). Phase A: each shard scans its tables and
//    appends (query, id) increments into shard-private per-query buffers —
//    no shared counters, no atomics in the hot path. Phase B: each query
//    (one owner per counter) merges all shards' buffers, increments its
//    counter, and verifies candidates crossing l. T1/T2/exhausted decisions
//    are made on the merged counts at the round barrier.
//
// Determinism contract: because the verified set is increment-order-
// independent, the merged per-round state — counters, verified set, found
// set, stats totals — is identical for every shard count, pool size, and
// scan order, and the final ranking is fixed by the total order
// NeighborLess (distance, then id). QueryBatch results and stats are
// therefore bitwise-identical to a serial loop of Query() calls, for every
// batch_size/num_shards/pool configuration (tested in batch_engine_test.cc,
// including under TSan).
//
// Per-query QueryContext semantics match Query: the full deadline/
// cancellation/page-budget check runs at every round boundary, the
// cancellation token is polled on every collision increment (during the
// Phase B merge), and the clock is read every kCheckIntervalMask+1
// increments. A query that expires goes inactive with its partial results
// and the usual kDeadline/kCancelled termination — its batchmates are
// unaffected. (Mid-flight wall-clock expiry is inherently not reproducible
// against a serial run; deterministic context states — pre-cancelled
// tokens, pre-expired deadlines, page budgets — terminate identically, as
// the budget is checked only at round boundaries on order-independent page
// totals.)

#pragma once
#ifndef C2LSH_CORE_BATCH_H_
#define C2LSH_CORE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/index.h"
#include "src/util/query_context.h"
#include "src/util/thread_pool.h"
#include "src/vector/dataset.h"
#include "src/vector/types.h"

namespace c2lsh {

/// Flushes one finished in-memory query, serial or batched, into the shared
/// c2lsh_* instruments: the query, round, increment, candidate and bucket
/// counters, the counter its termination tag selects, and the latency
/// histogram (`exemplar_id` 0 = no exemplar). Defined in index.cc.
void FlushQueryMetrics(const C2lshQueryStats& st, double millis, uint64_t exemplar_id);

namespace batch {

/// Runs one co-resident block of queries to completion through the shared-
/// scan, sharded round loop described above. `queries` holds num_queries
/// row-major vectors of index.dim() floats, `qstride` floats apart; `ctxs`
/// is either nullptr (no contexts) or an array of num_queries nullable
/// context pointers. `num_shards` must be in [1, index.num_tables()].
/// Writes results[i] and stats[i] for every block query i. Called by
/// C2lshIndex::QueryBatch; exposed for white-box tests.
void RunBatchBlock(const C2lshIndex& index, const Dataset& data,
                   const float* queries, size_t num_queries, size_t qstride,
                   size_t k, const QueryContext* const* ctxs,
                   size_t num_shards, ThreadPool* pool,
                   NeighborList* results, C2lshQueryStats* stats);

}  // namespace batch
}  // namespace c2lsh

#endif  // C2LSH_CORE_BATCH_H_
