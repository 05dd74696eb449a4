// Batched query execution for C2lshIndex (C2lshIndex::QueryBatch).
//
// The paper's query is one independent loop per query: rounds at radii
// R = 1, c, c^2, ..., each widening every table's interval and counting
// collisions, until T1/T2/exhaustion. QueryBatch therefore parallelizes
// across queries, not inside one:
//
//  * Blocks. The batch runs in blocks of batch_size queries, one block after
//    another. Only a block's lanes are live at a time.
//
//  * Query-parallel lanes. A block runs on min(block, pool width) lanes of
//    the worker pool (src/util/thread_pool.h). Each lane owns one
//    C2lshQueryScratch, exactly as a Searcher does, and takes query indices
//    from the block's atomic cursor, so a lane that drew slow queries does
//    not hold the others up. For each index it takes, the lane runs the
//    serial round loop (C2lshIndex::RunQuery) with that query's context and
//    writes the query's own result and stats slots.
//
// Determinism follows by construction: every query runs the very loop
// Query() runs, on its own scratch, with its own context, and writes only
// its own slots. Results, stats and termination tags are therefore
// bitwise-identical to a serial loop of Query() calls for every
// batch_size / pool width / ISA mode, and one query's deadline or
// cancellation cannot touch a batchmate (tested in batch_engine_test.cc,
// also under TSan). Each batched query emits the same c2lsh_query span,
// metrics flush and flight-recorder anomaly check as a serial one; the
// block adds a batch_block span and the c2lsh_batch_* instruments.

#pragma once
#ifndef C2LSH_CORE_BATCH_H_
#define C2LSH_CORE_BATCH_H_

#include <cstdint>

#include "src/core/index.h"

namespace c2lsh {

/// Flushes one finished in-memory query, serial or batched, into the shared
/// c2lsh_* instruments: the query, round, increment, candidate and bucket
/// counters, the counter its termination tag selects, and the latency
/// histogram (`exemplar_id` 0 = no exemplar). Defined in index.cc.
void FlushQueryMetrics(const C2lshQueryStats& st, double millis, uint64_t exemplar_id);

}  // namespace c2lsh

#endif  // C2LSH_CORE_BATCH_H_
