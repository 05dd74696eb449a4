// CountCollisions: the paper's collision-counting loop (PAPER.md §3) — the
// one copy every in-memory k-NN and range query runs (RunQuery, and so
// every QueryBatch query, and RangeQuery).

#pragma once
#ifndef C2LSH_CORE_COUNTER_H_
#define C2LSH_CORE_COUNTER_H_

#include <cstddef>
#include <cstdint>

#include "src/util/query_context.h"
#include "src/vector/types.h"

namespace c2lsh {

/// Counts one collision for each of ids[0, num_ids), in order, into
/// `counts` (one slot per object id, zeroed at the start of the query), and
/// calls `on_frequent(id)` at `++counts[id] == l`. Counts only grow within a
/// query, so that test fires exactly once per id: letting counts run past l
/// needs no second "already verified" array.
///
/// `*increments` is the query's running increment tally. With a context the
/// loop keeps the serial stop cadence: cancellation is polled on every
/// increment, the clock every kCheckIntervalMask + 1 increments, and a stop
/// returns kCancelled / kDeadline at once — the stopping increment is
/// tallied but not counted. Without one there is nothing to poll, so the
/// tally is added once per span and the inner loop is just the count and the
/// `== l` test. Returns kNone when the whole span was counted.
template <typename OnFrequent>
inline Termination CountCollisions(const ObjectId* ids, size_t num_ids, uint32_t* counts,
                                   uint32_t l, const QueryContext* ctx,
                                   uint64_t* increments, OnFrequent&& on_frequent) {
  if (ctx == nullptr) {
    *increments += num_ids;
    // analyze-ok(cancellation-cadence): the query has no QueryContext — there is nothing to poll; the ctx branch below keeps the full serial cadence.
    for (size_t i = 0; i < num_ids; ++i) {
      const ObjectId id = ids[i];
      if (++counts[id] == l) on_frequent(id);
    }
    return Termination::kNone;
  }
  uint64_t tally = *increments;
  Termination stop = Termination::kNone;
  for (size_t i = 0; i < num_ids; ++i) {
    ++tally;
    if (ctx->cancelled()) {
      stop = Termination::kCancelled;
      break;
    }
    if ((tally & QueryContext::kCheckIntervalMask) == 0 && ctx->deadline.Expired()) {
      stop = Termination::kDeadline;
      break;
    }
    const ObjectId id = ids[i];
    if (++counts[id] == l) on_frequent(id);
  }
  *increments = tally;
  return stop;
}

}  // namespace c2lsh

#endif  // C2LSH_CORE_COUNTER_H_
