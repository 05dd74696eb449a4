// Per-query execution controls: deadline, cooperative cancellation, and an
// optional I/O-page budget — the control side of the degraded-query contract.
//
// A QueryContext travels with one query through the whole execution path
// (C2lshIndex, DiskC2lshIndex, QALSH, the retry layer, the admission
// controller). The query loops check it at bounded intervals — every
// virtual-rehashing round, every kCheckIntervalMask+1 collision increments,
// and every entry-page boundary of a disk scan — and stop *cooperatively*:
// an expired deadline or a cancelled token makes the query return its
// best-effort partial results under Termination::kDeadline /
// Termination::kCancelled, never an error. (The same shape as the corrupt-
// page degradation of PR 1: results may be incomplete, never silently wrong,
// and the caller can always tell.)
//
// This header is one of the sanctioned clock seams (with util/timer.h,
// util/retry.h, and src/obs/) — see tools/lint.py's chrono-include rule.
// All deadline math goes through Deadline so the steady_clock reads stay in
// one auditable place.

#pragma once
#ifndef C2LSH_UTIL_QUERY_CONTEXT_H_
#define C2LSH_UTIL_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "src/obs/trace.h"

namespace c2lsh {

/// A thread-safe cancellation flag, shared by reference between the caller
/// (who cancels) and the query (which polls). Cancellation is sticky until
/// Reset(); one token may gate many queries (e.g. all queries of one client
/// connection).
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Safe from any thread; idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// True once Cancel() has been called (and not Reset since).
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// Re-arms the token (between queries — not while one is in flight).
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A point on the steady clock a query must not run past. Default-constructed
/// deadlines are infinite (never expire), so "no deadline" costs no clock
/// reads at check sites that gate on IsInfinite().
class Deadline {
 public:
  /// Infinite — never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `millis` (resp. `micros`) from now; non-positive values yield a
  /// deadline that is already expired.
  static Deadline AfterMillis(double millis) {
    return AfterMicros(static_cast<int64_t>(millis * 1e3));
  }
  static Deadline AfterMicros(int64_t micros) {
    Deadline d;
    d.finite_ = true;
    d.at_ = Clock::now() + std::chrono::microseconds(micros);
    return d;
  }

  bool IsInfinite() const { return !finite_; }

  /// True once the steady clock has passed the deadline.
  bool Expired() const { return finite_ && Clock::now() >= at_; }

  /// Microseconds until expiry: +infinity when infinite, clamped at 0 once
  /// expired. The retry layer compares this against its next backoff.
  double RemainingMicros() const {
    if (!finite_) return std::numeric_limits<double>::infinity();
    const double us =
        std::chrono::duration<double, std::micro>(at_ - Clock::now()).count();
    return us > 0.0 ? us : 0.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool finite_ = false;
  Clock::time_point at_{};
};

/// The per-query control block. Plain value; the token is borrowed (the
/// caller keeps it alive for the duration of the query). A default
/// QueryContext imposes no bounds, so `RunQuery(..., nullptr)` and
/// `RunQuery(..., &QueryContext{})` behave identically.
struct QueryContext {
  /// Wall-clock bound for the whole query, admission wait included.
  Deadline deadline;

  /// Optional cancellation signal; nullptr = not cancellable.
  const CancellationToken* cancel = nullptr;

  /// Optional I/O budget in pages (0 = unlimited): once the query has cost
  /// this many pages (measured pool misses in disk mode, modelled pages in
  /// memory mode), it stops at the next rehash-round boundary with
  /// Termination::kDeadline — a resource deadline, same partial-result
  /// contract as the time deadline. In disk mode the budget counts pool
  /// reads: an entry page the query's scan cursor already holds is reused
  /// for free (see ScanCursor in storage/disk_bucket_table.h).
  uint64_t io_page_budget = 0;

  /// Opts this query into span tracing under TraceMode::kPerQuery (see
  /// src/obs/span.h). Ignored in the other modes: kAlways samples every
  /// query and kEveryNth uses its own counter.
  bool trace = false;

  /// Trace id attributing this query's spans in dumps and exemplars. 0 (the
  /// default) lets the query engine assign one via Tracer::NextQueryId();
  /// callers that correlate across systems may set their own nonzero id.
  uint64_t trace_id = 0;

  /// Query loops poll the cheap atomic every iteration but the clock only
  /// every (kCheckIntervalMask + 1) collision increments.
  static constexpr uint64_t kCheckIntervalMask = 1023;

  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }

  /// The checkpoint predicate: kNone to keep going, kCancelled/kDeadline to
  /// stop with partial results. Cancellation wins over the deadline so an
  /// abandoned query reports kCancelled even after its deadline also passed.
  Termination CheckNow() const {
    if (cancelled()) return Termination::kCancelled;
    if (deadline.Expired()) return Termination::kDeadline;
    return Termination::kNone;
  }

  /// CheckNow() plus the page budget (`pages_used` = pages charged so far).
  Termination Check(uint64_t pages_used) const {
    const Termination t = CheckNow();
    if (t != Termination::kNone) return t;
    if (io_page_budget > 0 && pages_used >= io_page_budget) {
      return Termination::kDeadline;
    }
    return Termination::kNone;
  }
};

/// True for the Termination values that mean "an external control stopped
/// the query with partial results" (vs the algorithmic T1/T2/exhausted).
inline bool IsEarlyStop(Termination t) {
  return t == Termination::kDeadline || t == Termination::kCancelled;
}

}  // namespace c2lsh

#endif  // C2LSH_UTIL_QUERY_CONTEXT_H_
