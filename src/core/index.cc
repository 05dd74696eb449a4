#include "src/core/index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/core/batch.h"
#include "src/core/counter.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/vector/distance.h"

namespace c2lsh {
namespace {

// Registry handles resolved once per process. Serial and batched queries
// flush their local C2lshQueryStats through these at query end (see
// FlushQueryMetrics), so the hot round loop never touches an atomic (see
// docs/ARCHITECTURE.md, "Observability").
struct CoreMetrics {
  obs::Counter* queries;
  obs::Counter* rounds;
  obs::Counter* collision_increments;
  obs::Counter* candidates_verified;
  obs::Counter* buckets_scanned;
  obs::Counter* t1;
  obs::Counter* t2;
  obs::Counter* exhausted;
  obs::Counter* deadline;
  obs::Counter* cancelled;
  obs::Histogram* latency;
  obs::Counter* compaction_runs;
  obs::Histogram* compaction_millis;
  obs::Gauge* overlay_entries;
  obs::Gauge* tombstones;
};

const CoreMetrics& Metrics() {
  static const CoreMetrics m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return CoreMetrics{
        r.GetCounter("c2lsh_queries_total", "In-memory C2LSH queries answered"),
        r.GetCounter("c2lsh_rounds_total",
                     "Virtual-rehashing rounds executed by in-memory queries"),
        r.GetCounter("c2lsh_collision_increments_total",
                     "Collision-counter increments (in-memory queries)"),
        r.GetCounter("c2lsh_candidates_verified_total",
                     "Exact distance verifications (in-memory queries)"),
        r.GetCounter("c2lsh_buckets_scanned_total",
                     "Hash buckets visited (in-memory queries)"),
        r.GetCounter("c2lsh_queries_t1_total",
                     "Queries terminated by T1 (k verified within c*R)"),
        r.GetCounter("c2lsh_queries_t2_total",
                     "Queries terminated by T2 (k + beta*n candidate budget)"),
        r.GetCounter("c2lsh_queries_exhausted_total",
                     "Queries that covered every bucket of every table"),
        r.GetCounter("c2lsh_queries_deadline_total",
                     "Queries stopped by a deadline or page budget (partial results)"),
        r.GetCounter("c2lsh_queries_cancelled_total",
                     "Queries cooperatively cancelled (partial results)"),
        r.GetHistogram("c2lsh_query_millis",
                       "In-memory C2LSH query latency in milliseconds"),
        r.GetCounter("c2lsh_compaction_runs_total",
                     "In-memory index compactions completed"),
        r.GetHistogram("c2lsh_compaction_millis",
                       "In-memory index compaction duration in milliseconds"),
        r.GetGauge("c2lsh_overlay_entries",
                   "Dynamic inserts awaiting compaction, summed over tables"),
        r.GetGauge("c2lsh_tombstones",
                   "Objects deleted but not yet compacted away"),
    };
  }();
  return m;
}

// Scans one delta range of one table for a query: charges the range's entry
// pages, bulk-copies its live ids below the query's object count `n` into
// the scratch buffer (buckets_scanned counts every live entry, including
// ids >= n), and counts them with the shared kernel. Returns the kernel's
// stop: kNone, or kDeadline / kCancelled from `ctx`.
template <typename OnFrequent>
Termination ScanRange(const BucketTable::Snapshot& table, const BucketRange& range,
                      size_t n, uint32_t l, const PageModel& page_model,
                      const QueryContext* ctx, C2lshQueryScratch* scratch,
                      C2lshQueryStats* st, OnFrequent&& on_frequent) {
  if (range.empty()) return Termination::kNone;
  const size_t range_entries = table.EntriesInRange(range.lo, range.hi);
  if (range_entries > 0) {
    st->index_pages += page_model.PagesForEntries(range_entries, sizeof(ObjectId));
  }
  scratch->ids.clear();
  st->buckets_scanned += table.AppendRangeTo(range.lo, range.hi, n, &scratch->ids);
  return CountCollisions(scratch->ids.data(), scratch->ids.size(), scratch->counts.data(),
                         l, ctx, &st->collision_increments, on_frequent);
}

}  // namespace

void FlushQueryMetrics(const C2lshQueryStats& st, double millis, uint64_t exemplar_id) {
  const CoreMetrics& m = Metrics();
  m.queries->Increment();
  m.rounds->Increment(st.rounds);
  m.collision_increments->Increment(st.collision_increments);
  m.candidates_verified->Increment(st.candidates_verified);
  m.buckets_scanned->Increment(st.buckets_scanned);
  switch (st.termination) {
    case Termination::kT1:
      m.t1->Increment();
      break;
    case Termination::kT2:
      m.t2->Increment();
      break;
    case Termination::kExhausted:
      m.exhausted->Increment();
      break;
    case Termination::kDeadline:
      m.deadline->Increment();
      break;
    case Termination::kCancelled:
      m.cancelled->Increment();
      break;
    case Termination::kNone:
      break;
  }
  m.latency->Observe(millis, exemplar_id);
}

C2lshIndex::C2lshIndex(C2lshOptions options, C2lshDerived derived, PStableFamily family,
                       std::vector<BucketTable> tables, size_t num_objects, size_t dim,
                       long long radius_cap)
    : options_(options),
      derived_(derived),
      family_(std::move(family)),
      tables_(std::move(tables)),
      num_objects_(num_objects),
      dim_(dim),
      radius_cap_(radius_cap),
      page_model_(options.page_bytes) {}

// Moves exist for factory returns only (the atomic and the writer Mutex are
// not movable themselves); the contract that no other thread touches either
// object during a move makes the relaxed load/fresh-Mutex exchange safe.
C2lshIndex::C2lshIndex(C2lshIndex&& other) noexcept
    : options_(std::move(other.options_)),
      derived_(other.derived_),
      family_(std::move(other.family_)),
      tables_(std::move(other.tables_)),
      num_objects_(other.num_objects_.load(std::memory_order_relaxed)),
      dim_(other.dim_),
      radius_cap_(other.radius_cap_),
      page_model_(other.page_model_),
      scratch_(std::move(other.scratch_)) {}

C2lshIndex& C2lshIndex::operator=(C2lshIndex&& other) noexcept {
  if (this != &other) {
    options_ = std::move(other.options_);
    derived_ = other.derived_;
    family_ = std::move(other.family_);
    tables_ = std::move(other.tables_);
    num_objects_.store(other.num_objects_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    dim_ = other.dim_;
    radius_cap_ = other.radius_cap_;
    page_model_ = other.page_model_;
    scratch_ = std::move(other.scratch_);
  }
  return *this;
}

Result<C2lshIndex> C2lshIndex::Build(const Dataset& data, const C2lshOptions& options,
                                     size_t num_threads) {
  C2LSH_ASSIGN_OR_RETURN(C2lshDerived derived, ComputeDerivedParams(options, data.size()));
  // Offsets span the whole radius schedule (see C2lshOptions::
  // max_radius_exponent): b* ~ U[0, w * c^{t*}).
  const long long radius_cap = RadiusCap(options.c, options.max_radius_exponent);
  C2LSH_ASSIGN_OR_RETURN(
      PStableFamily family,
      PStableFamily::Sample(derived.m, data.dim(), options.w, options.seed,
                            static_cast<double>(radius_cap)));

  // Parallel build on the shared worker pool (no per-call thread creation).
  // `tables` is shared across pool lanes without a mutex because the sharing
  // is disjoint by construction: lane t writes only slots i with
  // i % lanes == t, the vector is never resized while the ParallelFor runs,
  // and ParallelFor's completion barrier publishes every slot to this thread
  // (the src/util/thread_pool.h determinism contract). `family` and `data`
  // are read-only. The race lane (race_stress_test.cc,
  // ParallelBuildMatchesSerialReference) re-checks this partitioning under
  // TSan. `num_threads` bounds concurrency by bounding the lane count; the
  // pool itself is clamped to hardware concurrency.
  std::vector<BucketTable> tables(derived.m);
  auto build_table = [&](size_t i) {
    const std::vector<BucketId> buckets = family.BucketColumn(data.vectors(), i);
    std::vector<std::pair<BucketId, ObjectId>> pairs;
    pairs.reserve(buckets.size());
    for (size_t r = 0; r < buckets.size(); ++r) {
      pairs.emplace_back(buckets[r], static_cast<ObjectId>(r));
    }
    tables[i] = BucketTable::Build(std::move(pairs));
  };
  const size_t lanes =
      std::min(num_threads == 0 ? derived.m : num_threads, derived.m);
  if (lanes <= 1) {
    for (size_t i = 0; i < derived.m; ++i) build_table(i);
  } else {
    ThreadPool::Shared().ParallelFor(lanes, [&](size_t t) {
      for (size_t i = t; i < derived.m; i += lanes) build_table(i);
    });
  }

  return C2lshIndex(options, derived, std::move(family), std::move(tables), data.size(),
                    data.dim(), radius_cap);
}

Result<C2lshIndex> C2lshIndex::FromParts(const C2lshOptions& options,
                                         const C2lshDerived& derived,
                                         PStableFamily family,
                                         std::vector<BucketTable> tables,
                                         size_t num_objects, size_t dim,
                                         long long radius_cap) {
  if (tables.size() != family.size() || tables.size() != derived.m) {
    return Status::InvalidArgument("C2lshIndex::FromParts: table/function count mismatch");
  }
  if (dim != family.dim()) {
    return Status::InvalidArgument("C2lshIndex::FromParts: dim mismatch");
  }
  if (radius_cap < 1) {
    return Status::InvalidArgument("C2lshIndex::FromParts: radius_cap must be >= 1");
  }
  return C2lshIndex(options, derived, std::move(family), std::move(tables), num_objects,
                    dim, radius_cap);
}

Result<NeighborList> C2lshIndex::Query(const Dataset& data, const float* query, size_t k,
                                       C2lshQueryStats* stats, obs::QueryTrace* trace,
                                       const QueryContext* ctx) const {
  return RunQuery(data, query, k, stats, &scratch_, /*filter=*/nullptr, trace, ctx);
}

Result<NeighborList> C2lshIndex::FilteredQuery(
    const Dataset& data, const float* query, size_t k,
    const std::function<bool(ObjectId)>& filter, C2lshQueryStats* stats) const {
  if (!filter) {
    return Status::InvalidArgument("FilteredQuery: filter must be callable");
  }
  return RunQuery(data, query, k, stats, &scratch_, &filter);
}

Result<NeighborList> C2lshIndex::RunQuery(const Dataset& data, const float* query, size_t k,
                                          C2lshQueryStats* stats,
                                          C2lshQueryScratch* scratch,
                                          const std::function<bool(ObjectId)>* filter,
                                          obs::QueryTrace* trace,
                                          const QueryContext* ctx) const {
  if (k == 0) return Status::InvalidArgument("C2LSH query: k must be positive");
  if (data.dim() != dim_) {
    return Status::InvalidArgument("C2LSH query: dataset dim mismatch");
  }
  // The query's frozen view of the index: the object count is read once and
  // every table is pinned once, up front. A concurrent Insert publishes its
  // table versions *before* raising the count, so an id admitted by `id < n`
  // here always has a count slot — entries from newer table versions with
  // id >= n are simply skipped until a later query picks up the larger n.
  const size_t n = num_objects();
  if (data.size() < n) {
    return Status::InvalidArgument(
        "C2LSH query: dataset has fewer objects than the index — pass the dataset the "
        "index was built on (plus any inserted rows)");
  }
  std::vector<BucketTable::Snapshot> snaps;
  snaps.reserve(tables_.size());
  for (const BucketTable& table : tables_) snaps.push_back(table.snapshot());

  C2lshQueryStats local_stats;
  C2lshQueryStats* st = (stats != nullptr) ? stats : &local_stats;
  *st = C2lshQueryStats();
  const bool tracing = trace != nullptr;
  if (tracing) trace->Clear();
  // Span sampling is independent of the caller's QueryTrace: the tracer
  // decides per its mode, and the id attributes this query's spans, its
  // latency exemplar, and any anomaly dump to one timeline.
  const bool sampled = obs::Tracer::Global().SampleQuery(ctx);
  const uint64_t span_query_id =
      ctx != nullptr && ctx->trace_id != 0
          ? ctx->trace_id
          : (sampled ? obs::Tracer::Global().NextQueryId() : 0);
  obs::ScopedSpan query_span(obs::SpanSubsystem::kQuery, "c2lsh_query",
                             span_query_id, sampled);
  Timer query_timer;

  scratch->counts.assign(n, 0);

  const size_t m = tables_.size();
  const uint32_t l = static_cast<uint32_t>(derived_.l);
  const double c = derived_.model.c;
  const long long c_int = static_cast<long long>(std::llround(c));
  // T2 threshold: k + beta*n candidates, capped at the live object count so
  // the loop always terminates (full coverage verifies everyone).
  const size_t t2_threshold = std::min<size_t>(
      n, k + static_cast<size_t>(std::ceil(derived_.beta * static_cast<double>(n))));

  std::vector<BucketId>& qbuckets = scratch->qbuckets;
  family_.BucketAll(query, &qbuckets);

  std::vector<BucketRange> prev(m);  // default-constructed = empty
  NeighborList found;
  found.reserve(t2_threshold + m);

  const uint64_t vector_pages = page_model_.PagesPerVector(dim_);

  // I/O model: the per-table bucket directories are memory-resident (they
  // are tiny — the paper keeps them cached the same way), so a round charges
  // only the entry pages it actually reads; the one-time descent into each
  // table is charged below, once per query.
  st->index_pages += tables_.size();

  // Cooperative-stop state: kNone while running, kDeadline/kCancelled once
  // the context expires. Checked inside the scan (the counting kernel's
  // cadence: cancellation every increment, the clock every
  // kCheckIntervalMask+1 increments) and at every round boundary.
  Termination early_stop = Termination::kNone;

  // A candidate: an id whose count just reached l. A filter-rejected id is
  // counted but never verified — no distance computed.
  auto on_frequent = [&](ObjectId id) {
    if (filter != nullptr && !(*filter)(id)) return;
    const double dist = L2(query, data.object(id), dim_);
    found.push_back(Neighbor{id, static_cast<float>(dist)});
    ++st->candidates_verified;
    st->data_pages += vector_pages;
  };
  auto scan_range = [&](const BucketTable::Snapshot& table, const BucketRange& range) {
    if (early_stop != Termination::kNone) return;
    early_stop = ScanRange(table, range, n, l, page_model_, ctx, scratch, st, on_frequent);
  };

  long long R = 1;
  Timer round_timer;
  while (true) {
    // Round boundary: the full context check (deadline, cancellation, page
    // budget). A pre-expired context runs zero rounds and returns empty.
    if (ctx != nullptr && early_stop == Termination::kNone) {
      early_stop = ctx->Check(st->total_pages());
    }
    if (early_stop != Termination::kNone) {
      st->termination = early_stop;
      break;
    }
    ++st->rounds;
    st->final_radius = R;
    obs::ScopedSpan round_span(obs::SpanSubsystem::kRound, "round",
                               span_query_id, sampled);
    // Trace spans are deltas of the running stats, so tracing adds no work
    // inside scan_range.
    C2lshQueryStats before;
    if (tracing) {
      round_timer.Reset();
      before = *st;
    }

    bool all_covered = true;
    for (size_t i = 0; i < m; ++i) {
      if (early_stop != Termination::kNone) break;
      const BucketRange next = QueryIntervalAtRadiusCapped(qbuckets[i], R, radius_cap_);
      const RangeDelta delta = ComputeRangeDelta(prev[i], next);
      scan_range(snaps[i], delta.left);
      scan_range(snaps[i], delta.right);
      prev[i] = next;
      // Coverage test: once the interval spans every bucket the table holds,
      // further rounds cannot add collisions from this table.
      if (snaps[i].num_buckets() > 0 &&
          snaps[i].EntriesInRange(next.lo, next.hi) < snaps[i].num_entries()) {
        all_covered = false;
      }
    }

    // T1: enough verified candidates within distance c*R. Evaluated even
    // after an early stop — if the partial scan already proved the answer,
    // the query gets the full-quality termination, not kDeadline.
    const double cr = c * static_cast<double>(R);
    size_t within = 0;
    for (const Neighbor& nb : found) {
      if (nb.dist <= cr) ++within;
      if (within >= k) break;
    }
    if (within >= k) {
      st->termination = Termination::kT1;
    } else if (found.size() >= t2_threshold) {
      // T2: the false-positive budget is exhausted.
      st->termination = Termination::kT2;
    } else if (early_stop != Termination::kNone) {
      // The context expired mid-round: partial results. Takes precedence
      // over kExhausted because an interrupted round never evaluated the
      // remaining tables' coverage.
      st->termination = early_stop;
    } else if (all_covered) {
      // Every object has been counted in every table.
      st->termination = Termination::kExhausted;
    }
    if (tracing) {
      obs::QueryRoundSpan span;
      span.radius = R;
      span.buckets_scanned = st->buckets_scanned - before.buckets_scanned;
      span.collision_increments =
          st->collision_increments - before.collision_increments;
      span.candidates_verified =
          st->candidates_verified - before.candidates_verified;
      span.index_pages = st->index_pages - before.index_pages;
      span.t1_fired = st->termination == Termination::kT1;
      span.t2_fired = st->termination == Termination::kT2;
      span.millis = round_timer.ElapsedMillis();
      trace->rounds.push_back(span);
    }
    if (st->termination != Termination::kNone) break;
    R *= c_int;
  }

  // Only the k nearest survive, so a partial sort suffices when more
  // candidates were verified than requested.
  if (found.size() > k) {
    std::partial_sort(found.begin(), found.begin() + static_cast<std::ptrdiff_t>(k),
                      found.end(), NeighborLess());
    found.resize(k);
  } else {
    std::sort(found.begin(), found.end(), NeighborLess());
  }
  const double total_millis = query_timer.ElapsedMillis();
  if (tracing) {
    trace->termination = st->termination;
    trace->total_millis = total_millis;
  }
  FlushQueryMetrics(*st, total_millis, span_query_id);
  // End the query span before the anomaly hook: a flight dump snapshots the
  // rings, and an open span has not reached its ring yet.
  query_span.End();
  if (obs::FlightRecorder::Global().enabled()) {
    if (tracing) {
      obs::MaybeRecordQueryAnomaly("c2lsh_query", span_query_id, *trace);
    } else {
      obs::QueryTrace anomaly_trace;
      anomaly_trace.termination = st->termination;
      anomaly_trace.total_millis = total_millis;
      obs::MaybeRecordQueryAnomaly("c2lsh_query", span_query_id, anomaly_trace);
    }
  }
  return found;
}

Result<NeighborList> C2lshIndex::RangeQuery(const Dataset& data, const float* query,
                                            double radius, C2lshQueryStats* stats,
                                            const QueryContext* ctx) const {
  if (!(radius > 0.0)) {
    return Status::InvalidArgument("RangeQuery: radius must be positive");
  }
  if (data.dim() != dim_) {
    return Status::InvalidArgument("RangeQuery: dataset dim mismatch");
  }
  // Frozen view, same scheme as RunQuery: count first, then pin each table.
  const size_t n = num_objects();
  if (data.size() < n) {
    return Status::InvalidArgument("RangeQuery: dataset smaller than the index");
  }
  std::vector<BucketTable::Snapshot> snaps;
  snaps.reserve(tables_.size());
  for (const BucketTable& table : tables_) snaps.push_back(table.snapshot());

  C2lshQueryStats local_stats;
  C2lshQueryStats* st = (stats != nullptr) ? stats : &local_stats;
  *st = C2lshQueryStats();

  C2lshQueryScratch* scratch = &scratch_;
  scratch->counts.assign(n, 0);

  const size_t m = tables_.size();
  const uint32_t l = static_cast<uint32_t>(derived_.l);
  const long long c_int = static_cast<long long>(std::llround(derived_.model.c));

  std::vector<BucketId>& qbuckets = scratch->qbuckets;
  family_.BucketAll(query, &qbuckets);
  std::vector<BucketRange> prev(m);
  NeighborList found;
  // Verified in-range candidates are bounded by the same k-free budget shape
  // as RunQuery's T2 threshold: the beta*n false-positive allowance plus the
  // per-table slack.
  found.reserve(std::min<size_t>(
      n, static_cast<size_t>(std::ceil(derived_.beta * static_cast<double>(n))) + m));
  const uint64_t vector_pages = page_model_.PagesPerVector(dim_);
  st->index_pages += tables_.size();

  // Same cooperative-stop shape as RunQuery: the kernel polls inside the
  // scan, the page budget is checked at the round boundary.
  Termination early_stop = Termination::kNone;

  auto on_frequent = [&](ObjectId id) {
    const double dist = L2(query, data.object(id), dim_);
    ++st->candidates_verified;
    st->data_pages += vector_pages;
    if (dist <= radius) {
      found.push_back(Neighbor{id, static_cast<float>(dist)});
    }
  };
  auto scan_range = [&](const BucketTable::Snapshot& table, const BucketRange& range) {
    if (early_stop != Termination::kNone) return;
    early_stop = ScanRange(table, range, n, l, page_model_, ctx, scratch, st, on_frequent);
  };

  // Run every round up to the first scheduled R >= radius: at that level an
  // in-range object's collision probability is >= p1 per table, so P1's
  // recall bound applies.
  long long R = 1;
  while (true) {
    ++st->rounds;
    st->final_radius = R;
    for (size_t i = 0; i < m; ++i) {
      const BucketRange next = QueryIntervalAtRadiusCapped(qbuckets[i], R, radius_cap_);
      const RangeDelta delta = ComputeRangeDelta(prev[i], next);
      scan_range(snaps[i], delta.left);
      scan_range(snaps[i], delta.right);
      prev[i] = next;
    }
    // Round boundary: also the page-budget checkpoint.
    if (ctx != nullptr && early_stop == Termination::kNone) {
      early_stop = ctx->Check(st->total_pages());
    }
    if (early_stop != Termination::kNone) {
      st->termination = early_stop;
      break;
    }
    if (static_cast<double>(R) >= radius || R > radius_cap_) break;
    R *= c_int;
  }

  std::sort(found.begin(), found.end(), NeighborLess());
  return found;
}

Result<Neighbor> C2lshIndex::DecisionQuery(const Dataset& data, const float* query,
                                           long long R, C2lshQueryStats* stats,
                                           const QueryContext* ctx) const {
  if (R <= 0) return Status::InvalidArgument("DecisionQuery: R must be positive");
  if (data.dim() != dim_) {
    return Status::InvalidArgument("DecisionQuery: dataset dim mismatch");
  }
  // Frozen view, same scheme as RunQuery: count first, then pin each table.
  const size_t n = num_objects();
  if (data.size() < n) {
    return Status::InvalidArgument("DecisionQuery: dataset smaller than the index");
  }
  C2lshQueryStats local_stats;
  C2lshQueryStats* st = (stats != nullptr) ? stats : &local_stats;
  *st = C2lshQueryStats();
  st->rounds = 1;
  st->final_radius = R;

  std::vector<BucketTable::Snapshot> snaps;
  snaps.reserve(tables_.size());
  for (const BucketTable& table : tables_) snaps.push_back(table.snapshot());

  std::vector<uint32_t>& counts = scratch_.counts;
  counts.assign(n, 0);

  std::vector<BucketId>& qbuckets = scratch_.qbuckets;
  family_.BucketAll(query, &qbuckets);

  const uint32_t l = static_cast<uint32_t>(derived_.l);
  const double cr = derived_.model.c * static_cast<double>(R);
  const size_t fp_budget =
      1 + static_cast<size_t>(std::ceil(derived_.beta * static_cast<double>(n)));
  const uint64_t vector_pages = page_model_.PagesPerVector(dim_);

  Neighbor best{0, std::numeric_limits<float>::infinity()};
  bool have_hit = false;
  size_t verified = 0;
  Termination early_stop = Termination::kNone;

  for (size_t i = 0; i < tables_.size() && !have_hit && verified < fp_budget &&
                     early_stop == Termination::kNone;
       ++i) {
    const BucketRange range = QueryIntervalAtRadiusCapped(qbuckets[i], R, radius_cap_);
    ++st->index_pages;  // per-table descent
    const size_t range_entries = snaps[i].EntriesInRange(range.lo, range.hi);
    if (range_entries > 0) {
      st->index_pages += page_model_.PagesForEntries(range_entries, sizeof(ObjectId));
    }
    snaps[i].ForEachInRange(range.lo, range.hi, [&](ObjectId id) {
      if (static_cast<size_t>(id) >= n) return;  // inserted after this query started
      ++st->collision_increments;
      if (ctx != nullptr && early_stop == Termination::kNone) {
        if (ctx->cancelled()) {
          early_stop = Termination::kCancelled;
        } else if ((st->collision_increments & QueryContext::kCheckIntervalMask) == 0 &&
                   ctx->deadline.Expired()) {
          early_stop = Termination::kDeadline;
        }
      }
      if (have_hit || verified >= fp_budget || early_stop != Termination::kNone) return;
      if (++counts[id] == l) {
        const double dist = L2(query, data.object(id), dim_);
        ++verified;
        ++st->candidates_verified;
        st->data_pages += vector_pages;
        if (dist <= cr) {
          best = Neighbor{id, static_cast<float>(dist)};
          have_hit = true;
        }
      }
    });
  }
  st->buckets_scanned = st->collision_increments;
  if (early_stop != Termination::kNone) st->termination = early_stop;
  if (have_hit) return best;
  if (IsEarlyStop(early_stop)) {
    // Interrupted before a hit surfaced: NOT a verified "no" — the stats
    // carry kDeadline/kCancelled so callers can tell the two apart.
    return Status::NotFound("decision query stopped early (deadline/cancel) at radius " +
                            std::to_string(R));
  }
  return Status::NotFound("no object within distance c*R surfaced at radius " +
                          std::to_string(R));
}

std::vector<uint32_t> C2lshIndex::CollisionCountsAtRadius(const float* query,
                                                          long long R) const {
  std::vector<uint32_t> counts(num_objects(), 0);
  std::vector<BucketId> qbuckets;
  family_.BucketAll(query, &qbuckets);
  for (size_t i = 0; i < tables_.size(); ++i) {
    const BucketRange range = QueryIntervalAtRadiusCapped(qbuckets[i], R, radius_cap_);
    tables_[i].ForEachInRange(range.lo, range.hi, [&](ObjectId id) {
      if (id < counts.size()) ++counts[id];
    });
  }
  return counts;
}

Status C2lshIndex::Insert(ObjectId id, const float* v) {
  std::vector<BucketId> buckets;
  family_.BucketAll(v, &buckets);
  MutexLock lock(&writer_mu_);
  for (size_t i = 0; i < tables_.size(); ++i) {
    tables_[i].Insert(buckets[i], id);
  }
  // Publication order matters: the release-store of the count happens after
  // every table published its new version, so a query that admits `id` by
  // `id < num_objects()` is guaranteed to find its entries (see num_objects()).
  if (static_cast<size_t>(id) + 1 > num_objects()) {
    num_objects_.store(static_cast<size_t>(id) + 1, std::memory_order_release);
  }
  UpdateMutationGauges();
  return Status::OK();
}

Status C2lshIndex::Delete(ObjectId id) {
  MutexLock lock(&writer_mu_);
  if (static_cast<size_t>(id) >= num_objects()) {
    return Status::NotFound("Delete: object id " + std::to_string(id) +
                            " was never registered with this index");
  }
  for (BucketTable& table : tables_) {
    table.Delete(id);
  }
  UpdateMutationGauges();
  return Status::OK();
}

void C2lshIndex::Compact() {
  obs::ScopedSpan compact_span(obs::SpanSubsystem::kCompaction, "compact");
  MutexLock lock(&writer_mu_);
  Timer timer;
  for (BucketTable& table : tables_) {
    table.Compact();
  }
  // Trailing deletes lower the high-water: every table holds the same id
  // set, so the front table's largest live id is the index's.
  if (!tables_.empty()) {
    const long long max_live = tables_.front().snapshot().MaxLiveId();
    num_objects_.store(static_cast<size_t>(max_live + 1), std::memory_order_release);
  }
  const CoreMetrics& m = Metrics();
  m.compaction_runs->Increment();
  m.compaction_millis->Observe(timer.ElapsedMillis());
  UpdateMutationGauges();
}

void C2lshIndex::UpdateMutationGauges() const {
  size_t overlay = 0;
  for (const BucketTable& table : tables_) overlay += table.OverlayEntries();
  const CoreMetrics& m = Metrics();
  m.overlay_entries->Set(static_cast<double>(overlay));
  // Every table tombstones the same id set; the front table's count is the
  // index-wide number of pending deletes.
  m.tombstones->Set(tables_.empty()
                        ? 0.0
                        : static_cast<double>(tables_.front().NumTombstones()));
}

C2lshIndex::IndexStats C2lshIndex::ComputeStats() const {
  IndexStats s;
  s.num_tables = tables_.size();
  if (tables_.empty()) return s;
  s.min_buckets = std::numeric_limits<size_t>::max();
  double bucket_sum = 0.0;
  double mean_size_sum = 0.0;
  for (size_t i = 0; i < tables_.size(); ++i) {
    // One snapshot per table so each table's figures are internally
    // consistent even while mutators run.
    const BucketTable::Snapshot snap = tables_[i].snapshot();
    if (i == 0) s.entries_per_table = snap.num_entries();
    const size_t buckets = snap.num_buckets();
    bucket_sum += static_cast<double>(buckets);
    s.min_buckets = std::min(s.min_buckets, buckets);
    s.max_buckets = std::max(s.max_buckets, buckets);
    if (buckets > 0) {
      mean_size_sum +=
          static_cast<double>(snap.num_entries()) / static_cast<double>(buckets);
    }
    s.max_bucket_size = std::max(s.max_bucket_size, snap.MaxBucketSize());
    s.overlay_entries += snap.OverlayEntries();
  }
  s.mean_buckets_per_table = bucket_sum / static_cast<double>(tables_.size());
  s.mean_bucket_size = mean_size_sum / static_cast<double>(tables_.size());
  return s;
}

size_t C2lshIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const BucketTable& table : tables_) {
    bytes += table.MemoryBytes();
  }
  // Hash functions, including the packed (aligned, padded) projection
  // matrix behind BucketAll/BucketColumn.
  bytes += family_.MemoryBytes();
  return bytes;
}

}  // namespace c2lsh
