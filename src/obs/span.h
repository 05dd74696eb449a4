// Cross-layer span tracing: per-thread lock-free ring buffers of fixed-size
// trace events, a process-wide Tracer that owns buffer registration and
// sampling, and an exporter to Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) with an in-tree format validator mirroring
// ValidatePrometheusText (src/obs/export.h).
//
// Design:
//   * The hot-path cost contract: a ScopedSpan is a single relaxed atomic
//     load + branch when tracing is off, and two timestamp-counter reads
//     plus one ring-slot publication (a handful of release stores to
//     thread-local memory) when it is on. No locks, no allocation, no
//     syscalls on either path.
//   * Every thread that emits gets its own TraceRing (registered with the
//     Tracer on first emission, kept for the life of the process so late
//     snapshots still see a finished thread's tail). The owning thread is
//     the only writer; snapshots from any thread read the slots through a
//     per-slot generation word, so a wrapping writer *drops* the oldest
//     events instead of tearing them — see TraceRing.
//   * Timestamps are raw ticks (rdtsc on x86, steady-clock nanoseconds
//     elsewhere) converted to microseconds only at export time, against a
//     process-lifetime calibration anchor. Raw tick reads are confined to
//     src/obs/ by lint's tsc-read rule — everything else times with
//     util::Timer.
//   * Sampling: kOff / kAlways / kPerQuery (the caller opts a query in via
//     QueryContext::trace) / kEveryNth (a process-wide query counter).
//     Subsystem spans (BufferPool, WAL, retry, ...) emit whenever tracing
//     is armed; query-level spans additionally gate on SampleQuery so
//     per-query modes keep the timeline readable.
//
// The flight recorder (src/obs/flight_recorder.h) builds on these rings:
// they always hold the most recent events, so an anomaly can snapshot a
// timeline of the recent past without any always-on serialization cost.

#pragma once
#ifndef C2LSH_OBS_SPAN_H_
#define C2LSH_OBS_SPAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/status.h"

namespace c2lsh {

struct QueryContext;  // src/util/query_context.h (full type only in span.cc)

namespace obs {

/// Which layer a trace event came from. One entry per instrumented seam so
/// a dump can be filtered (and the acceptance check "spans from >= 4
/// subsystems" is meaningful). Values are stable across a process run only.
enum class SpanSubsystem : uint8_t {
  kQuery = 0,       ///< whole-query spans (C2lshIndex / DiskC2lshIndex)
  kRound = 1,       ///< one virtual-rehashing round (radius step)
  kBatch = 2,       ///< QueryBatch execution blocks
  kBufferPool = 3,  ///< page-cache hit/miss/writeback
  kPageFile = 4,    ///< page read/write/sync I/O
  kWal = 5,         ///< write-ahead log append/replay/sync
  kThreadPool = 6,  ///< ParallelFor regions and helper-task dispatch
  kAdmission = 7,   ///< admission-controller queue wait and sheds
  kRetry = 8,       ///< transient-I/O retry attempts and backoffs
  kCompaction = 9,  ///< disk-index compaction
  kOther = 10,      ///< tools/tests
  kServe = 11,      ///< serving front end: frames, dispatch, drain
};
inline constexpr size_t kNumSpanSubsystems = 12;

/// Stable lower-case name ("query", "round", "batch", "buffer_pool", ...).
std::string_view SpanSubsystemName(SpanSubsystem s);

enum class TraceEventKind : uint8_t {
  kSpan = 0,     ///< a begin/end pair, exported as one Chrome "X" event
  kInstant = 1,  ///< a point event, exported as "i"
  kCounter = 2,  ///< a sampled value, exported as "C"
};

/// The decoded form of one ring slot (the in-ring encoding is 8 atomic
/// words; see span.cc). `name` points at a string literal — emitters must
/// pass static strings, never heap-backed ones.
struct TraceEvent {
  uint64_t seq = 0;          ///< per-ring emission index (monotone)
  uint64_t start_ticks = 0;  ///< TraceClock ticks at begin
  uint64_t dur_ticks = 0;    ///< span duration in ticks; 0 for instants
  const char* name = "";     ///< static string literal
  TraceEventKind kind = TraceEventKind::kInstant;
  SpanSubsystem subsystem = SpanSubsystem::kOther;
  uint32_t tid = 0;          ///< Tracer registration id of the emitting thread
  uint64_t query_id = 0;     ///< trace id of the owning query; 0 = unattributed
  double value = 0.0;        ///< counter sample / instant argument
};

/// The raw tick source plus its export-time conversion to microseconds.
/// Ticks are monotone per thread; on x86 they come from the invariant TSC
/// (constant rate, synchronized across cores on every platform this library
/// targets), elsewhere from the steady clock. Conversion calibrates the
/// tick rate against the steady clock between the first NowTicks() call and
/// the conversion call, so no startup spin-wait is needed.
class TraceClock {
 public:
  static uint64_t NowTicks();

  /// Microseconds-per-tick scale and the anchor tick/us pair, measured at
  /// call time. All events of one export should be converted with one
  /// Scale so their relative order is exact.
  struct Scale {
    uint64_t anchor_ticks = 0;
    double anchor_micros = 0.0;  ///< anchor_ticks expressed on the us axis
    double micros_per_tick = 1e-3;
  };
  static Scale Calibrate();

  static double ToMicros(uint64_t ticks, const Scale& s) {
    return s.anchor_micros +
           (static_cast<double>(ticks) - static_cast<double>(s.anchor_ticks)) *
               s.micros_per_tick;
  }
};

/// A fixed-capacity single-writer ring of trace events. The owning thread
/// is the only caller of Emit; Snapshot may run concurrently from any
/// thread. Each slot carries a generation word written before (invalidate)
/// and after (publish) the payload, all through release stores, so a
/// concurrent reader either gets a fully-published event or skips the slot
/// — a wrap drops the oldest events, it never tears them.
class TraceRing {
 public:
  static constexpr size_t kCapacity = 4096;  // events; power of two
  static constexpr size_t kSlotWords = 8;

  TraceRing() = default;
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Publishes one event. Owner thread only.
  void Emit(TraceEventKind kind, SpanSubsystem subsystem, const char* name,
            uint64_t start_ticks, uint64_t dur_ticks, uint64_t query_id,
            double value);

  /// Appends every still-valid event (oldest first) to `out`. Safe
  /// concurrently with Emit; events overwritten mid-read are skipped.
  void Snapshot(std::vector<TraceEvent>* out) const;

  /// Total events ever emitted (monotone; emitted - kept = dropped).
  uint64_t emitted() const { return head_.load(std::memory_order_acquire); }

  /// Events overwritten by ring wrap so far.
  uint64_t dropped() const {
    const uint64_t h = emitted();
    return h > kCapacity ? h - kCapacity : 0;
  }

  uint32_t tid() const { return tid_; }

 private:
  friend class Tracer;

  struct Slot {
    std::atomic<uint64_t> w[kSlotWords];
  };

  std::atomic<uint64_t> head_{0};  ///< next emission index (writer-owned)
  uint32_t tid_ = 0;               ///< set once at registration
  Slot slots_[kCapacity] = {};
};

enum class TraceMode : uint8_t {
  kOff = 0,      ///< the disabled branch — the only cost anywhere
  kAlways = 1,   ///< every query sampled
  kPerQuery = 2, ///< only queries whose QueryContext sets `trace`
  kEveryNth = 3, ///< every Nth query (process-wide counter)
};

namespace span_internal {
/// The one-branch gate every emission site checks first. Inline so the
/// disabled path compiles to a relaxed load + jump with no function call.
inline std::atomic<bool> g_tracing_enabled{false};
}  // namespace span_internal

/// Process-wide tracing control: ring registration, sampling policy, and
/// whole-process snapshots/export. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& Global();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True when any emission may happen (mode != kOff). The fast path for
  /// every instrumentation site.
  static bool enabled() {
    return span_internal::g_tracing_enabled.load(std::memory_order_relaxed);
  }

  /// Sets the sampling mode. `every_nth` only matters for kEveryNth
  /// (clamped to >= 1). Enabling also installs the thread-pool dispatch
  /// hooks; disabling stops emission but keeps already-recorded events.
  void SetMode(TraceMode mode, uint64_t every_nth = 64);
  TraceMode mode() const { return mode_.load(std::memory_order_relaxed); }

  /// The calling thread's ring, registered on first use (never freed — a
  /// finished thread's events stay snapshot-able).
  TraceRing* ThreadRing();

  /// Whether this query's query-level spans should be emitted under the
  /// current mode. `ctx` may be null (treated as an untagged query).
  bool SampleQuery(const QueryContext* ctx);

  /// A fresh nonzero trace id for a sampled query.
  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Every still-valid event from every registered ring, oldest first
  /// (sorted by start tick). Events emitted before the last Clear() are
  /// filtered out.
  std::vector<TraceEvent> SnapshotAll() const;

  /// Sum of ring-wrap drops across all registered rings.
  uint64_t DroppedTotal() const;

  /// Logically forgets everything emitted so far (tests): snapshots only
  /// return events that begin after this call. Rings stay registered.
  void Clear();

 private:
  Tracer() = default;

  mutable Mutex mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_ GUARDED_BY(mu_);
  std::atomic<TraceMode> mode_{TraceMode::kOff};
  std::atomic<uint64_t> every_nth_{64};
  std::atomic<uint64_t> query_counter_{0};
  std::atomic<uint64_t> next_query_id_{0};
  std::atomic<uint64_t> clear_ticks_{0};
};

/// RAII span: records the begin tick at construction and publishes one
/// complete-span event at destruction (or End()). When tracing is off the
/// constructor is a single branch and the destructor is another.
///
/// `enabled` lets query-level call sites additionally gate on SampleQuery
/// without losing the RAII shape:
///   ScopedSpan span(SpanSubsystem::kQuery, "c2lsh_query", qid, sampled);
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSubsystem subsystem, const char* name,
                      uint64_t query_id = 0, bool enabled = true) {
    if (!enabled || !Tracer::enabled()) return;
    subsystem_ = subsystem;
    name_ = name;
    query_id_ = query_id;
    start_ = TraceClock::NowTicks();
    armed_ = true;
  }
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early (idempotent; the destructor becomes a no-op).
  void End();

  bool armed() const { return armed_; }

 private:
  bool armed_ = false;
  SpanSubsystem subsystem_ = SpanSubsystem::kOther;
  const char* name_ = "";
  uint64_t query_id_ = 0;
  uint64_t start_ = 0;
};

/// Point event ("i" in the export). One branch when tracing is off.
void TraceInstant(SpanSubsystem subsystem, const char* name,
                  uint64_t query_id = 0, double value = 0.0);

/// Counter sample ("C" in the export). One branch when tracing is off.
void TraceCounter(SpanSubsystem subsystem, const char* name, double value);

/// Renders events as Chrome trace-event JSON (the "JSON object format":
/// a top-level object with a `traceEvents` array), one "X" event per span,
/// "i" per instant, "C" per counter sample, plus process/thread metadata.
/// The result loads in Perfetto and chrome://tracing and passes
/// ValidateChromeTraceJson.
std::string ExportChromeTrace(const std::vector<TraceEvent>& events,
                              std::string_view process_name = "c2lsh");

/// Checks `json` against the Chrome trace-event format the way
/// ValidatePrometheusText checks the text exposition format: the document
/// must parse as JSON, carry a `traceEvents` array, and every event object
/// must have a string `name`, a known `ph` phase (X/B/E/i/I/C/M), integer
/// `pid`/`tid`, a non-negative numeric `ts` (metadata excepted), and a
/// non-negative `dur` on complete ("X") events. Returns InvalidArgument
/// naming the first offending event (or byte offset for parse errors).
Status ValidateChromeTraceJson(std::string_view json);

}  // namespace obs
}  // namespace c2lsh

#endif  // C2LSH_OBS_SPAN_H_
