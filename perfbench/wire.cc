// The wire workload, wire_cold_rw: the real serve::Server over
// PosixTransport loopback, serving one DiskC2lshIndex (Mnist profile,
// n = 1500) whose buffer pool holds at most 10% of the index file, driven
// open-loop from this process with 80% k = 10 queries, 10% inserts and 10%
// deletes from four zipf-weighted tenants. Every insert and delete is
// acknowledged only after its WAL record is synced (the library's only
// flush policy).
//
// Load: a seeded Poisson schedule at a fixed reference rate, then a
// saturation phase offered well above capacity. A generator thread releases
// each request at its due time into a FIFO; one worker per connection takes
// the oldest released request, sends it with what is left of its deadline
// (counted from the due time), and waits for the reply. Latency runs from
// the due time to the decoded reply, so a stall is charged to every request
// queued behind it. A request whose deadline passed before a connection was
// free is dropped by the client and counted as shed.

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/disk_index.h"
#include "src/eval/metrics.h"
#include "src/lsh/pstable.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/transport_posix.h"
#include "src/util/random.h"
#include "src/vector/distance.h"
#include "src/vector/synthetic.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace obs = c2lsh::obs;
namespace serve = c2lsh::serve;
using c2lsh::Dataset;
using c2lsh::DiskC2lshIndex;
using c2lsh::FloatMatrix;
using c2lsh::Neighbor;
using c2lsh::NeighborList;
using c2lsh::ObjectId;
using c2lsh::Rng;
using c2lsh::Status;

constexpr size_t kK = 10;
constexpr size_t kTenants = 4;
constexpr const char* kTenantNames[kTenants] = {"tenant-a", "tenant-b", "tenant-c",
                                                "tenant-d"};
constexpr const char* kIndexName = "main";
/// Generator lateness (p99) beyond which a run is void: the load generator,
/// not the system, would then be what the latencies measure.
constexpr double kMaxLateMs = 5.0;
constexpr double kIoTimeoutMs = 5000.0;
/// The server's default deadline_margin_millis: the query's own deadline is
/// the wire deadline minus this.
constexpr double kServerMarginMs = 2.0;
constexpr size_t kWarmupQueries = 64;
/// Shares of --seconds: the reference phase and saturation (untraced run);
/// the sequential in-process/wire comparison (trace run).
constexpr double kRefShare = 0.8;
constexpr double kSatShare = 0.2;
constexpr double kSequentialShare = 0.1;
/// Queries the bitwise gate replays in process.
constexpr size_t kReplicaChecks = 150;

struct WireConfig {
  const char* name;
  size_t n;
  size_t pool_pages;   ///< buffer-pool frames of the served index
  size_t query_pool;   ///< distinct query vectors
  double ref_rate;     ///< reference offered load, requests/s
  double sat_rate;     ///< saturation offered load, requests/s
  double write_share;  ///< inserts + deletes, half each
  double deadline_ms;  ///< wire deadline, counted from the due time
};

// Rates were fixed on a 4-core x86-64 box (AVX-512) against the sequential
// capacity every run reports as capacity_qps (~70/s): the reference rate is
// about a third of it, so that a few seconds of the host running at half
// speed do not push the index lock into overload, and the saturation rate
// is twice the capacity.
constexpr WireConfig kColdRw = {"wire_cold_rw", 1500, 48, 256,
                                25.0, 150.0, 0.2, 200.0};

enum class Op : uint8_t { kQuery, kInsert, kDelete };
enum class Outcome : uint8_t {
  kPending,
  kOk,          ///< complete answer or acked write
  kPartial,     ///< answer tagged kDeadline / kCancelled
  kServerShed,  ///< Unavailable from admission
  kClientShed,  ///< deadline passed before a connection was free
  kError,       ///< any other status code
  kTransport,   ///< connect / read / write / decode failure
};

struct Req {
  Op op = Op::kQuery;
  uint8_t tenant = 0;
  uint32_t arg = 0;  ///< query-pool row, insert ordinal, or deleted id
  double due = 0.0;  ///< NowSeconds(); plans hold offsets until run
  double sent = 0.0;
  double done = 0.0;
  double deadline_ms = 0.0;  ///< wire deadline sent; 0 = none
  Outcome outcome = Outcome::kPending;
  /// Span tracing was on at send and at reply (kOn), off at both (kOff),
  /// or switched in between (kMixed).
  enum class Traced : uint8_t { kOff, kOn, kMixed } traced = Traced::kOff;
  NeighborList answer;

  double latency_ms() const { return (done - due) * 1e3; }
  /// True when the reply came before the query's own deadline could have
  /// fired, so the answer is certainly the uninterrupted one. (The library
  /// keeps a kT1 tag on a round the deadline cut short once the partial
  /// scan already met T1, so such an answer is untagged yet may differ.)
  bool surely_complete() const {
    return deadline_ms <= 0.0 || done < sent + (deadline_ms - kServerMarginMs) * 1e-3;
  }
};

/// Everything the workload sends, drawn from the seed.
struct Inputs {
  Dataset data;
  FloatMatrix queries;                      ///< the query pool
  std::vector<std::vector<float>> inserts;  ///< vector of each insert ordinal
  std::vector<ObjectId> delete_order;       ///< base ids, deleted in this order
  size_t next_delete = 0;
};

struct Setup {
  Inputs in;
  std::unique_ptr<serve::PosixTransport> transport;  // outlives the server
  std::unique_ptr<serve::Server> server;
  std::string path;
  std::string ref_path;
  uint64_t file_pages = 0;
  double seconds = 0.0;
};

serve::TenantAdmissionOptions Admission(const WireConfig& cfg) {
  serve::TenantAdmissionOptions a;
  // One in-flight request per tenant: a second request of the same tenant
  // waits in admission, others wait on the index lock.
  a.per_tenant.max_in_flight = 1;
  a.per_tenant.max_queue = 8;
  a.per_tenant.queue_timeout_millis = cfg.deadline_ms;
  a.overflow.max_in_flight = 1;
  a.overflow.max_queue = 0;
  a.overflow.queue_timeout_millis = 0.0;
  a.max_tenants = 8;
  return a;
}

/// Generates the data, builds the disk index, copies it for the answer
/// oracle and starts the server. `seconds` excludes the copy.
Setup BuildSetup(const WireConfig& cfg, const RunArgs& args, int rep) {
  Setup s;
  const double t0 = NowSeconds();
  c2lsh::ProfileData pd =
      MakeInputs(c2lsh::DatasetProfile::kMnist, cfg.n, cfg.query_pool);
  s.in.data = std::move(pd.data);
  s.in.queries = std::move(pd.queries);
  Rng rng(StreamSeed(args.seed, 1));
  for (size_t id : rng.SampleWithoutReplacement(cfg.n, cfg.n / 2)) {
    s.in.delete_order.push_back(static_cast<ObjectId>(id));
  }
  s.path = args.work_dir + "/" + cfg.name + "-" + std::to_string(rep) + ".c2lsh";
  auto index = DiskC2lshIndex::Build(s.in.data, IndexOptions(kDataSeed), s.path,
                                     cfg.pool_pages);
  DieIf(index.status(), "disk index build");
  s.file_pages = index->FilePages();
  const double t1 = NowSeconds();
  s.ref_path = s.path + ".ref";
  std::error_code ec;
  fs::copy_file(s.path, s.ref_path, fs::copy_options::overwrite_existing, ec);
  if (ec) DieIf(Status::IOError("copy " + s.path + ": " + ec.message()), "index copy");
  const double t2 = NowSeconds();
  s.transport = std::make_unique<serve::PosixTransport>();
  serve::ServerOptions so;
  so.transport = s.transport.get();
  so.max_connections = 16;
  so.admission = Admission(cfg);
  auto server = serve::Server::Start(so);
  DieIf(server.status(), "server start");
  s.server = std::move(server).value();
  DieIf(s.server->AddIndex(kIndexName, std::move(index).value()), "add index");
  s.seconds = (t1 - t0) + (NowSeconds() - t2);
  return s;
}

void Teardown(Setup* s) {
  if (s->server != nullptr) (void)s->server->Drain();
  s->server.reset();
  s->transport.reset();
  std::error_code ec;
  for (const std::string& p : {s->path, s->path + ".wal", s->ref_path, s->ref_path + ".wal"}) {
    fs::remove(p, ec);
  }
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// One wire connection; reconnects after any transport failure.
class Client {
 public:
  Client(serve::PosixTransport* transport, std::string address)
      : transport_(transport), address_(std::move(address)) {}

  Status Call(const serve::Request& req, serve::Response* resp) {
    if (conn_ == nullptr) {
      auto r = transport_->Connect(address_, c2lsh::Deadline::AfterMillis(1000));
      if (!r.ok()) return r.status();
      conn_ = std::move(r).value();
    }
    const auto io = c2lsh::Deadline::AfterMillis(kIoTimeoutMs);
    Status s = serve::WriteFrame(*conn_, serve::EncodeRequest(req), io);
    std::string body;
    bool eof = false;
    if (s.ok()) s = serve::ReadFrame(*conn_, &body, &eof, io);
    if (s.ok() && eof) s = Status::Unavailable("server closed the connection");
    if (s.ok()) {
      s = serve::DecodeResponse(reinterpret_cast<const uint8_t*>(body.data()),
                                body.size(), resp);
    }
    if (!s.ok()) conn_.reset();
    return s;
  }

 private:
  serve::PosixTransport* transport_;
  std::string address_;
  std::unique_ptr<c2lsh::Connection> conn_;
};

serve::Request ToWire(const Req& r, const Inputs& in, double deadline_ms) {
  serve::Request w;
  w.tenant = kTenantNames[r.tenant];
  w.index = kIndexName;
  w.deadline_micros = deadline_ms > 0.0 ? static_cast<uint64_t>(deadline_ms * 1e3) : 0;
  const size_t d = in.data.dim();
  switch (r.op) {
    case Op::kQuery: {
      w.type = serve::MsgType::kQuery;
      w.k = kK;
      const float* q = in.queries.row(r.arg);
      w.vector.assign(q, q + d);
      break;
    }
    case Op::kInsert:
      w.type = serve::MsgType::kInsert;
      w.id = static_cast<uint32_t>(in.data.size() + r.arg);
      w.vector = in.inserts[r.arg];
      break;
    case Op::kDelete:
      w.type = serve::MsgType::kDelete;
      w.id = r.arg;
      break;
  }
  return w;
}

/// Sends one request and classifies the reply. `deadline_ms` <= 0 sends no
/// deadline.
void Serve(Client* client, const Inputs& in, double deadline_ms, Req* r) {
  serve::Response resp;
  const bool traced_at_send = obs::Tracer::enabled();
  r->deadline_ms = deadline_ms;
  r->sent = NowSeconds();
  const Status s = client->Call(ToWire(*r, in, deadline_ms), &resp);
  r->done = NowSeconds();
  const bool traced_at_reply = obs::Tracer::enabled();
  r->traced = traced_at_send != traced_at_reply
                  ? Req::Traced::kMixed
                  : (traced_at_send ? Req::Traced::kOn : Req::Traced::kOff);
  if (!s.ok()) {
    r->outcome = Outcome::kTransport;
  } else if (resp.code == c2lsh::StatusCode::kUnavailable) {
    r->outcome = Outcome::kServerShed;
  } else if (resp.code != c2lsh::StatusCode::kOk) {
    r->outcome = Outcome::kError;
  } else if (r->op == Op::kQuery && serve::IsEarlyStop(resp.termination)) {
    r->outcome = Outcome::kPartial;
    r->answer = std::move(resp.neighbors);
  } else {
    r->outcome = Outcome::kOk;
    r->answer = std::move(resp.neighbors);
  }
}

/// A seeded plan: Poisson arrivals at `rate` over `seconds`, each with a
/// zipf-weighted tenant and an operation from the workload's mix. Due times
/// are offsets from the phase start.
std::vector<Req> MakePlan(const WireConfig& cfg, double rate, double seconds,
                          uint64_t seed, Inputs* in) {
  const std::vector<double> times = PoissonSchedule(rate, seconds, seed);
  Rng rng(StreamSeed(seed, 2));
  const std::vector<double> tenants = ZipfWeights(kTenants, 1.0);
  const std::vector<double> ops = {1.0 - cfg.write_share, cfg.write_share / 2,
                                   cfg.write_share / 2};
  const size_t d = in->data.dim();
  std::vector<Req> plan(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    Req& r = plan[i];
    r.due = times[i];
    r.tenant = static_cast<uint8_t>(Pick(tenants, &rng));
    r.op = static_cast<Op>(Pick(ops, &rng));
    if (r.op == Op::kDelete && in->next_delete == in->delete_order.size()) {
      r.op = Op::kQuery;
    }
    switch (r.op) {
      case Op::kQuery:
        r.arg = static_cast<uint32_t>(rng.Index(in->queries.num_rows()));
        break;
      case Op::kInsert: {
        // A jittered copy of a stored vector: new, yet inside the data.
        const float* base = in->data.object(static_cast<ObjectId>(rng.Index(in->data.size())));
        std::vector<float> v(base, base + d);
        for (float& x : v) x += static_cast<float>(rng.Gaussian(0.0, 0.5));
        r.arg = static_cast<uint32_t>(in->inserts.size());
        in->inserts.push_back(std::move(v));
        break;
      }
      case Op::kDelete:
        r.arg = in->delete_order[in->next_delete++];
        break;
    }
  }
  return plan;
}

void SleepUntil(double t) {
  const double wait = t - NowSeconds();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

/// Runs `plan` open-loop over `conns` connections (see the file comment).
/// Returns how late the generator released each request, in ms.
std::vector<double> RunOpenLoop(std::vector<Req>* plan, const Inputs& in,
                                const WireConfig& cfg, const Setup& s, size_t conns) {
  std::mutex mu;
  std::condition_variable cv;
  size_t released = 0;
  size_t next = 0;
  const double start = NowSeconds() + 0.005;
  for (Req& r : *plan) r.due += start;

  std::vector<std::thread> workers;
  for (size_t c = 0; c < conns; ++c) {
    workers.emplace_back([&] {
      Client client(s.transport.get(), s.server->address());
      for (;;) {
        size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return next < released || next == plan->size(); });
          if (next == plan->size()) return;
          i = next++;
        }
        Req& r = (*plan)[i];
        const double left_ms = cfg.deadline_ms - (NowSeconds() - r.due) * 1e3;
        if (left_ms < 1.0) {
          r.outcome = Outcome::kClientShed;
          r.sent = r.done = NowSeconds();
          continue;
        }
        Serve(&client, in, left_ms, &r);
      }
    });
  }
  std::vector<double> late;
  late.reserve(plan->size());
  for (size_t i = 0; i < plan->size(); ++i) {
    SleepUntil((*plan)[i].due);
    late.push_back((NowSeconds() - (*plan)[i].due) * 1e3);
    {
      std::lock_guard<std::mutex> lock(mu);
      released = i + 1;
    }
    cv.notify_one();
  }
  cv.notify_all();
  for (std::thread& t : workers) t.join();
  return late;
}

/// Runs span tracing in alternating one-second windows (off, on, off, ...)
/// while a phase runs, so traced and untraced requests share the same load
/// and drift; collects the library's own spans by polling every ring often
/// enough that none wraps between polls, keeps only the spans the
/// per-layer split folds, and drops events already seen (per-ring seq).
class SpanCollector {
 public:
  struct Span {
    uint32_t tid;
    const char* name;
    double begin;  // ticks
    double end;
  };

  void Start() {
    obs::Tracer::Global().Clear();
    thread_ = std::thread([this] {
      double next_flip = NowSeconds() + kWindowSeconds;
      bool on = false;
      while (!stop_.load()) {
        Poll();
        if (NowSeconds() >= next_flip) {
          Flip(on = !on);
          next_flip += kWindowSeconds;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      if (on) Flip(false);
    });
  }

  void Stop() {
    stop_.store(true);
    thread_.join();
    Poll();
    std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
      return a.tid != b.tid ? a.tid < b.tid : a.begin < b.begin;
    });
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// True when [begin, end] (ticks) lies inside one traced window, so every
  /// span a request opened in it was recorded.
  bool InTracedWindow(double begin, double end) const {
    for (const auto& [on, off] : windows_) {
      if (begin >= on && end <= off) return true;
    }
    return false;
  }

 private:
  static constexpr double kWindowSeconds = 1.0;

  void Flip(bool on) {
    obs::Tracer::Global().SetMode(on ? obs::TraceMode::kAlways : obs::TraceMode::kOff);
    const double now = static_cast<double>(obs::TraceClock::NowTicks());
    if (on) {
      windows_.emplace_back(now, now);
    } else {
      windows_.back().second = now;
    }
  }

  static bool Wanted(const char* name) {
    for (const char* w : {"request", "admit", "disk_c2lsh_query", "wal_append",
                          "wal_sync", "pool_miss"}) {
      if (std::strcmp(name, w) == 0) return true;
    }
    return false;
  }

  void Poll() {
    const std::vector<obs::TraceEvent> events = obs::Tracer::Global().SnapshotAll();
    std::map<uint32_t, uint64_t> floor = floor_;
    for (const obs::TraceEvent& e : events) {
      const auto it = floor_.find(e.tid);
      if (it != floor_.end() && e.seq < it->second) continue;
      uint64_t& f = floor[e.tid];
      f = std::max(f, e.seq + 1);
      if (e.kind != obs::TraceEventKind::kSpan || !Wanted(e.name)) continue;
      spans_.push_back(Span{e.tid, e.name, static_cast<double>(e.start_ticks),
                            static_cast<double>(e.start_ticks + e.dur_ticks)});
    }
    floor_ = std::move(floor);
  }

  std::atomic<bool> stop_{false};
  std::map<uint32_t, uint64_t> floor_;  ///< per ring: first seq not yet seen
  std::vector<Span> spans_;
  std::vector<std::pair<double, double>> windows_;  ///< traced [on, off], ticks
  std::thread thread_;  // declared last: joined before the members it uses die
};

/// What the traced phase's spans say, per layer.
struct Folded {
  std::vector<double> admit_ms;
  std::vector<double> lock_wait_ms;
  std::vector<double> miss_us;
  std::vector<double> wal_sync_ms;
};

Folded Fold(const SpanCollector& collector) {
  const obs::TraceClock::Scale scale = obs::TraceClock::Calibrate();
  const double ms_per_tick = scale.micros_per_tick * 1e-3;
  const std::vector<SpanCollector::Span>& spans = collector.spans();
  Folded f;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanCollector::Span& s = spans[i];
    const double ms = (s.end - s.begin) * ms_per_tick;
    if (std::strcmp(s.name, "admit") == 0) f.admit_ms.push_back(ms);
    if (std::strcmp(s.name, "pool_miss") == 0) f.miss_us.push_back(ms * 1e3);
    if (std::strcmp(s.name, "wal_sync") == 0) f.wal_sync_ms.push_back(ms);
    if (std::strcmp(s.name, "request") != 0 || !collector.InTracedWindow(s.begin, s.end)) {
      continue;
    }
    // A request's self time is what it spent neither querying nor logging:
    // the index-lock wait (plus dispatch bookkeeping). Its children start
    // after it on the same thread, so they follow it in the sorted list.
    std::vector<Interval> children;
    for (size_t j = i + 1; j < spans.size() && spans[j].tid == s.tid &&
                           spans[j].begin < s.end;
         ++j) {
      const char* n = spans[j].name;
      if (std::strcmp(n, "disk_c2lsh_query") == 0 || std::strcmp(n, "wal_append") == 0 ||
          std::strcmp(n, "wal_sync") == 0) {
        children.push_back(Interval{spans[j].begin, spans[j].end});
      }
    }
    f.lock_wait_ms.push_back(SelfTime(Interval{s.begin, s.end}, children) * ms_per_tick);
  }
  return f;
}

/// Registry counters the per-layer split reads, as a delta over a phase.
struct Counters {
  static constexpr const char* kNames[] = {
      "disk_c2lsh_queries_total",          "disk_c2lsh_rounds_total",
      "disk_c2lsh_buckets_scanned_total",  "disk_c2lsh_collision_increments_total",
      "disk_c2lsh_candidates_verified_total", "buffer_pool_hits_total",
      "buffer_pool_misses_total",          "buffer_pool_evictions_total"};
  uint64_t v[std::size(kNames)] = {};

  static Counters Now() {
    Counters c;
    for (size_t i = 0; i < std::size(kNames); ++i) c.v[i] = CounterValue(kNames[i]);
    return c;
  }
  Counters Minus(const Counters& o) const {
    Counters c;
    for (size_t i = 0; i < std::size(kNames); ++i) c.v[i] = v[i] - o.v[i];
    return c;
  }
  double Get(const char* name) const {
    for (size_t i = 0; i < std::size(kNames); ++i) {
      if (std::strcmp(kNames[i], name) == 0) return static_cast<double>(v[i]);
    }
    return 0.0;
  }
};

uint64_t TenantSheds(serve::Server* server) {
  uint64_t total = 0;
  for (const char* t : kTenantNames) total += server->admission().StatsFor(t).shed_final;
  return total;
}

/// Exact top-k by brute force over `live` ids (ties broken by id, as the
/// index ranks).
NeighborList BruteForce(const float* q, const std::vector<const float*>& vecs,
                        const std::vector<ObjectId>& ids, size_t d) {
  NeighborList all(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    all[i] = Neighbor{ids[i], static_cast<float>(c2lsh::L2(q, vecs[i], d))};
  }
  const size_t k = std::min(kK, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
                    });
  all.resize(k);
  return all;
}

/// The bitwise gate on the wire: an untagged answer equals
/// DiskC2lshIndex::Query on `replica` (a copy of the built index file) once
/// the replica has applied exactly the writes acked before the query was
/// sent. Only queries that no write overlapped are comparable: the server
/// serializes every request under the index lock, so such a query ran after
/// every earlier ack and before every later send; inserts of fresh ids and
/// deletes of base ids commute, so the order of the writes among themselves
/// does not change an answer. A reply that may have come after the query's
/// own deadline fired is skipped (see Req::surely_complete). Replays at most
/// kReplicaChecks queries, in send order, and stops at a write whose outcome
/// is unknown.
void CheckAgainstReplica(const std::vector<const Req*>& all, const Inputs& in,
                         DiskC2lshIndex* replica, Report* report) {
  std::vector<const Req*> writes, queries;
  for (const Req* r : all) {
    if (r->outcome == Outcome::kClientShed) continue;  // never sent
    (r->op == Op::kQuery ? queries : writes).push_back(r);
  }
  std::sort(writes.begin(), writes.end(),
            [](const Req* a, const Req* b) { return a->done < b->done; });
  std::sort(queries.begin(), queries.end(),
            [](const Req* a, const Req* b) { return a->sent < b->sent; });
  const size_t n = in.data.size();
  size_t applied = 0, checked = 0, overlapped = 0;
  for (const Req* q : queries) {
    if (checked == kReplicaChecks) break;
    if (q->outcome != Outcome::kOk || !q->surely_complete()) continue;
    bool overlaps = false;
    for (const Req* w : writes) overlaps |= w->sent < q->done && w->done > q->sent;
    if (overlaps) {
      ++overlapped;
      continue;
    }
    bool unknown = false;
    for (; applied < writes.size() && writes[applied]->done < q->sent; ++applied) {
      const Req* w = writes[applied];
      if (w->outcome == Outcome::kServerShed) continue;  // never applied
      if (w->outcome != Outcome::kOk) {
        unknown = true;
        break;
      }
      DieIf(w->op == Op::kInsert
                ? replica->Insert(static_cast<ObjectId>(n + w->arg), in.inserts[w->arg].data())
                : replica->Delete(w->arg),
            "replica write");
    }
    if (unknown) break;
    auto a = replica->Query(in.queries.row(q->arg), kK);
    DieIf(a.status(), "replica query");
    ++checked;
    if (!SameAnswer(q->answer, *a)) {
      report->Violation("wire answer differs from DiskC2lshIndex::Query on the replica for "
                        "query " + std::to_string(q->arg));
    }
  }
  report->Config("answers_checked_bitwise", static_cast<double>(checked));
  report->Config("answers_skipped_overlapping_a_write", static_cast<double>(overlapped));
}

/// Sequential writes: `count` inserts of fresh vectors, then a delete of
/// each; `wal_bytes_per_insert` from the WAL's growth over the inserts alone.
void WriteProbe(Client* client, Inputs* in, const std::string& wal_path,
                               size_t count, uint64_t seed, double* wal_bytes_per_insert,
                               Report* report) {
  Rng rng(StreamSeed(seed, 9));
  const size_t d = in->data.dim();
  std::vector<Req> done;
  const uint64_t wal_before = FileBytes(wal_path);
  for (size_t i = 0; i < count; ++i) {
    const float* base = in->data.object(static_cast<ObjectId>(rng.Index(in->data.size())));
    std::vector<float> v(base, base + d);
    for (float& x : v) x += static_cast<float>(rng.Gaussian(0.0, 0.5));
    Req r;
    r.op = Op::kInsert;
    r.arg = static_cast<uint32_t>(in->inserts.size());
    in->inserts.push_back(std::move(v));
    r.due = NowSeconds();
    Serve(client, *in, 0.0, &r);
    done.push_back(r);
  }
  *wal_bytes_per_insert =
      done.empty() ? 0.0
                   : static_cast<double>(FileBytes(wal_path) - wal_before) /
                         static_cast<double>(done.size());
  const size_t inserted = done.size();
  for (size_t i = 0; i < inserted; ++i) {
    Req r;
    r.op = Op::kDelete;
    r.arg = static_cast<uint32_t>(in->data.size() + done[i].arg);
    r.due = NowSeconds();
    Serve(client, *in, 0.0, &r);
    done.push_back(r);
  }
  for (const Req& r : done) {
    ++report->attempted;
    if (r.outcome != Outcome::kOk) {
      ++report->failed;
      report->Violation("write probe: a sequential write was not acknowledged");
    }
  }
}

double ProtocolMicros(const std::vector<Req>& reqs, const Inputs& in) {
  std::vector<std::pair<serve::Request, serve::Response>> frames;
  for (const Req& r : reqs) {
    if (r.outcome != Outcome::kOk || frames.size() == 256) continue;
    serve::Response resp;
    resp.type = r.op == Op::kQuery ? serve::MsgType::kQuery
                                   : (r.op == Op::kInsert ? serve::MsgType::kInsert
                                                          : serve::MsgType::kDelete);
    resp.neighbors = r.answer;
    frames.emplace_back(ToWire(r, in, 100.0), std::move(resp));
  }
  if (frames.empty()) return 0.0;
  size_t sink = 0;
  const double us = TimeMicros(
      [&] {
        for (const auto& [req, resp] : frames) {
          const std::string a = serve::EncodeRequest(req);
          serve::Request req2;
          (void)serve::DecodeRequest(reinterpret_cast<const uint8_t*>(a.data()), a.size(), &req2);
          const std::string b = serve::EncodeResponse(resp);
          serve::Response resp2;
          (void)serve::DecodeResponse(reinterpret_cast<const uint8_t*>(b.data()), b.size(),
                                      &resp2);
          sink += req2.vector.size() + resp2.neighbors.size();
        }
      },
      frames.size());
  return sink > 0 ? us : 0.0;
}

void RunWire(const WireConfig& cfg, const RunArgs& args, Report* report) {
  const size_t conns =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, kTenants);
  const double T = args.seconds;

  // ---- Set-up: generate, build, start; repeated, the median reported.
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    if (rep > 0) Teardown(&s);
    s = BuildSetup(cfg, args, rep);
    setup_s.push_back(s.seconds);
  }
  Inputs& in = s.in;
  const size_t n = in.data.size();
  const size_t d = in.data.dim();
  auto ref_index = DiskC2lshIndex::Open(s.ref_path, cfg.pool_pages);
  DieIf(ref_index.status(), "oracle index open");

  report->Config("n", static_cast<double>(n));
  report->Config("d", static_cast<double>(d));
  report->Config("k", static_cast<double>(kK));
  report->Config("tables_m", static_cast<double>(ref_index->num_tables()));
  report->Config("pool_pages", static_cast<double>(cfg.pool_pages));
  report->Config("file_pages", static_cast<double>(s.file_pages));
  report->Config("pool_share_of_file",
                 static_cast<double>(cfg.pool_pages) / static_cast<double>(s.file_pages));
  report->Config("ref_rate_per_s", cfg.ref_rate);
  report->Config("sat_rate_per_s", cfg.sat_rate);
  report->Config("deadline_ms", cfg.deadline_ms);
  report->Config("write_share", cfg.write_share);
  report->Config("connections", static_cast<double>(conns));
  report->Config("tenants", static_cast<double>(kTenants));
  report->Config("flush_policy", std::string("WAL sync before every write ack"));
  if (cfg.pool_pages * 10 > s.file_pages) {
    report->Violation("wire_cold_rw: the pool holds more than 10% of the index file");
  }

  // ---- Warm-up: sequential queries; their mean gives the capacity estimate.
  Client seq(s.transport.get(), s.server->address());
  std::vector<double> warm_ms;
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    Req r;
    r.arg = static_cast<uint32_t>(i % in.queries.num_rows());
    r.due = NowSeconds();
    Serve(&seq, in, 0.0, &r);
    if (r.outcome != Outcome::kOk) DieIf(Status::Internal("warm-up query failed"), "warm-up");
    if (i >= 16) warm_ms.push_back(r.latency_ms());
  }
  report->Config("capacity_qps", 1e3 / Mean(warm_ms));

  // ---- Load: the reference rate, then (untraced run) saturation. The
  // trace run skips saturation and traces the reference phase in
  // alternating windows.
  std::vector<Req> ref =
      MakePlan(cfg, cfg.ref_rate, kRefShare * T, StreamSeed(args.seed, 10), &in);
  std::vector<Req> sat;
  SpanCollector collector;
  const Counters before = Counters::Now();
  const uint64_t sheds_before = TenantSheds(s.server.get());
  if (args.trace) collector.Start();
  const std::vector<double> late = RunOpenLoop(&ref, in, cfg, s, conns);
  if (args.trace) collector.Stop();
  const Counters phase = Counters::Now().Minus(before);
  const uint64_t sheds = TenantSheds(s.server.get()) - sheds_before;
  const obs::Gauge* overlay_gauge =
      obs::MetricsRegistry::Global().FindGauge("disk_c2lsh_overlay_entries");
  const double overlay_end = overlay_gauge != nullptr ? overlay_gauge->value() : 0.0;
  double sat_start = 0.0;
  if (!args.trace) {
    sat = MakePlan(cfg, cfg.sat_rate, kSatShare * T, StreamSeed(args.seed, 12), &in);
    sat_start = NowSeconds();
    RunOpenLoop(&sat, in, cfg, s, conns);
  }
  const double late_p99 = NearestRank(late, 0.99);
  if (late_p99 > kMaxLateMs) {
    report->Invalidate("load generator fell behind its schedule: lateness p99 " +
                       std::to_string(late_p99) + " ms");
  }

  // ---- Correctness gate and answer quality.
  std::vector<const Req*> all;
  for (const auto* ph : {&ref, &sat}) {
    for (const Req& r : *ph) all.push_back(&r);
  }
  for (const Req* r : all) {
    ++report->attempted;
    if (r->outcome == Outcome::kError || r->outcome == Outcome::kTransport) {
      ++report->failed;
    }
  }
  std::vector<double> recall, ratio;
  auto truth_over = [&](const float* q, const std::vector<ObjectId>& ids) {
    std::vector<const float*> vecs(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      vecs[i] = ids[i] < n ? in.data.object(ids[i]) : in.inserts[ids[i] - n].data();
    }
    return BruteForce(q, vecs, ids, d);
  };

  {
    // The mutation ledger: an acked delete never comes back in an answer to
    // a query sent after the ack; every acked insert is found at distance 0
    // by its own vector; every acked-deleted id stays gone.
    std::map<ObjectId, double> deleted_at;
    std::vector<ObjectId> inserted;
    for (const Req* r : all) {
      if (r->outcome != Outcome::kOk) continue;
      if (r->op == Op::kDelete) deleted_at[r->arg] = r->done;
      if (r->op == Op::kInsert) inserted.push_back(static_cast<ObjectId>(n + r->arg));
    }
    for (const Req* r : all) {
      if (r->op != Op::kQuery) continue;
      for (const Neighbor& nb : r->answer) {
        const auto it = deleted_at.find(nb.id);
        if (it != deleted_at.end() && it->second < r->sent) {
          report->Violation("acked-deleted id " + std::to_string(nb.id) + " returned");
        }
      }
    }
    CheckAgainstReplica(all, in, &*ref_index, report);
    auto ask = [&](const float* v) {
      Req r;
      r.due = NowSeconds();
      serve::Request w = ToWire(r, in, 0.0);
      w.vector.assign(v, v + d);
      serve::Response resp;
      const Status st = seq.Call(w, &resp);
      if (!st.ok() || resp.code != c2lsh::StatusCode::kOk ||
          serve::IsEarlyStop(resp.termination)) {
        report->Violation("a sequential check query failed");
      }
      return resp.neighbors;
    };
    for (ObjectId id : inserted) {
      bool found = false;
      for (const Neighbor& nb : ask(in.inserts[id - n].data())) {
        found |= nb.id == id && nb.dist == 0.0f;
      }
      if (!found) {
        report->Violation("acked insert " + std::to_string(id) + " not found at distance 0");
      }
    }
    for (const auto& [id, when] : deleted_at) {
      for (const Neighbor& nb : ask(in.data.object(id))) {
        if (nb.id == id) {
          report->Violation("acked delete " + std::to_string(id) + " still answers");
        }
      }
    }
    // Quality against brute force over the live set at the end.
    std::vector<ObjectId> live;
    for (size_t i = 0; i < n; ++i) {
      if (deleted_at.count(static_cast<ObjectId>(i)) == 0) {
        live.push_back(static_cast<ObjectId>(i));
      }
    }
    live.insert(live.end(), inserted.begin(), inserted.end());
    for (size_t q = 0; q < std::min<size_t>(100, in.queries.num_rows()); ++q) {
      const NeighborList got = ask(in.queries.row(q));
      const NeighborList truth = truth_over(in.queries.row(q), live);
      recall.push_back(c2lsh::Recall(got, truth, kK));
      ratio.push_back(c2lsh::OverallRatio(got, truth, kK));
    }
    report->Config("acked_inserts", static_cast<double>(inserted.size()));
    report->Config("acked_deletes", static_cast<double>(deleted_at.size()));
  }

  if (!args.trace) {
    // ---- End-to-end metrics.
    std::vector<double> query_ms;
    size_t ok = 0;
    for (const Req& r : ref) {
      if (r.outcome == Outcome::kOk) ++ok;
      if (r.op != Op::kQuery) continue;
      // A query that was shed, cut short or failed counts as missing the
      // deadline.
      query_ms.push_back(r.outcome == Outcome::kOk ? r.latency_ms()
                                                   : std::max(cfg.deadline_ms, r.latency_ms()));
    }
    size_t sat_ok = 0;
    for (const Req& r : sat) {
      if (r.outcome == Outcome::kOk && r.done <= sat_start + kSatShare * T) ++sat_ok;
    }
    report->Metric("setup_s", NearestRank(setup_s, 0.5), "s", setup_s.size());
    report->Metric("query_p50_ms", NearestRank(query_ms, 0.5), "ms", query_ms.size());
    report->Metric("query_p90_ms", NearestRank(query_ms, 0.9), "ms", query_ms.size());
    report->Metric("throughput_qps", static_cast<double>(sat_ok) / (kSatShare * T), "1/s",
                   sat.size());
    report->Metric("success_rate",
                   static_cast<double>(ok) / static_cast<double>(std::max<size_t>(1, ref.size())),
                   "fraction", ref.size());
    report->Metric("recall_at_10", Mean(recall), "fraction", recall.size());
    report->Metric("overall_ratio", Mean(ratio), "ratio", ratio.size());
  } else {
    // ---- Per-layer metrics. In-process query time and the serving
    // overhead, measured one after the other on the same query: first over
    // the wire, then on the copy.
    std::vector<double> core_ms, overhead_ms;
    const double stop = NowSeconds() + kSequentialShare * T;
    for (size_t i = 0; NowSeconds() < stop; ++i) {
      Req r;
      r.arg = static_cast<uint32_t>(i % in.queries.num_rows());
      r.due = NowSeconds();
      Serve(&seq, in, 0.0, &r);
      const double t0 = NowSeconds();
      auto a = ref_index->Query(in.queries.row(r.arg), kK);
      const double core = (NowSeconds() - t0) * 1e3;
      DieIf(a.status(), "oracle query");
      core_ms.push_back(core);
      overhead_ms.push_back(r.latency_ms() - core);
    }
    std::vector<double> untraced_ms, traced_ms;
    size_t answered = 0;
    for (const Req& r : ref) {
      if (r.op != Op::kQuery) continue;
      answered += r.answer.size();
      if (r.outcome != Outcome::kOk) continue;
      if (r.traced == Req::Traced::kOff) untraced_ms.push_back(r.latency_ms());
      if (r.traced == Req::Traced::kOn) traced_ms.push_back(r.latency_ms());
    }
    const Folded folded = Fold(collector);
    const double queries = std::max(1.0, phase.Get("disk_c2lsh_queries_total"));
    const double candidates = phase.Get("disk_c2lsh_candidates_verified_total");
    const double hits = phase.Get("buffer_pool_hits_total");
    const double misses = phase.Get("buffer_pool_misses_total");

    // The index's own projection family (same m, d, w, seed, offset span).
    auto family = c2lsh::PStableFamily::Sample(ref_index->num_tables(), d, 1.0, kDataSeed,
                                               static_cast<double>(1ll << 24));
    DieIf(family.status(), "projection family");
    std::vector<c2lsh::BucketId> buckets;
    const size_t nq = in.queries.num_rows();
    const double project_us = TimeMicros(
        [&] {
          for (size_t q = 0; q < nq; ++q) family->BucketAll(in.queries.row(q), &buckets);
        },
        nq);
    const double project_multi_us = TimeMicros(
        [&] { family->BucketAllMulti(in.queries.row(0), nq, d, &buckets); }, nq);
    const double l2_us = SquaredL2Micros(in.data, in.queries);
    double wal_per_insert = 0.0;
    WriteProbe(&seq, &in, s.path + ".wal", 32, args.seed, &wal_per_insert, report);

    report->Metric("serve.overhead_ms_p50", NearestRank(overhead_ms, 0.5), "ms",
                   overhead_ms.size());
    report->Metric("serve.protocol_us", ProtocolMicros(ref, in), "us");
    report->Metric("serve.admission_wait_ms_p99", NearestRank(folded.admit_ms, 0.99), "ms",
                   folded.admit_ms.size());
    report->Metric("serve.shed_frac",
                   static_cast<double>(sheds) / static_cast<double>(std::max<size_t>(1, ref.size())),
                   "fraction", ref.size());
    report->Metric("serve.lock_wait_ms_p99", NearestRank(folded.lock_wait_ms, 0.99), "ms",
                   folded.lock_wait_ms.size());
    report->Metric("core.query_ms_p50", NearestRank(core_ms, 0.5), "ms", core_ms.size());
    report->Metric("core.rounds_per_query", phase.Get("disk_c2lsh_rounds_total") / queries,
                   "count");
    report->Metric("core.buckets_scanned_per_query",
                   phase.Get("disk_c2lsh_buckets_scanned_total") / queries, "count");
    report->Metric("core.collision_increments_per_query",
                   phase.Get("disk_c2lsh_collision_increments_total") / queries, "count");
    report->Metric("core.candidates_per_query", candidates / queries, "count");
    report->Metric("core.verify_yield",
                   candidates > 0 ? static_cast<double>(answered) / candidates : 0.0,
                   "fraction");
    report->Metric("core.batch_block_ms_p50", 0.0, "ms");
    report->Metric("core.batch_shared_scan_frac", 0.0, "fraction");
    report->Metric("lsh.project_us_per_query", project_us, "us", nq);
    report->Metric("lsh.project_multi_us_per_query", project_multi_us, "us", nq);
    report->Metric("vector.verify_us_per_query", candidates / queries * l2_us, "us");
    report->Metric("storage.pool_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                   "fraction");
    report->Metric("storage.pool_misses_per_query", misses / queries, "count");
    report->Metric("storage.pool_evictions_per_query",
                   phase.Get("buffer_pool_evictions_total") / queries, "count");
    report->Metric("storage.miss_us", Mean(folded.miss_us), "us", folded.miss_us.size());
    report->Metric("storage.wal_sync_ms_p99", NearestRank(folded.wal_sync_ms, 0.99), "ms",
                   folded.wal_sync_ms.size());
    report->Metric("storage.wal_bytes_per_insert", wal_per_insert, "bytes");
    report->Metric("storage.overlay_entries_end", overlay_end, "count");
    report->Metric("gen.late_ms_p99", late_p99, "ms", late.size());
    const double base = NearestRank(untraced_ms, 0.5);
    report->Metric("obs.trace_overhead_pct",
                   base > 0 ? (NearestRank(traced_ms, 0.5) - base) / base * 100.0 : 0.0, "%",
                   traced_ms.size());
  }

  // ---- Drain (it flushes), then the bytes the index keeps per vector byte.
  (void)s.server->Drain();
  if (!args.trace) {
    const double raw = static_cast<double>(n) * static_cast<double>(d) * sizeof(float);
    report->Metric("index_bytes_per_vector_byte",
                   static_cast<double>(FileBytes(s.path) + FileBytes(s.path + ".wal")) / raw,
                   "ratio");
  }
  Teardown(&s);
}

}  // namespace

void RunWireColdRw(const RunArgs& args, Report* report) { RunWire(kColdRw, args, report); }

}  // namespace perfbench
