// C2lshIndex::QueryBatch: query-parallel blocks on a worker pool, each
// query on the serial round loop. See src/core/batch.h for the execution
// model and why it is exact.

#include "src/core/batch.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace c2lsh {
namespace {

// Registry handles for the batch layer, resolved once per process. Each
// batched query also flushes through the core c2lsh_* instruments
// (FlushQueryMetrics, inside RunQuery), so serial and batched queries land
// in one set of counters.
struct BatchMetrics {
  obs::Counter* batch_queries;
  obs::Counter* batch_blocks;
  obs::Gauge* batch_size;
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
                     "Execution blocks run by QueryBatch"),
        r.GetGauge("c2lsh_batch_size",
                   "Queries per execution block (last QueryBatch)"),
        r.GetGauge("c2lsh_thread_pool_threads",
                   "Worker threads in the pool serving QueryBatch"),
        r.GetHistogram("c2lsh_batch_query_millis",
                       "Per-query completion latency within a batch block (ms)"),
    };
  }();
  return m;
}

}  // namespace

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
  const size_t block = std::min(nq, (options.batch_size != 0) ? options.batch_size : nq);
  const BatchMetrics& bm = Metrics();
  bm.batch_size->Set(static_cast<double>(block));
  bm.pool_threads->Set(static_cast<double>(pool->num_threads()));

  // One scratch per lane, reused across blocks. A query's own status slot
  // catches the one failure the checks above cannot rule out: a concurrent
  // Insert raising the object count past the caller's dataset.
  std::vector<C2lshQueryScratch> scratches(std::min(block, pool->num_threads()));
  std::vector<Status> errors(nq);
  for (size_t start = 0; start < nq; start += block) {
    const size_t end = std::min(nq, start + block);
    const bool sampled = obs::Tracer::Global().SampleQuery(nullptr);
    const uint64_t block_id = sampled ? obs::Tracer::Global().NextQueryId() : 0;
    obs::ScopedSpan block_span(obs::SpanSubsystem::kBatch, "batch_block", block_id,
                               sampled);
    Timer block_timer;
    std::atomic<size_t> cursor{start};
    // Lane `lane` owns scratches[lane] and writes only the slots of the
    // queries it takes; ParallelFor's completion barrier publishes them.
    pool->ParallelFor(std::min(end - start, scratches.size()), [&](size_t lane) {
      for (size_t q = cursor++; q < end; q = cursor++) {
        const QueryContext* ctx = options.contexts.empty() ? nullptr : options.contexts[q];
        Result<NeighborList> r = RunQuery(data, queries.row(q), k, &(*st)[q],
                                          &scratches[lane], /*filter=*/nullptr,
                                          /*trace=*/nullptr, ctx);
        if (!r.ok()) {
          errors[q] = r.status();
          continue;
        }
        results[q] = std::move(r).value();
        bm.batch_queries->Increment();
        bm.batch_query_millis->Observe(block_timer.ElapsedMillis());
      }
    });
    bm.batch_blocks->Increment();
    for (size_t q = start; q < end; ++q) {
      if (!errors[q].ok()) return errors[q];
    }
  }
  return results;
}

}  // namespace c2lsh
