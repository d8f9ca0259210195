#include "core/stream_aligner.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/ordered_emitter.hpp"
#include "core/schedule_cache.hpp"
#include "util/bounded_queue.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace saloba::core {
namespace {

/// A chunk travelling reader → worker, tagged for order restoration.
struct InChunk {
  std::size_t index = 0;
  std::size_t first_pair = 0;
  seq::PairBatch batch;
};

/// A chunk travelling worker → merger.
struct OutChunk {
  std::size_t index = 0;
  std::size_t first_pair = 0;
  std::size_t pairs = 0;
  AlignOutput output;
};

void raise_peak(std::atomic<std::size_t>& peak, std::size_t value) {
  std::size_t cur = peak.load(std::memory_order_relaxed);
  while (value > cur && !peak.compare_exchange_weak(cur, value)) {
  }
}

}  // namespace

StreamAligner::StreamAligner(AlignerOptions options, StreamOptions stream)
    : options_(std::move(options)), stream_(stream) {
  SALOBA_CHECK_MSG(options_.scoring.valid(), "invalid scoring scheme");
  if (stream_.chunk_pairs < 1) stream_.chunk_pairs = 1;
  if (stream_.queue_capacity < 1) stream_.queue_capacity = 1;
  if (stream_.align_threads < 1) stream_.align_threads = 1;
  backend_ = make_backend(options_);
}

StreamAligner::~StreamAligner() = default;
StreamAligner::StreamAligner(StreamAligner&&) noexcept = default;
StreamAligner& StreamAligner::operator=(StreamAligner&&) noexcept = default;

StreamStats StreamAligner::run(PairChunkSource& source, const ChunkSink& sink) {
  util::Timer timer;
  const int lanes = backend_->lanes();
  StreamStats stats;
  stats.lane_ms.assign(static_cast<std::size_t>(lanes), 0.0);

  // One ticket per in-flight chunk: the reader takes one before parsing,
  // the merger returns it after emitting — the pipeline-wide residency
  // bound, independent of where a chunk currently sits.
  const std::size_t budget = stream_.queue_capacity;
  util::BoundedQueue<char> tickets(budget);
  util::BoundedQueue<InChunk> input(budget);
  util::BoundedQueue<OutChunk> output(budget);

  std::mutex failure_mutex;
  std::exception_ptr failure;
  std::atomic<bool> aborted{false};
  auto record_failure = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = e;
    }
    aborted.store(true);
    // Unblock every stage: pending pushes fail, pops drain then stop.
    tickets.close();
    input.close();
    output.close();
  };

  std::atomic<std::size_t> resident_pairs{0};
  std::atomic<std::size_t> resident_chunks{0};
  std::atomic<std::size_t> peak_pairs{0};
  std::atomic<std::size_t> peak_chunks{0};

  std::thread reader([&] {
    try {
      std::size_t index = 0;
      std::size_t first_pair = 0;
      seq::PairBatch chunk;
      for (;;) {
        // Take the residency ticket BEFORE parsing, so even the chunk in
        // the reader's hands counts against the budget — never more than
        // `budget` chunks exist anywhere.
        if (!tickets.push(0)) return;  // pipeline shut down
        bool have = false;
        while (source.next(chunk)) {
          if (chunk.size() > 0) {
            have = true;
            break;
          }
        }
        if (!have) {
          input.close();  // end of stream: workers drain and stop
          return;
        }
        InChunk in;
        in.index = index++;
        in.first_pair = first_pair;
        first_pair += chunk.size();
        in.batch = std::move(chunk);
        chunk = seq::PairBatch{};
        raise_peak(peak_pairs, resident_pairs.fetch_add(in.batch.size()) + in.batch.size());
        raise_peak(peak_chunks, resident_chunks.fetch_add(1) + 1);
        if (!input.push(std::move(in))) return;
      }
    } catch (...) {
      record_failure(std::current_exception());
    }
  });

  // Align workers: a single worker consumes on the primary backend; with
  // several, every worker owns a replica.
  const std::size_t n_workers = stream_.align_threads;
  const std::vector<std::unique_ptr<AlignBackend>> replicas =
      make_worker_replicas(options_, n_workers);
  std::atomic<std::size_t> live_workers{n_workers};

  auto worker_loop = [&](AlignBackend* backend) {
    try {
      // A small per-worker scheduler cache: autotuned options oscillate
      // between a handful of configurations (chunk stats hover around the
      // skew threshold, the final partial chunk changes the cap), and
      // rebuilding a BatchScheduler would respawn its thread pool.
      ScheduleCache cache(backend);
      while (auto in = input.pop()) {
        if (aborted.load()) return;  // don't align chunks nobody will emit
        // Materialize the band policy into the chunk the worker owns (in
        // place — no copy): the autotuner then judges the banded workload
        // it will actually run, and the scheduler forwards the band channel
        // untouched. Chunks that already carry bands (a banded source
        // batch) win over the policy, and an explicit StreamOptions
        // schedule wins over the AlignerOptions knobs, exactly the shared
        // per-chunk rule (core/schedule_cache.hpp) the service batcher
        // applies — keeping streamed runs bit-identical to one-shot
        // Aligner::align with the same AlignerOptions.
        materialize_chunk_bands(in->batch, options_, stream_.schedule);
        SchedulerOptions wanted = resolve_chunk_schedule(
            in->batch, options_, stream_.schedule, stream_.autotune_schedule, *backend);
        OutChunk out;
        out.index = in->index;
        out.first_pair = in->first_pair;
        out.pairs = in->batch.size();
        out.output = cache.scheduler(wanted).run(in->batch);
        if (!output.push(std::move(out))) return;
      }
    } catch (...) {
      record_failure(std::current_exception());
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    AlignBackend* backend = replicas.empty() ? backend_.get() : replicas[w].get();
    workers.emplace_back([&, backend] {
      worker_loop(backend);
      if (live_workers.fetch_sub(1) == 1) output.close();  // last one out
    });
  }

  // Merger, on the caller's thread: restore input order (OrderedEmitter),
  // aggregate running stats, hand each chunk to the sink, release its
  // residency ticket.
  try {
    OrderedEmitter<OutChunk> emitter([&](std::size_t, OutChunk&& ready) {
      ++stats.chunks;
      stats.pairs += ready.pairs;
      stats.cells += ready.output.cells;
      stats.shards += ready.output.schedule.shards;
      stats.align_ms += ready.output.time_ms;
      stats.traceback_ms += ready.output.traceback_ms;
      stats.traceback_cells += ready.output.traceback_cells;
      SALOBA_CHECK_MSG(ready.output.schedule.lane_ms.size() == stats.lane_ms.size(),
                       "chunk ran on a backend with a different lane count");
      for (std::size_t l = 0; l < stats.lane_ms.size(); ++l) {
        stats.lane_ms[l] += ready.output.schedule.lane_ms[l];
      }
      if (sink) sink(ready.index, ready.first_pair, std::move(ready.output));
      resident_pairs.fetch_sub(ready.pairs);
      resident_chunks.fetch_sub(1);
      tickets.pop();  // free one in-flight slot for the reader
    });
    while (auto out = output.pop()) {
      std::size_t index = out->index;
      emitter.push(index, std::move(*out));
    }
  } catch (...) {
    record_failure(std::current_exception());
  }

  reader.join();
  for (auto& w : workers) w.join();
  if (failure) std::rethrow_exception(failure);

  stats.wall_ms = timer.millis();
  stats.gcups =
      stats.align_ms > 0 ? static_cast<double>(stats.cells) / (stats.align_ms * 1e6) : 0.0;
  stats.peak_resident_pairs = peak_pairs.load();
  stats.peak_resident_chunks = peak_chunks.load();
  return stats;
}

AlignOutput StreamAligner::align_streamed(const seq::PairBatch& batch) {
  ResidentChunkSource source(batch, stream_.chunk_pairs);
  AlignOutput total;
  total.results.resize(batch.size());
  StreamStats stats =
      run(source, [&](std::size_t, std::size_t first_pair, AlignOutput&& chunk) {
        place_span(total, first_pair, chunk.results, chunk.traced);
        merge_modeled(total, chunk);
      });

  total.cells = stats.cells;
  total.time_ms = stats.align_ms;
  total.gcups = stats.gcups;
  total.traceback_ms = stats.traceback_ms;
  total.traceback_cells = stats.traceback_cells;
  total.schedule.shards = stats.shards;
  total.schedule.lanes = backend_->lanes();
  total.schedule.lane_ms = stats.lane_ms;
  total.schedule.lane_weights = lane_weights(*backend_);
  total.schedule.makespan_ms = stats.align_ms;
  // Chunks serialize on the stream, so "makespan" here is the summed chunk
  // makespan; imbalance compares the all-lane mean against it (idle lanes
  // count — see ScheduleReport::imbalance).
  finalize_balance(total.schedule);
  return total;
}

}  // namespace saloba::core
