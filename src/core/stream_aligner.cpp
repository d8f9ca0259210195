#include "core/stream_aligner.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>

#include "core/align_service.hpp"
#include "util/bounded_queue.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace saloba::core {
namespace {

/// Moves items [at, at + count) of `from` onto the end of `into`.
template <typename T>
void move_append(std::vector<T>& into, std::vector<T>& from, std::size_t at, std::size_t count) {
  const auto first = from.begin() + static_cast<std::ptrdiff_t>(at);
  into.insert(into.end(), std::make_move_iterator(first),
              std::make_move_iterator(first + static_cast<std::ptrdiff_t>(count)));
}

/// One run(): the stream as the only session of a private AlignService.
/// Fills the chunk count and peak residency of `stats` and returns the
/// service's totals, which are the run's.
ServiceStats stream_session(const AlignerOptions& options, const StreamOptions& stream,
                            PairChunkSource& source, const ChunkSink& sink,
                            StreamStats& stats) {
  ServiceOptions svc;
  svc.batch_pairs = stream.chunk_pairs;
  // Room for every resident chunk, so submit() never blocks mid-chunk and
  // each merged batch is one source chunk.
  svc.max_queued_pairs_per_session = stream.chunk_pairs * stream.queue_capacity;
  svc.align_threads = stream.align_threads;
  AlignService service(options, svc);
  const SessionId id = service.open();

  // One ticket per resident chunk: the reader takes one before pulling a
  // chunk and this thread returns it after the sink. The service's caps
  // bound only queued pairs and batches, not results waiting to be polled,
  // so the tickets are what bound residency.
  util::BoundedQueue<char> tickets(stream.queue_capacity);
  std::mutex mutex;
  std::deque<std::size_t> resident;  ///< sizes of chunks pulled, not yet emitted
  std::size_t resident_pairs = 0;
  std::exception_ptr failure;
  auto fail = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!failure) failure = e;
    }
    tickets.close();     // a reader waiting for a ticket gives up
    service.cancel(id);  // a blocked submit returns false, poll returns nullopt
  };

  std::thread reader([&] {
    try {
      seq::PairBatch chunk;
      while (tickets.push(0)) {
        bool have = false;
        while (!have && source.next(chunk)) have = chunk.size() > 0;
        if (!have) {
          service.finish(id);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          resident.push_back(chunk.size());
          resident_pairs += chunk.size();
          stats.peak_resident_pairs = std::max(stats.peak_resident_pairs, resident_pairs);
          stats.peak_resident_chunks = std::max(stats.peak_resident_chunks, resident.size());
        }
        if (!service.submit(id, std::move(chunk))) return;  // cancelled by a failure
        chunk = seq::PairBatch{};
      }
    } catch (...) {
      fail(std::current_exception());
    }
  });

  // Spans arrive in input order but need not match chunks: reassemble the
  // front chunk from them, emit it once complete, and return its ticket.
  try {
    AlignOutput chunk;
    std::size_t first_pair = 0;
    while (auto span = service.poll(id)) {
      for (std::size_t at = 0; at < span->results.size();) {
        std::size_t size = 0;
        {
          std::lock_guard<std::mutex> lock(mutex);
          SALOBA_CHECK_MSG(!resident.empty(), "result for a chunk that was never pulled");
          size = resident.front();
        }
        const std::size_t take =
            std::min(size - chunk.results.size(), span->results.size() - at);
        move_append(chunk.results, span->results, at, take);
        if (!span->traced.empty()) move_append(chunk.traced, span->traced, at, take);
        at += take;
        if (chunk.results.size() < size) continue;
        if (sink) sink(stats.chunks, first_pair, std::move(chunk));
        chunk = AlignOutput{};
        ++stats.chunks;
        first_pair += size;
        {
          std::lock_guard<std::mutex> lock(mutex);
          resident.pop_front();
          resident_pairs -= size;
        }
        tickets.pop();
      }
    }
  } catch (...) {
    fail(std::current_exception());
  }

  reader.join();
  if (failure) std::rethrow_exception(failure);
  return service.stats();
}

}  // namespace

StreamAligner::StreamAligner(AlignerOptions options, StreamOptions stream)
    : options_(std::move(options)), stream_(stream) {
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
  StreamStats stats;
  ServiceStats totals = stream_session(options_, stream_, source, sink, stats);
  stats.pairs = totals.pairs;
  stats.cells = totals.cells;
  stats.shards = totals.schedule.shards;
  stats.align_ms = totals.align_ms;
  stats.gcups = totals.gcups;
  stats.traceback_ms = totals.traceback_ms;
  stats.traceback_cells = totals.traceback_cells;
  stats.lane_ms = std::move(totals.schedule.lane_ms);
  stats.wall_ms = timer.millis();
  return stats;
}

AlignOutput StreamAligner::align_streamed(const seq::PairBatch& batch) {
  ResidentChunkSource source(batch, stream_.chunk_pairs);
  AlignOutput total;
  total.results.resize(batch.size());
  StreamStats stats;
  ServiceStats totals = stream_session(
      options_, stream_, source,
      [&](std::size_t, std::size_t first_pair, AlignOutput&& chunk) {
        place_span(total, first_pair, chunk.results, chunk.traced);
      },
      stats);
  total.cells = totals.cells;
  total.time_ms = totals.align_ms;
  total.gcups = totals.gcups;
  total.traceback_ms = totals.traceback_ms;
  total.traceback_cells = totals.traceback_cells;
  total.kernel_stats = std::move(totals.kernel_stats);
  total.time_breakdown = std::move(totals.time_breakdown);
  total.schedule = std::move(totals.schedule);
  return total;
}

}  // namespace saloba::core
