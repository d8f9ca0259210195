#include "core/align_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/backend.hpp"
#include "core/ordered_emitter.hpp"
#include "core/schedule_cache.hpp"
#include "util/bounded_queue.hpp"
#include "util/cancel_token.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace saloba::core {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One admitted pair waiting in a session queue. Bands are resolved at
/// admission (submit materializes the AlignerOptions policy), so the
/// batcher can merge pairs from differently-banded tenants verbatim.
struct PendingPair {
  std::vector<seq::BaseCode> query;
  std::vector<seq::BaseCode> ref;
  std::size_t band = 0;
  Clock::time_point admitted;
};

/// A contiguous span one session contributed to a merged batch.
struct Segment {
  SessionId session = 0;
  std::size_t seq = 0;         ///< per-session segment sequence (emitter index)
  std::size_t first_pair = 0;  ///< session-stream index of the span's pair 0
  std::size_t offset = 0;      ///< offset into the merged batch
  std::size_t count = 0;
};

/// What travels batcher → align worker.
struct MergedBatch {
  seq::PairBatch batch;
  std::vector<Segment> segments;
  std::vector<Clock::time_point> admitted;  ///< parallel to batch pairs
};

/// What the worker hands a session's ordered emitter.
struct DeliveredSegment {
  std::size_t first_pair = 0;
  std::vector<align::AlignmentResult> results;
  std::vector<align::TracedAlignment> traced;
};

struct Session {
  SessionId id = 0;
  SessionOptions opts;
  std::deque<PendingPair> queue;
  std::size_t submitted = 0;        ///< pairs admitted
  std::size_t taken = 0;            ///< pairs moved into merged batches
  std::size_t completed = 0;        ///< pairs delivered to the ready channel
  std::size_t cancelled_pairs = 0;  ///< queued or in-flight pairs dropped
  std::size_t peak_queued = 0;
  std::size_t inflight = 0;  ///< taken, not yet delivered or dropped
  std::size_t next_seq = 0;  ///< segment sequence for spans the batcher takes
  /// Reorders out-of-order merged-batch completions back into submit order.
  std::unique_ptr<OrderedEmitter<DeliveredSegment>> emitter;
  std::deque<SessionResult> ready;
  std::vector<double> latencies_ms;  ///< submit-to-delivery, one per pair
  std::size_t batches = 0;
  double align_ms = 0.0;
  std::size_t cells = 0;
  double traceback_ms = 0.0;
  std::size_t traceback_cells = 0;
  std::optional<gpusim::TimeBreakdown> breakdown;
  bool cancelled = false;
  bool finished = false;
  std::condition_variable admit_cv;  ///< submit() backpressure
  std::condition_variable ready_cv;  ///< poll() wakeups
};

}  // namespace

struct AlignService::Impl {
  const AlignerOptions& options;  ///< owned by the enclosing AlignService
  const ServiceOptions& service;

  std::unique_ptr<AlignBackend> primary;
  std::vector<std::unique_ptr<AlignBackend>> replicas;  ///< empty: one worker on primary

  mutable std::mutex mutex;
  std::condition_variable work_cv;  ///< wakes the batcher
  std::map<SessionId, std::unique_ptr<Session>> sessions;
  SessionId next_id = 1;
  std::size_t total_queued = 0;
  std::size_t rr_shift = 0;  ///< rotates remainder bias across tenants
  bool stopping = false;
  std::exception_ptr failure;

  // Service-wide aggregates (guarded by mutex).
  std::size_t batches = 0;
  std::size_t delivered_pairs = 0;
  std::size_t cells = 0;
  double align_ms = 0.0;
  double batch_wall_ms = 0.0;

  util::BoundedQueue<MergedBatch> inflight;
  util::CancelToken cancel_all;

  std::thread batcher;
  std::vector<std::thread> workers;
  std::once_flag join_once;

  Impl(const AlignerOptions& opts, const ServiceOptions& svc)
      : options(opts),
        service(svc),
        inflight(std::max<std::size_t>(1, svc.max_inflight_batches)) {
    primary = make_backend(options);
    const std::size_t n_workers = std::max<std::size_t>(1, service.align_threads);
    replicas = make_worker_replicas(options, n_workers);
    batcher = std::thread([this] { batcher_loop(); });
    workers.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      AlignBackend* backend = replicas.empty() ? primary.get() : replicas[w].get();
      workers.emplace_back([this, backend] { worker_loop(backend); });
    }
  }

  Session& session_ref(SessionId id) {
    auto it = sessions.find(id);
    if (it == sessions.end()) {
      throw std::invalid_argument("unknown session id " + std::to_string(id));
    }
    return *it->second;
  }

  bool drained(const Session& s) const {
    return s.finished && s.queue.empty() && s.inflight == 0 && s.ready.empty();
  }

  /// Moves `n` pairs off the session queue onto the merged batch as one
  /// ordered segment, and releases that much admission headroom.
  void take_from(Session& s, std::size_t n, MergedBatch& mb) {
    Segment seg;
    seg.session = s.id;
    seg.seq = s.next_seq++;
    seg.first_pair = s.taken;
    seg.offset = mb.batch.size();
    seg.count = n;
    for (std::size_t i = 0; i < n; ++i) {
      PendingPair p = std::move(s.queue.front());
      s.queue.pop_front();
      mb.batch.add(std::move(p.query), std::move(p.ref), p.band);
      mb.admitted.push_back(p.admitted);
    }
    s.taken += n;
    s.inflight += n;
    total_queued -= n;
    mb.segments.push_back(seg);
    s.admit_cv.notify_all();
  }

  /// The continuous-batching top-up rule, under the service lock: serve the
  /// highest priority class that has queued work; within it, grant each
  /// tenant capacity proportional to its weight (minimum 1 pair, so a tiny
  /// weight can never starve outright); spill unused grants to the next
  /// class only when the higher one ran dry. Repeats until the batch is
  /// full or no queued work remains.
  void build_batch(MergedBatch& mb) {
    const std::size_t cap = std::max<std::size_t>(1, service.batch_pairs);
    while (mb.batch.size() < cap && total_queued > 0) {
      int best_prio = std::numeric_limits<int>::min();
      for (auto& [id, s] : sessions) {
        if (!s->cancelled && !s->queue.empty()) {
          best_prio = std::max(best_prio, s->opts.priority);
        }
      }
      if (best_prio == std::numeric_limits<int>::min()) break;
      std::vector<Session*> cands;
      double wsum = 0.0;
      for (auto& [id, s] : sessions) {
        if (!s->cancelled && !s->queue.empty() && s->opts.priority == best_prio) {
          cands.push_back(s.get());
          wsum += s->opts.weight;
        }
      }
      // Rotate the grant order so clamping at a full batch does not keep
      // shortchanging the same (map-order-last) tenant.
      std::rotate(cands.begin(),
                  cands.begin() + static_cast<std::ptrdiff_t>(rr_shift++ % cands.size()),
                  cands.end());
      const std::size_t remaining = cap - mb.batch.size();
      bool progress = false;
      for (Session* s : cands) {
        std::size_t room = cap - mb.batch.size();
        if (room == 0) break;
        auto target = static_cast<std::size_t>(std::llround(
            static_cast<double>(remaining) * s->opts.weight / wsum));
        if (target < 1) target = 1;
        std::size_t take = std::min({target, s->queue.size(), room});
        if (take == 0) continue;
        take_from(*s, take, mb);
        progress = true;
      }
      if (!progress) break;
    }
  }

  void batcher_loop() {
    for (;;) {
      MergedBatch mb;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stopping || total_queued > 0; });
        if (stopping) return;
        build_batch(mb);
      }
      if (mb.batch.size() == 0) continue;  // raced with a cancel
      // Blocking at the global in-flight cap IS the service's backpressure
      // spine: queued work stops draining, so producers stall at their
      // admission caps instead of growing memory.
      if (!inflight.push(std::move(mb))) return;  // closed: stopping
    }
  }

  /// Demultiplexes one aligned merged batch back to its tenants' ordered
  /// channels, attributing time by in-band DP-cell share. Under the lock.
  void deliver(MergedBatch& mb, AlignOutput&& out) {
    const Clock::time_point now = Clock::now();
    batches += 1;
    cells += out.cells;
    align_ms += out.time_ms;
    double total_cells = 0.0;
    for (std::size_t i = 0; i < mb.batch.size(); ++i) {
      total_cells += static_cast<double>(mb.batch.cells_of(i));
    }
    for (const Segment& seg : mb.segments) {
      auto it = sessions.find(seg.session);
      SALOBA_CHECK_MSG(it != sessions.end(), "segment for unknown session");
      Session& s = *it->second;
      s.inflight -= seg.count;
      if (s.cancelled) {
        s.cancelled_pairs += seg.count;  // ran, but nobody is listening
        continue;
      }
      DeliveredSegment d;
      d.first_pair = seg.first_pair;
      d.results.assign(out.results.begin() + static_cast<std::ptrdiff_t>(seg.offset),
                       out.results.begin() + static_cast<std::ptrdiff_t>(seg.offset + seg.count));
      if (!out.traced.empty()) {
        d.traced.assign(out.traced.begin() + static_cast<std::ptrdiff_t>(seg.offset),
                        out.traced.begin() + static_cast<std::ptrdiff_t>(seg.offset + seg.count));
      }
      double seg_cells = 0.0;
      for (std::size_t i = seg.offset; i < seg.offset + seg.count; ++i) {
        seg_cells += static_cast<double>(mb.batch.cells_of(i));
        s.latencies_ms.push_back(ms_between(mb.admitted[i], now));
      }
      const double share = total_cells > 0.0
                               ? seg_cells / total_cells
                               : static_cast<double>(seg.count) /
                                     static_cast<double>(mb.batch.size());
      s.align_ms += out.time_ms * share;
      s.cells += static_cast<std::size_t>(std::llround(seg_cells));
      s.traceback_ms += out.traceback_ms * share;
      s.traceback_cells +=
          static_cast<std::size_t>(std::llround(static_cast<double>(out.traceback_cells) * share));
      s.batches += 1;
      if (out.time_breakdown) {
        if (!s.breakdown) s.breakdown.emplace();
        s.breakdown->merge(out.time_breakdown->scaled(share));
      }
      delivered_pairs += seg.count;
      s.emitter->push(seg.seq, std::move(d));
      s.ready_cv.notify_all();
    }
  }

  void worker_loop(AlignBackend* backend) {
    try {
      ScheduleCache cache(backend);
      // Cancel-aware pop: service shutdown must wake a worker parked on an
      // empty in-flight queue immediately, abandoned batches and all.
      while (auto mb = inflight.pop(cancel_all)) {
        util::Timer timer;
        // Bands were materialized at admission; only the schedule is
        // resolved per merged batch (the shared per-chunk rule, minus the
        // band step — a merged batch always carries final bands).
        SchedulerOptions wanted = resolve_chunk_schedule(
            mb->batch, options, std::nullopt, service.autotune_schedule, *backend);
        AlignOutput out = cache.scheduler(wanted).run(mb->batch);
        double wall = timer.millis();
        std::lock_guard<std::mutex> lock(mutex);
        if (stopping) return;
        batch_wall_ms += wall;
        deliver(*mb, std::move(out));
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!failure) failure = std::current_exception();
        stopping = true;
      }
      wake_everyone();
    }
  }

  /// Unblocks every waiter: producers, pollers, the batcher, and workers.
  void wake_everyone() {
    inflight.close();
    cancel_all.cancel();
    work_cv.notify_all();
    std::lock_guard<std::mutex> lock(mutex);
    for (auto& [id, s] : sessions) {
      s->admit_cv.notify_all();
      s->ready_cv.notify_all();
    }
  }

  void fill_stats(const Session& s, SessionStats& st) const {
    st.submitted_pairs = s.submitted;
    st.completed_pairs = s.completed;
    st.cancelled_pairs = s.cancelled_pairs;
    st.queued_pairs = s.queue.size();
    st.peak_queued_pairs = s.peak_queued;
    st.inflight_pairs = s.inflight;
    st.batches = s.batches;
    st.align_ms = s.align_ms;
    st.cells = s.cells;
    st.traceback_ms = s.traceback_ms;
    st.traceback_cells = s.traceback_cells;
    st.p50_latency_ms = util::percentile_nearest_rank(s.latencies_ms, 50.0);
    st.p99_latency_ms = util::percentile_nearest_rank(s.latencies_ms, 99.0);
    st.time_breakdown = s.breakdown;
    st.weight = s.opts.weight;
    st.priority = s.opts.priority;
    st.cancelled = s.cancelled;
    st.finished = s.finished;
  }
};

AlignService::AlignService(AlignerOptions options, ServiceOptions service)
    : options_(std::move(options)), service_(service) {
  SALOBA_CHECK_MSG(options_.scoring.valid(), "invalid scoring scheme");
  if (service_.batch_pairs < 1) service_.batch_pairs = 1;
  if (service_.max_queued_pairs_per_session < 1) service_.max_queued_pairs_per_session = 1;
  if (service_.max_inflight_batches < 1) service_.max_inflight_batches = 1;
  if (service_.align_threads < 1) service_.align_threads = 1;
  impl_ = std::make_unique<Impl>(options_, service_);
}

AlignService::~AlignService() { stop(); }

SessionId AlignService::open(SessionOptions opts) {
  SALOBA_CHECK_MSG(opts.weight > 0.0, "session weight must be > 0, got " << opts.weight);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->stopping) throw std::runtime_error("open() on a stopped AlignService");
  SessionId id = impl_->next_id++;
  auto session = std::make_unique<Session>();
  session->id = id;
  session->opts = opts;
  Session* raw = session.get();
  // The emitter's sink appends each in-order segment to the session's ready
  // channel; everything runs under the service lock, so plain writes are
  // safe. Sessions are never erased, so the raw pointer stays valid.
  session->emitter = std::make_unique<OrderedEmitter<DeliveredSegment>>(
      [raw](std::size_t, DeliveredSegment&& seg) {
        raw->completed += seg.results.size();
        SessionResult r;
        r.first_pair = seg.first_pair;
        r.results = std::move(seg.results);
        r.traced = std::move(seg.traced);
        raw->ready.push_back(std::move(r));
      });
  impl_->sessions.emplace(id, std::move(session));
  return id;
}

bool AlignService::submit(SessionId id, seq::PairBatch pairs) {
  // Resolve the band policy now (a batch's own band channel wins, exactly
  // the one-shot rule), so merged batches carry final per-pair bands.
  materialize_bands(pairs, options_.band_policy());
  std::unique_lock<std::mutex> lock(impl_->mutex);
  if (impl_->failure) std::rethrow_exception(impl_->failure);
  Session& s = impl_->session_ref(id);
  SALOBA_CHECK_MSG(!s.finished, "submit() after finish() on session " << id);
  const std::size_t cap = s.opts.max_queued_pairs > 0
                              ? s.opts.max_queued_pairs
                              : service_.max_queued_pairs_per_session;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // Admission control: block per pair until the batcher frees headroom.
    s.admit_cv.wait(lock, [&] {
      return impl_->stopping || s.cancelled || s.queue.size() < cap;
    });
    if (impl_->stopping || s.cancelled) return false;
    PendingPair p;
    p.band = pairs.band_of(i);
    p.query = std::move(pairs.queries[i]);
    p.ref = std::move(pairs.refs[i]);
    p.admitted = Clock::now();
    s.queue.push_back(std::move(p));
    s.submitted += 1;
    s.peak_queued = std::max(s.peak_queued, s.queue.size());
    impl_->total_queued += 1;
    impl_->work_cv.notify_one();
  }
  return true;
}

void AlignService::finish(SessionId id) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Session& s = impl_->session_ref(id);
  s.finished = true;
  s.ready_cv.notify_all();  // a poller may now observe "drained"
}

std::optional<SessionResult> AlignService::poll(SessionId id) {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  Session& s = impl_->session_ref(id);
  s.ready_cv.wait(lock, [&] {
    return impl_->failure || impl_->stopping || s.cancelled || !s.ready.empty() ||
           impl_->drained(s);
  });
  if (impl_->failure) std::rethrow_exception(impl_->failure);
  if (!s.ready.empty()) {
    SessionResult r = std::move(s.ready.front());
    s.ready.pop_front();
    return r;
  }
  return std::nullopt;  // cancelled, drained, or service stopped
}

void AlignService::cancel(SessionId id) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->sessions.find(id);
  if (it == impl_->sessions.end()) return;
  Session& s = *it->second;
  if (s.cancelled) return;
  s.cancelled = true;
  s.cancelled_pairs += s.queue.size();
  impl_->total_queued -= s.queue.size();
  s.queue.clear();
  s.ready.clear();  // cancellation discards undelivered results too
  s.admit_cv.notify_all();
  s.ready_cv.notify_all();
}

AlignOutput AlignService::align(const seq::PairBatch& batch, SessionOptions opts) {
  SessionId id = open(opts);
  bool admitted = submit(id, batch);  // copies: the caller keeps the batch
  finish(id);
  AlignOutput out;
  out.results.resize(batch.size());
  std::size_t received = 0;
  while (auto span = poll(id)) {
    place_span(out, span->first_pair, span->results, span->traced);
    received += span->results.size();
  }
  if (!admitted || received != batch.size()) {
    throw std::runtime_error("service stopped before align() completed (" +
                             std::to_string(received) + "/" + std::to_string(batch.size()) +
                             " pairs)");
  }
  SessionStats st = session_stats(id);
  out.cells = st.cells;
  out.time_ms = st.align_ms;
  out.gcups = st.align_ms > 0 ? static_cast<double>(st.cells) / (st.align_ms * 1e6) : 0.0;
  out.time_breakdown = st.time_breakdown;
  out.traceback_ms = st.traceback_ms;
  out.traceback_cells = st.traceback_cells;
  return out;
}

SessionStats AlignService::session_stats(SessionId id) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  SessionStats st;
  auto it = impl_->sessions.find(id);
  if (it == impl_->sessions.end()) {
    throw std::invalid_argument("unknown session id " + std::to_string(id));
  }
  impl_->fill_stats(*it->second, st);
  return st;
}

ServiceStats AlignService::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  ServiceStats st;
  st.sessions = impl_->sessions.size();
  st.batches = impl_->batches;
  st.pairs = impl_->delivered_pairs;
  st.cells = impl_->cells;
  st.align_ms = impl_->align_ms;
  st.gcups = impl_->align_ms > 0
                 ? static_cast<double>(impl_->cells) / (impl_->align_ms * 1e6)
                 : 0.0;
  st.batch_wall_ms = impl_->batch_wall_ms;
  st.session_stats.reserve(impl_->sessions.size());
  for (auto& [id, s] : impl_->sessions) {
    SessionStats ss;
    impl_->fill_stats(*s, ss);
    st.session_stats.emplace_back(id, std::move(ss));
  }
  return st;
}

void AlignService::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake_everyone();
  std::call_once(impl_->join_once, [this] {
    impl_->batcher.join();
    for (auto& w : impl_->workers) w.join();
  });
}

}  // namespace saloba::core
