// AlignService invariants: a session's results are bit-identical to running
// its pairs standalone through Aligner::align (continuous batching across
// tenants never changes scores, traces, or order), spans arrive in submit
// order, weighted fairness and strict priority govern who a merged batch
// serves, admission control blocks producers at the cap, cancellation frees
// queued work without stalling other tenants, and shutdown unblocks every
// waiter cleanly.
#include "core/align_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../support/test_support.hpp"
#include "core/aligner.hpp"
#include "kernels/kernel_iface.hpp"

namespace saloba::core {
namespace {

AlignerOptions sim_options() {
  AlignerOptions opts;
  opts.backend = Backend::kSimulated;
  opts.kernel = "saloba";
  opts.device = "gtx1650";
  return opts;
}

/// Drains a session, reassembling its spans into flat result/trace vectors
/// and asserting the spans arrive contiguous and in submit order.
struct Drained {
  std::vector<align::AlignmentResult> results;
  std::vector<align::TracedAlignment> traced;
};
Drained drain_session(AlignService& service, SessionId id) {
  Drained d;
  std::size_t expect_first = 0;
  while (auto span = service.poll(id)) {
    EXPECT_EQ(span->first_pair, expect_first);  // contiguous, in order
    expect_first += span->results.size();
    d.results.insert(d.results.end(), span->results.begin(), span->results.end());
    d.traced.insert(d.traced.end(), span->traced.begin(), span->traced.end());
  }
  return d;
}

TEST(AlignService, SessionsBitIdenticalToStandaloneCpu) {
  AlignerOptions opts;  // CPU
  auto batch_a = saloba::testing::imbalanced_batch(901, 57, 20, 300);
  auto batch_b = saloba::testing::related_batch(902, 43, 60, 90);
  auto expected_a = Aligner(opts).align(batch_a);
  auto expected_b = Aligner(opts).align(batch_b);

  ServiceOptions svc;
  svc.batch_pairs = 16;  // far smaller than either session: forces merging
  AlignService service(opts, svc);
  SessionId a = service.open();
  SessionId b = service.open();
  // Interleaved submission so merged batches mix both tenants.
  ASSERT_TRUE(service.submit(a, batch_a));
  ASSERT_TRUE(service.submit(b, batch_b));
  service.finish(a);
  service.finish(b);

  EXPECT_EQ(drain_session(service, a).results, expected_a.results);
  EXPECT_EQ(drain_session(service, b).results, expected_b.results);

  // Per-tenant attribution partitions the service aggregates.
  auto stats = service.stats();
  EXPECT_EQ(stats.pairs, batch_a.size() + batch_b.size());
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.gcups, 0.0);
  std::size_t session_cells = 0;
  double session_ms = 0.0;
  for (const auto& [id, ss] : stats.session_stats) {
    session_cells += ss.cells;
    session_ms += ss.align_ms;
    EXPECT_EQ(ss.completed_pairs, ss.submitted_pairs);
    EXPECT_GT(ss.p50_latency_ms, 0.0);
    EXPECT_GE(ss.p99_latency_ms, ss.p50_latency_ms);
  }
  EXPECT_EQ(session_cells, stats.cells);
  EXPECT_NEAR(session_ms, stats.align_ms, 1e-6 + 1e-9 * stats.align_ms);
}

TEST(AlignService, SessionsBitIdenticalToStandaloneSimBandedTraceback) {
  // The full two-phase banded path on the simulated device: every session's
  // scores AND traces must match its standalone run exactly, regardless of
  // how the batcher merged the three tenants.
  AlignerOptions opts = sim_options();
  opts.traceback = true;
  std::vector<seq::PairBatch> batches;
  batches.push_back(saloba::testing::imbalanced_batch(903, 31, 30, 400));
  batches.push_back(saloba::testing::related_batch(904, 25, 80, 120));
  batches.push_back(saloba::testing::imbalanced_batch(905, 19, 20, 200));
  for (seq::PairBatch& batch : batches) batch.default_band = 8;

  ServiceOptions svc;
  svc.batch_pairs = 8;
  svc.align_threads = 2;  // replicas, like StreamOptions::align_threads
  AlignService service(opts, svc);
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < batches.size(); ++s) ids.push_back(service.open());
  for (std::size_t s = 0; s < batches.size(); ++s) {
    ASSERT_TRUE(service.submit(ids[s], batches[s]));
    service.finish(ids[s]);
  }
  for (std::size_t s = 0; s < batches.size(); ++s) {
    auto expected = Aligner(opts).align(batches[s]);
    Drained got = drain_session(service, ids[s]);
    EXPECT_EQ(got.results, expected.results) << "session " << s;
    EXPECT_EQ(got.traced, expected.traced) << "session " << s;
  }
}

TEST(AlignService, MergedTenantsKeepTheirOwnBands) {
  // A tenant submitting a batch with its own per-pair bands (the seedext
  // job shape) must keep them through merging with a tenant banded by its
  // default_band — exactly its one-shot results.
  util::Xoshiro256 rng(906);
  seq::PairBatch banded;
  for (int i = 0; i < 24; ++i) {
    std::size_t len = 30 + rng.below(150);
    banded.add(saloba::testing::random_seq(rng, len),
               saloba::testing::random_seq(rng, len + rng.below(40)),
               i % 3 == 0 ? 0 : 1 + rng.below(16));
  }
  auto plain = saloba::testing::related_batch(907, 20, 50, 70);
  plain.default_band = 5;

  AlignerOptions opts;
  auto expected_banded = Aligner(opts).align(banded);
  auto expected_plain = Aligner(opts).align(plain);

  ServiceOptions svc;
  svc.batch_pairs = 8;
  AlignService service(opts, svc);
  SessionId sb = service.open();
  SessionId sp = service.open();
  ASSERT_TRUE(service.submit(sb, banded));
  ASSERT_TRUE(service.submit(sp, plain));
  service.finish(sb);
  service.finish(sp);
  EXPECT_EQ(drain_session(service, sb).results, expected_banded.results);
  EXPECT_EQ(drain_session(service, sp).results, expected_plain.results);
}

TEST(AlignService, AlignConvenienceMatchesAlignerOneShot) {
  AlignerOptions opts = sim_options();
  opts.traceback = true;
  auto batch = saloba::testing::imbalanced_batch(908, 37, 30, 350);
  auto expected = Aligner(opts).align(batch);

  ServiceOptions svc;
  svc.batch_pairs = 8;
  AlignService service(opts, svc);
  auto out = service.align(batch);
  EXPECT_EQ(out.results, expected.results);
  EXPECT_EQ(out.traced, expected.traced);
  EXPECT_GT(out.cells, 0u);
  EXPECT_GT(out.time_ms, 0.0);
  ASSERT_TRUE(out.time_breakdown.has_value());
  EXPECT_GT(out.time_breakdown->total_ms, 0.0);
}

TEST(AlignService, TracebackPhaseIsAttributedToTenants) {
  // align() and SessionStats carry the traceback phase: each merged batch's
  // traceback time and cells split by the tenant's cell share, like
  // align_ms. The SIMD engine's block height follows each cohort's longest
  // ref, so the service runs the batch as one merged batch — the direct
  // run's cohorts — and one tenant's total equals a direct Aligner's. The
  // host traces inside its score wave (traceback_ms stays 0), so the time
  // split is checked on a simulated device, which models the phase apart.
  for (const AlignerOptions& base : {AlignerOptions{}, sim_options()}) {
    AlignerOptions opts = base;
    opts.traceback = true;
    const bool host = opts.backend == Backend::kCpu;
    const std::string label = host ? "host" : "simulated";
    auto batch = saloba::testing::related_batch(997, 48, 90, 130);
    const AlignOutput direct = Aligner(opts).align(batch);
    ASSERT_GT(direct.traceback_cells, 0u) << label;
    if (!host) {
      ASSERT_GT(direct.traceback_ms, 0.0) << label;
    }

    ServiceOptions svc;
    svc.batch_pairs = batch.size();
    AlignService service(opts, svc);
    const AlignOutput out = service.align(batch);
    EXPECT_EQ(out.traced, direct.traced) << label;
    EXPECT_EQ(out.traceback_cells, direct.traceback_cells) << label;
    EXPECT_EQ(out.traceback_ms > 0.0, !host) << label;

    SessionId id = service.open();
    ASSERT_TRUE(service.submit(id, batch));
    service.finish(id);
    drain_session(service, id);
    const SessionStats st = service.session_stats(id);
    EXPECT_EQ(st.traceback_cells, direct.traceback_cells) << label;
    EXPECT_EQ(st.traceback_ms > 0.0, !host) << label;
  }
}

TEST(AlignService, ServiceTotalsMatchOneShot) {
  // One session aligned as one merged batch: the service totals are that
  // batch's AlignOutput figures — what StreamAligner::run and
  // align_streamed report. Uniform lengths keep the autotuned schedule at
  // one shard per lane, the one-shot Aligner's default.
  AlignerOptions opts = sim_options();
  opts.devices = 2;
  opts.traceback = true;
  auto batch = saloba::testing::related_batch(1003, 40, 90, 100);
  const AlignOutput direct = Aligner(opts).align(batch);

  ServiceOptions svc;
  svc.batch_pairs = batch.size();
  AlignService service(opts, svc);
  SessionId id = service.open();
  ASSERT_TRUE(service.submit(id, batch));
  service.finish(id);
  drain_session(service, id);
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.cells, direct.cells);
  EXPECT_EQ(st.traceback_cells, direct.traceback_cells);
  EXPECT_EQ(st.schedule.shards, direct.schedule.shards);
  EXPECT_EQ(st.schedule.lane_ms.size(), direct.schedule.lane_ms.size());
  ASSERT_TRUE(st.kernel_stats.has_value());
  ASSERT_TRUE(direct.kernel_stats.has_value());
  EXPECT_EQ(st.kernel_stats->totals.dp_cells, direct.kernel_stats->totals.dp_cells);
}

TEST(AlignService, EmptyBatchAndEmptySessionAreWellFormed) {
  AlignService service(AlignerOptions{});
  // A session that finishes without submitting drains immediately.
  SessionId id = service.open();
  service.finish(id);
  EXPECT_FALSE(service.poll(id).has_value());
  // align() on an empty batch: empty, zeroed, NaN-free.
  auto out = service.align(seq::PairBatch{});
  EXPECT_TRUE(out.results.empty());
  EXPECT_DOUBLE_EQ(out.gcups, 0.0);
  EXPECT_FALSE(out.gcups != out.gcups);  // not NaN
}

TEST(AlignService, ManyConcurrentClientThreadsAllBitIdentical) {
  // The multiplexing claim under real concurrency: 8 client threads, each
  // one tenant pushing its own workload through align(), all sharing one
  // continuously batched backend — every client sees exactly its standalone
  // results.
  AlignerOptions opts = sim_options();
  ServiceOptions svc;
  svc.batch_pairs = 16;
  svc.align_threads = 2;
  AlignService service(opts, svc);

  constexpr int kClients = 8;
  std::vector<seq::PairBatch> batches;
  std::vector<AlignOutput> expected;
  for (int c = 0; c < kClients; ++c) {
    batches.push_back(
        saloba::testing::imbalanced_batch(910 + static_cast<std::uint64_t>(c),
                                          20 + static_cast<std::size_t>(c) * 3, 20, 250));
    expected.push_back(Aligner(opts).align(batches.back()));
  }
  std::vector<AlignOutput> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SessionOptions sopts;
      sopts.weight = 1.0 + c % 3;  // mixed weights; results must not care
      got[static_cast<std::size_t>(c)] =
          service.align(batches[static_cast<std::size_t>(c)], sopts);
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[static_cast<std::size_t>(c)].results,
              expected[static_cast<std::size_t>(c)].results)
        << "client " << c;
  }
  auto stats = service.stats();
  EXPECT_EQ(stats.sessions, static_cast<std::size_t>(kClients));
  EXPECT_GT(stats.batches, 0u);
}

// Occupies the single worker and the single in-flight slot long enough for
// the test to stage deep backlogs: while the worker chews the blocker's
// first merged batch, the batcher sits blocked pushing the third, so pairs
// submitted meanwhile all queue up and later batches are built from the
// full picture — deterministic fairness, no sleeps.
SessionId submit_blocker(AlignService& service, std::size_t batch_pairs) {
  SessionId blocker = service.open();
  EXPECT_TRUE(service.submit(
      blocker, saloba::testing::related_batch(990, 3 * batch_pairs, 1200, 1200)));
  service.finish(blocker);
  return blocker;
}

TEST(AlignService, WeightedFairShareWithinPriorityClass) {
  AlignerOptions opts;  // CPU: real work, so batches take real time
  ServiceOptions svc;
  svc.batch_pairs = 16;
  svc.max_inflight_batches = 1;
  AlignService service(opts, svc);
  SessionId blocker = submit_blocker(service, svc.batch_pairs);

  constexpr std::size_t kN = 384;
  SessionOptions heavy_opts;
  heavy_opts.weight = 3.0;
  SessionId heavy = service.open(heavy_opts);
  SessionId light = service.open();  // weight 1
  auto heavy_batch = saloba::testing::related_batch(991, kN, 600, 600);
  auto light_batch = saloba::testing::related_batch(992, kN, 600, 600);
  ASSERT_TRUE(service.submit(heavy, heavy_batch));
  ASSERT_TRUE(service.submit(light, light_batch));
  service.finish(heavy);
  service.finish(light);

  // Drain the heavy session; at the moment its last span lands, the light
  // tenant — equal backlog, third the weight — should have completed about
  // a third as much (12:4 per 16-pair merged batch), far from the ~kN/2 an
  // unweighted split would show.
  Drained got = drain_session(service, heavy);
  auto light_now = service.session_stats(light);
  EXPECT_GE(light_now.completed_pairs, kN / 8);      // never starved
  EXPECT_LE(light_now.completed_pairs, 160u);        // ~kN/3 + batch slack
  EXPECT_GT(light_now.queued_pairs + light_now.inflight_pairs, 0u);

  EXPECT_EQ(got.results, Aligner(opts).align(heavy_batch).results);
  EXPECT_EQ(drain_session(service, light).results,
            Aligner(opts).align(light_batch).results);
  (void)blocker;
}

TEST(AlignService, HigherPriorityClassAlwaysBatchesFirst) {
  AlignerOptions opts;  // CPU
  ServiceOptions svc;
  svc.batch_pairs = 16;
  svc.max_inflight_batches = 1;
  AlignService service(opts, svc);
  submit_blocker(service, svc.batch_pairs);

  constexpr std::size_t kN = 192;
  SessionOptions urgent_opts;
  urgent_opts.priority = 1;
  SessionId urgent = service.open(urgent_opts);
  SessionId background = service.open();  // priority 0, same weight
  auto urgent_batch = saloba::testing::related_batch(993, kN, 500, 500);
  auto background_batch = saloba::testing::related_batch(994, kN, 500, 500);
  ASSERT_TRUE(service.submit(urgent, urgent_batch));
  ASSERT_TRUE(service.submit(background, background_batch));
  service.finish(urgent);
  service.finish(background);

  // Strict classes: while the urgent backlog exists, merged batches carry
  // no background pairs (bar the final partial batch topped up after the
  // urgent queue drained). Equal priority would interleave ~kN/2.
  Drained got = drain_session(service, urgent);
  auto bg_now = service.session_stats(background);
  EXPECT_LE(bg_now.completed_pairs, 4 * svc.batch_pairs);
  EXPECT_GT(bg_now.queued_pairs + bg_now.inflight_pairs, 0u);

  EXPECT_EQ(got.results, Aligner(opts).align(urgent_batch).results);
  EXPECT_EQ(drain_session(service, background).results,
            Aligner(opts).align(background_batch).results);
}

TEST(AlignService, TenantPhaseTimesStayWithinTheirShare) {
  // A tenant's modeled breakdown is its cell-share slice of every merged
  // batch it rode in, with every phase scaled alike: a tenant that submitted
  // only short pairs must not be charged the X-drop time of the long pairs it
  // shared batches with.
  AlignerOptions opts = sim_options();
  opts.longread_threshold = 1500;  // the blocker's 1200 bp pairs stay on the kernel
  opts.traceback = true;
  ServiceOptions svc;
  svc.batch_pairs = 16;
  svc.max_inflight_batches = 1;
  AlignService service(opts, svc);
  SessionId blocker = submit_blocker(service, svc.batch_pairs);

  // Both backlogs queue while the blocker holds the worker, so the merged
  // batches after it mix routed long pairs with short ones.
  SessionId long_tenant = service.open();
  SessionId short_tenant = service.open();
  ASSERT_TRUE(service.submit(long_tenant, saloba::testing::related_batch(995, 24, 2000, 2000)));
  ASSERT_TRUE(service.submit(short_tenant, saloba::testing::related_batch(996, 24, 100, 100)));
  service.finish(long_tenant);
  service.finish(short_tenant);
  for (SessionId id : {blocker, long_tenant, short_tenant}) drain_session(service, id);

  for (SessionId id : {blocker, long_tenant, short_tenant}) {
    const SessionStats st = service.session_stats(id);
    ASSERT_TRUE(st.time_breakdown.has_value()) << "session " << id;
    for (gpusim::Phase p : gpusim::kPhases) {
      EXPECT_LE(st.time_breakdown->phase_ms[p], st.time_breakdown->total_ms)
          << "session " << id << ", phase " << gpusim::phase_name(p);
    }
  }
  const auto long_time = *service.session_stats(long_tenant).time_breakdown;
  EXPECT_GT(long_time.phase_ms[gpusim::Phase::kXdrop], 0.0);
  EXPECT_GT(long_time.phase_ms[gpusim::Phase::kTraceback], 0.0);
}

TEST(AlignService, AdmissionCapBoundsQueueAndBlocksProducer) {
  AlignerOptions opts;  // CPU
  ServiceOptions svc;
  svc.batch_pairs = 8;
  AlignService service(opts, svc);
  SessionOptions sopts;
  sopts.max_queued_pairs = 16;  // tight per-session cap
  SessionId id = service.open(sopts);

  auto batch = saloba::testing::related_batch(995, 200, 60, 80);
  auto expected = Aligner(opts).align(batch);
  std::thread producer([&] {
    ASSERT_TRUE(service.submit(id, batch));  // blocks at the cap repeatedly
    service.finish(id);
  });
  Drained got = drain_session(service, id);
  producer.join();

  EXPECT_EQ(got.results, expected.results);
  auto stats = service.session_stats(id);
  EXPECT_EQ(stats.completed_pairs, batch.size());
  // The whole point: 200 pairs flowed through, but never more than the cap
  // were admitted-and-waiting at once.
  EXPECT_LE(stats.peak_queued_pairs, 16u);
}

TEST(AlignService, CancelFreesQueuedWorkWithoutStallingOtherTenants) {
  AlignerOptions opts;  // CPU
  ServiceOptions svc;
  svc.batch_pairs = 16;
  svc.max_inflight_batches = 1;
  AlignService service(opts, svc);
  SessionId blocker = submit_blocker(service, svc.batch_pairs);

  // Victim: a small admission cap and a big backlog, so its producer is
  // parked mid-submit while the worker is still busy with the blocker.
  SessionOptions victim_opts;
  victim_opts.max_queued_pairs = 32;
  SessionId victim = service.open(victim_opts);
  std::atomic<bool> victim_submit_result{true};
  std::thread victim_producer([&] {
    victim_submit_result =
        service.submit(victim, saloba::testing::related_batch(996, 128, 80, 100));
  });
  SessionId survivor = service.open();
  auto survivor_batch = saloba::testing::related_batch(997, 48, 80, 100);
  ASSERT_TRUE(service.submit(survivor, survivor_batch));
  service.finish(survivor);

  // Give the victim producer time to hit its cap, then cancel: the blocked
  // submit must return false, queued work is freed, and the survivor's
  // stream completes untouched.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.cancel(victim);
  victim_producer.join();
  EXPECT_FALSE(victim_submit_result.load());
  EXPECT_FALSE(service.poll(victim).has_value());  // no results, no block

  EXPECT_EQ(drain_session(service, survivor).results,
            Aligner(opts).align(survivor_batch).results);
  auto vstats = service.session_stats(victim);
  EXPECT_TRUE(vstats.cancelled);
  EXPECT_GT(vstats.cancelled_pairs, 0u);
  EXPECT_EQ(vstats.queued_pairs, 0u);
  service.cancel(victim);  // idempotent
  // The blocker tenant is untouched by the cancellation too.
  drain_session(service, blocker);
  EXPECT_EQ(service.session_stats(blocker).completed_pairs, 3 * svc.batch_pairs);
}

TEST(AlignService, StopUnblocksProducersAndPollers) {
  AlignerOptions opts;  // CPU
  ServiceOptions svc;
  svc.batch_pairs = 16;
  svc.max_inflight_batches = 1;
  AlignService service(opts, svc);
  submit_blocker(service, svc.batch_pairs);

  SessionOptions sopts;
  sopts.max_queued_pairs = 8;
  SessionId id = service.open(sopts);
  std::atomic<bool> submit_result{true};
  std::thread producer([&] {
    submit_result = service.submit(id, saloba::testing::related_batch(998, 100, 80, 100));
  });
  SessionId idle = service.open();  // never finished: poll would block forever
  std::atomic<bool> poll_result{true};
  std::thread poller([&] { poll_result = service.poll(idle).has_value(); });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.stop();  // must wake both; destructor would do the same
  producer.join();
  poller.join();
  EXPECT_FALSE(submit_result.load());
  EXPECT_FALSE(poll_result.load());
}

TEST(AlignService, AlignOnStoppedServiceThrows) {
  AlignService service(AlignerOptions{});
  service.stop();
  EXPECT_THROW(service.align(saloba::testing::related_batch(1001, 4, 40, 50)),
               std::runtime_error);
}

TEST(AlignService, StopRacingAlignNeverAborts) {
  // A client's align() queued behind the blocker when an operator stops the
  // service: the client either gets every result or a std::runtime_error,
  // and the process lives on.
  AlignerOptions opts;  // CPU
  ServiceOptions svc;
  svc.batch_pairs = 16;
  svc.max_inflight_batches = 1;
  AlignService service(opts, svc);
  submit_blocker(service, svc.batch_pairs);

  const auto batch = saloba::testing::related_batch(1002, 40, 80, 100);
  AlignOutput got;
  bool threw = false;
  std::thread client([&] {
    try {
      got = service.align(batch);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.stop();
  client.join();
  if (!threw) {
    EXPECT_EQ(got.results, Aligner(opts).align(batch).results);
  }
}

TEST(AlignService, BackendFailureReachesEveryCaller) {
  // The simulated ADEPT kernel rejects pairs over 1,024 bp. Its error must
  // reach the failing session's poll and another session's submit and
  // poll, and stop() must still join every thread.
  AlignerOptions opts = sim_options();
  opts.kernel = "adept";
  AlignService service(opts);
  SessionId failing = service.open();
  SessionId other = service.open();
  ASSERT_TRUE(service.submit(failing, saloba::testing::related_batch(1004, 1, 1030, 1030)));
  service.finish(failing);
  EXPECT_THROW(service.poll(failing), kernels::KernelUnsupportedError);
  EXPECT_THROW(service.submit(other, saloba::testing::related_batch(1005, 4, 60, 80)),
               kernels::KernelUnsupportedError);
  EXPECT_THROW(service.poll(other), kernels::KernelUnsupportedError);
  service.stop();
}

TEST(AlignService, OpenRejectsBadWeightsAndKeepsServing) {
  // A bad weight is one tenant's input error: open() throws instead of
  // aborting the process (0, -1, NaN) or turning the fair-share targets
  // into NaN (+inf), and the service keeps serving valid sessions.
  AlignerOptions opts;  // CPU
  AlignService service(opts);
  for (double weight : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
    SessionOptions sopts;
    sopts.weight = weight;
    EXPECT_THROW(service.open(sopts), std::invalid_argument) << "weight " << weight;
  }
  auto batch = saloba::testing::related_batch(1006, 24, 60, 80);
  EXPECT_EQ(service.align(batch).results, Aligner(opts).align(batch).results);
}

TEST(AlignService, SubmitAfterFinishThrowsAndOtherTenantsDrain) {
  // One tenant's misuse is its own input error: submit() after finish()
  // throws naming the session instead of aborting the process, and a second
  // tenant's session still drains bit-identically.
  AlignerOptions opts;  // CPU
  AlignService service(opts);
  const SessionId done = service.open();
  const SessionId other = service.open();
  auto batch = saloba::testing::related_batch(999, 24, 60, 80);
  ASSERT_TRUE(service.submit(other, batch));
  service.finish(done);
  try {
    service.submit(done, saloba::testing::related_batch(998, 2, 20, 20));
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("after finish()"), std::string::npos) << msg;
    EXPECT_NE(msg.find("session " + std::to_string(done)), std::string::npos) << msg;
  }
  service.finish(other);
  EXPECT_EQ(drain_session(service, other).results, Aligner(opts).align(batch).results);
  EXPECT_FALSE(service.poll(done).has_value());
}

TEST(AlignService, UnknownSessionThrows) {
  AlignService service(AlignerOptions{});
  EXPECT_THROW(service.session_stats(77), std::invalid_argument);
  EXPECT_THROW(service.poll(77), std::invalid_argument);
  EXPECT_THROW(service.submit(77, seq::PairBatch{}), std::invalid_argument);
}

}  // namespace
}  // namespace saloba::core
