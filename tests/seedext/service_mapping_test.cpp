// Service-backed read mapping: ReadMapper::map_batch with extenders that
// route the extension (and traceback) phases through one tenant of a shared
// core::AlignService. Mappings — and the SAM bytes downstream — must be
// identical to the private-Aligner map_batch paths over the same reads,
// alone or with other tenants hammering the same service concurrently.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/align_service.hpp"
#include "core/aligner.hpp"
#include "seedext/pipeline.hpp"
#include "seedext/sam_output.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "seq/sam.hpp"

namespace saloba::seedext {
namespace {

struct Fixture {
  std::vector<seq::BaseCode> genome;
  std::unique_ptr<ReadMapper> mapper;
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;

  explicit Fixture(std::uint64_t seed = 7, std::size_t n_reads = 50) {
    seq::GenomeParams gp;
    gp.length = 100000;
    gp.n_fraction = 0.0;
    gp.repeat_fraction = 0.05;
    genome = seq::generate_genome(gp);
    mapper = std::make_unique<ReadMapper>(genome, MapperParams{});

    seq::ReadProfile profile = seq::ReadProfile::equal_length(110);
    profile.mutation_rate = 0.01;
    profile.error_rate = 0.005;
    seq::ReadSimulator sim(genome, profile, seed);
    for (auto& r : sim.simulate(n_reads)) reads.push_back(r.read);
    for (const auto& r : reads) read_seqs.push_back(r.bases);
  }

  /// map_batch as one tenant of `service`: every extend or trace call is one
  /// AlignService::align session; the traceback stage runs only when the
  /// service traces.
  std::vector<ReadMapping> map_via(core::AlignService& service,
                                   core::SessionOptions session = {},
                                   MapStats* stats = nullptr) const {
    BatchExtender extend = [&](const seq::PairBatch& batch) {
      return service.align(batch, session).results;
    };
    TracedBatchExtender trace;
    if (service.options().traceback) {
      trace = [&](const seq::PairBatch& batch) {
        return std::move(service.align(batch, session).traced);
      };
    }
    return mapper->map_batch(read_seqs, extend, trace, stats);
  }

  std::string sam_of(const std::vector<ReadMapping>& mappings) const {
    seq::SamHeader h;
    h.reference_name = "chrT";
    h.reference_length = genome.size();
    std::ostringstream out;
    seq::SamWriter writer(out, h);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      writer.write(to_sam_record(*mapper, reads[i], mappings[i], "chrT"));
    }
    return out.str();
  }
};

void expect_same_mappings(const std::vector<ReadMapping>& got,
                          const std::vector<ReadMapping>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].mapped, want[i].mapped) << "read " << i;
    EXPECT_EQ(got[i].ref_pos, want[i].ref_pos) << "read " << i;
    EXPECT_EQ(got[i].reverse_strand, want[i].reverse_strand) << "read " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "read " << i;
    EXPECT_EQ(got[i].has_traceback, want[i].has_traceback) << "read " << i;
    if (got[i].has_traceback) {
      EXPECT_EQ(got[i].traced, want[i].traced) << "read " << i;
    }
  }
}

TEST(ServiceMapping, MapSessionMatchesMapBatchScoreOnly) {
  Fixture f;
  core::AlignerOptions opts;  // CPU, score-only
  core::Aligner aligner(opts);
  MapStats want_chain;
  auto want = f.mapper->map_batch(f.read_seqs, aligner.batch_extender(), nullptr, &want_chain);

  core::ServiceOptions svc;
  svc.batch_pairs = 16;
  core::AlignService service(opts, svc);
  MapStats got_chain;
  auto got = f.map_via(service, {}, &got_chain);

  expect_same_mappings(got, want);
  EXPECT_EQ(got_chain.chain_tasks, want_chain.chain_tasks);
  EXPECT_EQ(got_chain.chain_anchors, want_chain.chain_anchors);
  EXPECT_GT(service.stats().pairs, 0u);
}

TEST(ServiceMapping, MapSessionTracebackMatchesMapBatchAndSamBytes) {
  // With traceback enabled on the service, the mapper runs both phases
  // through it; mappings carry batched CIGARs and the SAM output is
  // byte-identical to the private-Aligner two-phase path.
  Fixture f;
  core::AlignerOptions opts;
  opts.traceback = true;
  core::Aligner aligner(opts);
  auto want =
      f.mapper->map_batch(f.read_seqs, aligner.batch_extender(), aligner.traced_extender());

  core::ServiceOptions svc;
  svc.batch_pairs = 16;
  core::AlignService service(opts, svc);
  auto got = f.map_via(service);

  expect_same_mappings(got, want);
  EXPECT_EQ(f.sam_of(got), f.sam_of(want));
  std::size_t traced = 0, mapped = 0;
  for (const auto& m : got) {
    traced += m.has_traceback;
    mapped += m.mapped;
  }
  EXPECT_EQ(traced, mapped);
  EXPECT_GT(mapped, f.reads.size() / 2);
}

TEST(ServiceMapping, ConcurrentTenantsDoNotPerturbEachOthersMappings) {
  // Three mapper clients on three threads, one shared service, different
  // priorities and weights: every client's mappings (and SAM bytes) equal
  // its standalone run — multi-tenancy is invisible in the results.
  core::AlignerOptions opts;
  opts.traceback = true;
  core::ServiceOptions svc;
  svc.batch_pairs = 16;
  core::AlignService service(opts, svc);

  constexpr int kClients = 3;
  std::vector<std::unique_ptr<Fixture>> fixtures;
  std::vector<std::vector<ReadMapping>> want(kClients);
  core::Aligner aligner(opts);
  for (int c = 0; c < kClients; ++c) {
    fixtures.push_back(
        std::make_unique<Fixture>(100 + static_cast<std::uint64_t>(c), 30));
    want[static_cast<std::size_t>(c)] = fixtures.back()->mapper->map_batch(
        fixtures.back()->read_seqs, aligner.batch_extender(), aligner.traced_extender());
  }

  std::vector<std::vector<ReadMapping>> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      core::SessionOptions sopts;
      sopts.weight = 1.0 + c;
      sopts.priority = c % 2;
      got[static_cast<std::size_t>(c)] =
          fixtures[static_cast<std::size_t>(c)]->map_via(service, sopts);
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    expect_same_mappings(got[static_cast<std::size_t>(c)],
                         want[static_cast<std::size_t>(c)]);
    EXPECT_EQ(fixtures[static_cast<std::size_t>(c)]->sam_of(
                  got[static_cast<std::size_t>(c)]),
              fixtures[static_cast<std::size_t>(c)]->sam_of(
                  want[static_cast<std::size_t>(c)]));
  }
  EXPECT_EQ(service.stats().sessions, 2u * kClients);  // extend + trace per client
}

}  // namespace
}  // namespace saloba::seedext
