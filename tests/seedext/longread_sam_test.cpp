// Long-read golden SAM: 100 kbp+ simulated nanopore reads mapped through
// the long-read route (core::LongReadPolicy → align::xdrop_wavefront) emit
// byte-stable SAM — two independent pipeline constructions produce
// identical bytes, a pinned FNV-1a digest locks the text against silent
// drift, and every stored trace is a consistent CIGAR that rescores to its
// reported score. Short-read workloads are routing-invariant: with the
// threshold far above every pair the SAM is byte-identical to a run with
// routing disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "align/traceback.hpp"
#include "core/aligner.hpp"
#include "seedext/sam_output.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"

namespace saloba::seedext {
namespace {

/// FNV-1a 64-bit of the SAM text — a compact stability fingerprint.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::size_t kRouteThreshold = 40000;

core::AlignerOptions longread_options() {
  core::AlignerOptions opts;
  opts.traceback = true;
  opts.longread_threshold = kRouteThreshold;  // routes every 100 kbp window trace
  // A tight live window keeps the 100 kbp wavefronts thin (the sweep is
  // O((N+M) · xdrop/beta) cells); stability, not sensitivity, is on trial.
  opts.xdrop = 60;
  return opts;
}

struct LongReadFixture {
  std::vector<seq::BaseCode> genome;
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;

  LongReadFixture() {
    seq::GenomeParams gp;
    gp.length = 250000;
    gp.n_fraction = 0.0;
    gp.repeat_fraction = 0.05;
    genome = seq::generate_genome(gp);

    seq::ReadProfile profile = seq::ReadProfile::nanopore_ultralong(100000);
    profile.length_min = 100000;  // the suite's contract is 100 kbp+ reads
    seq::ReadSimulator sim(genome, profile, 41);
    for (auto& r : sim.simulate(2)) reads.push_back(r.read);
    for (const auto& r : reads) read_seqs.push_back(r.bases);
  }

  /// One full pipeline run from scratch: fresh mapper, fresh aligner, SAM
  /// text out. Mappings are returned for trace-level assertions.
  std::string run(std::vector<ReadMapping>* mappings_out = nullptr) const {
    ReadMapper mapper(genome, MapperParams{});
    core::Aligner aligner(longread_options());
    auto mappings =
        mapper.map_batch(read_seqs, aligner.batch_extender(), aligner.traced_extender());
    std::ostringstream out;
    seq::SamHeader header;
    header.reference_name = "chrL";
    header.reference_length = genome.size();
    seq::SamWriter writer(out, header);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      writer.write(to_sam_record(mapper, reads[i], mappings[i], "chrL"));
    }
    if (mappings_out) *mappings_out = std::move(mappings);
    return out.str();
  }
};

TEST(LongReadSam, UltraLongReadsEmitByteStableSam) {
  LongReadFixture f;
  for (const auto& r : f.reads) {
    ASSERT_GE(r.bases.size(), 100000u);  // the route actually engages
  }

  std::vector<ReadMapping> mappings;
  const std::string first = f.run(&mappings);
  const std::string second = f.run();
  EXPECT_EQ(first, second);
  // The pinned golden digest: every engine in the route — seeding,
  // chaining, extension, wavefront score + TraceWalk CIGAR, MAPQ — is
  // integer-deterministic, so this locks the exact SAM bytes against silent
  // drift in any of them. A legitimate output change must re-pin it.
  EXPECT_EQ(fnv1a(first), 5599960495259427413ull);

  std::size_t mapped = 0;
  const align::ScoringScheme scoring;
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const ReadMapping& m = mappings[i];
    if (!m.mapped) continue;
    ++mapped;
    ASSERT_TRUE(m.has_traceback) << "read " << i;
    const std::size_t oriented_len = f.reads[i].bases.size();
    const MappedWindow win = mapped_window(f.genome.size(), m.ref_pos, oriented_len);
    EXPECT_TRUE(align::cigar_consistent(m.traced, win.end - win.start, oriented_len))
        << "read " << i;
    // The stored trace rescores to exactly its reported endpoint score —
    // the wavefront's CIGAR contract, surviving the whole pipeline.
    std::span<const seq::BaseCode> window(f.genome.data() + win.start,
                                          win.end - win.start);
    std::vector<seq::BaseCode> oriented = m.reverse_strand
                                              ? seq::reverse_complement(f.reads[i].bases)
                                              : f.reads[i].bases;
    EXPECT_EQ(align::rescore_cigar(m.traced, window, oriented, scoring),
              m.traced.end.score)
        << "read " << i;
  }
  EXPECT_GT(mapped, 0u);
}

TEST(LongReadSam, ShortReadSamIsRoutingInvariant) {
  // A classic short-read workload with routing enabled (threshold far above
  // every pair) must emit bytes identical to routing disabled — the
  // pre-existing golden_sam_test contract is untouched by this PR.
  seq::GenomeParams gp;
  gp.length = 120000;
  gp.n_fraction = 0.0;
  gp.repeat_fraction = 0.05;
  const auto genome = seq::generate_genome(gp);

  seq::ReadProfile profile = seq::ReadProfile::equal_length(120);
  profile.mutation_rate = 0.01;
  profile.error_rate = 0.005;
  seq::ReadSimulator sim(genome, profile, 7);
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;
  for (auto& r : sim.simulate(40)) reads.push_back(r.read);
  for (const auto& r : reads) read_seqs.push_back(r.bases);

  auto emit = [&](const core::AlignerOptions& opts) {
    ReadMapper mapper(genome, MapperParams{});
    core::Aligner aligner(opts);
    auto mappings =
        mapper.map_batch(read_seqs, aligner.batch_extender(), aligner.traced_extender());
    std::ostringstream out;
    seq::SamHeader header;
    header.reference_name = "chrS";
    header.reference_length = genome.size();
    seq::SamWriter writer(out, header);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      writer.write(to_sam_record(mapper, reads[i], mappings[i], "chrS"));
    }
    return out.str();
  };

  core::AlignerOptions routed = longread_options();
  core::AlignerOptions off = routed;
  off.longread_threshold = 0;
  EXPECT_EQ(emit(routed), emit(off));
}

}  // namespace
}  // namespace saloba::seedext
