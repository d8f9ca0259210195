// Long-read golden SAM: 100 kbp+ simulated nanopore reads mapped through
// the long-read route (core::LongReadPolicy → align::xdrop_wavefront) emit
// byte-stable SAM — two independent pipeline constructions produce
// identical bytes, a pinned FNV-1a digest locks the text against silent
// drift, every mapped record lands on its simulated strand and origin, every
// stored trace is a consistent CIGAR that rescores to its reported score,
// and the traced stage sweeps no more forward cells than the closed-form
// estimate over the mapped windows. Short-read workloads are
// routing-invariant: with the threshold far above every pair the SAM is
// byte-identical to a run with routing disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "align/traceback.hpp"
#include "align/xdrop_wavefront.hpp"
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
  std::vector<seq::SimulatedRead> simulated;  ///< each read with its true origin
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
    simulated = sim.simulate(2);
    for (const auto& r : simulated) read_seqs.push_back(r.read.bases);
  }

  /// One full pipeline run from scratch: fresh mapper, fresh aligner, SAM
  /// text out. Mappings are returned for trace-level assertions, and the
  /// traced stage's forward cells (AlignOutput::cells, the count mapbench
  /// reports as tb_score_cells) are summed into `trace_cells_out`.
  std::string run(std::vector<ReadMapping>* mappings_out = nullptr,
                  std::size_t* trace_cells_out = nullptr) const {
    ReadMapper mapper(genome, MapperParams{});
    core::Aligner aligner(longread_options());
    std::size_t trace_cells = 0;
    const TracedBatchExtender trace = [&](const seq::PairBatch& batch) {
      core::AlignOutput out = aligner.align(batch);
      trace_cells += out.cells;
      return std::move(out.traced);
    };
    auto mappings = mapper.map_batch(read_seqs, aligner.batch_extender(), trace);
    std::ostringstream out;
    seq::SamHeader header;
    header.reference_name = "chrL";
    header.reference_length = genome.size();
    seq::SamWriter writer(out, header);
    for (std::size_t i = 0; i < simulated.size(); ++i) {
      writer.write(to_sam_record(mapper, simulated[i].read, mappings[i], "chrL"));
    }
    if (mappings_out) *mappings_out = std::move(mappings);
    if (trace_cells_out) *trace_cells_out = trace_cells;
    return out.str();
  }
};

TEST(LongReadSam, UltraLongReadsEmitByteStableSam) {
  LongReadFixture f;
  for (const auto& r : f.simulated) {
    ASSERT_GE(r.read.bases.size(), 100000u);  // the route actually engages
  }

  std::vector<ReadMapping> mappings;
  const std::string first = f.run(&mappings);
  const std::string second = f.run();
  EXPECT_EQ(first, second);

  // Every mapped record lands on its simulated origin: the simulated strand,
  // and a start within kPlacementSlack bases of the true one (indels at the
  // read's head may shift it a little). A trace that wins on a repeat copy
  // inside the window's slack fails here.
  constexpr std::size_t kPlacementSlack = 256;
  std::istringstream sam(first);
  const std::vector<seq::SamRecord> records = seq::read_sam(sam);
  ASSERT_EQ(records.size(), f.simulated.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const seq::SamRecord& rec = records[i];
    if (rec.unmapped()) continue;
    const seq::SimulatedRead& truth = f.simulated[i];
    EXPECT_EQ((rec.flags & seq::SamRecord::kFlagReverse) != 0, truth.reverse_strand)
        << "read " << i;
    ASSERT_GE(rec.pos, 1u) << "read " << i;
    const std::size_t start = rec.pos - 1;  // SAM is 1-based
    const std::size_t off = start > truth.true_pos ? start - truth.true_pos
                                                   : truth.true_pos - start;
    EXPECT_LE(off, kPlacementSlack)
        << "read " << i << " starts at " << start << ", simulated from " << truth.true_pos;
  }

  // The pinned golden digest: every engine in the route — seeding,
  // chaining, extension, wavefront score + TraceWalk CIGAR, MAPQ — is
  // integer-deterministic, so this locks the exact SAM bytes against silent
  // drift in any of them. A legitimate output change must re-pin it, and
  // only once the placement checks above pass.
  EXPECT_EQ(fnv1a(first), 7554334532375304990ull);

  std::size_t mapped = 0;
  const align::ScoringScheme scoring;
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const ReadMapping& m = mappings[i];
    if (!m.mapped) continue;
    ++mapped;
    ASSERT_TRUE(m.has_traceback) << "read " << i;
    const std::vector<seq::BaseCode>& read = f.read_seqs[i];
    const MappedWindow win = mapped_window(f.genome.size(), m.ref_pos, read.size());
    EXPECT_TRUE(align::cigar_consistent(m.traced, win.end - win.start, read.size()))
        << "read " << i;
    // The stored trace rescores to exactly its reported endpoint score —
    // the wavefront's CIGAR contract, surviving the whole pipeline.
    std::span<const seq::BaseCode> window(f.genome.data() + win.start,
                                          win.end - win.start);
    std::vector<seq::BaseCode> oriented =
        m.reverse_strand ? seq::reverse_complement(read) : read;
    EXPECT_EQ(align::rescore_cigar(m.traced, window, oriented, scoring),
              m.traced.end.score)
        << "read " << i;
  }
  EXPECT_GT(mapped, 0u);
}

TEST(LongReadSam, TracedCellsStayWithinTheWindowEstimate) {
  // The traced stage's X-drop sweeps start at each window's corner, and
  // nothing can be pruned until a pair's best score exceeds X, so slack
  // before the read is swept as an unprunable triangle. With the slack
  // capped (kMaxWindowSlack) the two pairs' forward cells stay below the
  // closed-form steady-state estimate over their windows (18.4M against
  // 53.4M); 20 kbp of slack per side swept 371.7M.
  LongReadFixture f;
  std::vector<ReadMapping> mappings;
  std::size_t cells = 0;
  f.run(&mappings, &cells);

  const core::AlignerOptions opts = longread_options();
  std::size_t estimate = 0;
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    if (!mappings[i].mapped) continue;
    const std::size_t len = f.read_seqs[i].size();
    const MappedWindow win = mapped_window(f.genome.size(), mappings[i].ref_pos, len);
    estimate += align::xdrop_cells_estimate(win.end - win.start, len, opts.xdrop,
                                            opts.scoring);
  }
  ASSERT_GT(estimate, 0u);
  EXPECT_GT(cells, 0u);
  EXPECT_LE(cells, estimate);
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
