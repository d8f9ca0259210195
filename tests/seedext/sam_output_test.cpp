#include "seedext/sam_output.hpp"

#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "align/batch.hpp"
#include "align/simd_engine.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"

namespace saloba::seedext {
namespace {

struct Fixture {
  std::vector<seq::BaseCode> genome;
  std::unique_ptr<ReadMapper> mapper;

  Fixture() {
    seq::GenomeParams p;
    p.length = 200000;
    p.n_fraction = 0.0;
    p.repeat_fraction = 0.05;
    genome = seq::generate_genome(p);
    mapper = std::make_unique<ReadMapper>(genome, MapperParams{});
  }

  /// Maps one read the way a SAM writer must: map_batch with the scalar
  /// extender and the SIMD engine's traced run as the traceback stage.
  ReadMapping map(const std::vector<seq::BaseCode>& read) const {
    const align::ScoringScheme scoring = mapper->params().scoring;
    std::vector<std::vector<seq::BaseCode>> reads{read};
    return mapper->map_batch(
        reads, [&](const seq::PairBatch& b) { return align::align_batch(b, scoring); },
        [&](const seq::PairBatch& b) { return align::simd::trace_batch(b, scoring); })[0];
  }
};

TEST(SamOutput, MappedReadProducesValidRecord) {
  Fixture f;
  seq::Sequence read;
  read.name = "exact_read";
  read.bases.assign(f.genome.begin() + 5000, f.genome.begin() + 5150);
  auto mapping = f.map(read.bases);
  ASSERT_TRUE(mapping.mapped);

  auto record = to_sam_record(*f.mapper, read, mapping, "chrT");
  EXPECT_EQ(record.qname, "exact_read");
  EXPECT_FALSE(record.unmapped());
  EXPECT_EQ(record.rname, "chrT");
  EXPECT_EQ(record.pos, 5001u);  // SAM is 1-based
  EXPECT_EQ(record.cigar, "150M");
  EXPECT_GE(record.mapq, 50);
  ASSERT_FALSE(record.tags.empty());
  EXPECT_EQ(record.tags[0], "AS:i:150");
}

TEST(SamOutput, ReverseStrandSetsFlag) {
  Fixture f;
  seq::Sequence read;
  read.name = "rc_read";
  std::vector<seq::BaseCode> window(f.genome.begin() + 9000, f.genome.begin() + 9120);
  read.bases = seq::reverse_complement(window);
  auto mapping = f.map(read.bases);
  ASSERT_TRUE(mapping.mapped);
  ASSERT_TRUE(mapping.reverse_strand);
  auto record = to_sam_record(*f.mapper, read, mapping);
  EXPECT_TRUE(record.flags & seq::SamRecord::kFlagReverse);
  EXPECT_EQ(record.pos, 9001u);
}

TEST(SamOutput, UnmappedReadFlagged) {
  Fixture f;
  seq::Sequence read;
  read.name = "junk";
  read.bases = seq::encode_string(std::string(60, 'A'));  // unlikely unique hit
  ReadMapping unmapped;  // mapped = false
  auto record = to_sam_record(*f.mapper, read, unmapped);
  EXPECT_TRUE(record.unmapped());
  EXPECT_EQ(record.cigar, "*");
}

TEST(SamOutput, IndelReadGetsIndelCigar) {
  Fixture f;
  seq::Sequence read;
  read.name = "del_read";
  // 80 bases, skip 3, 70 more -> CIGAR should contain a 3D.
  read.bases.assign(f.genome.begin() + 20000, f.genome.begin() + 20080);
  read.bases.insert(read.bases.end(), f.genome.begin() + 20083, f.genome.begin() + 20153);
  auto mapping = f.map(read.bases);
  ASSERT_TRUE(mapping.mapped);
  auto record = to_sam_record(*f.mapper, read, mapping);
  EXPECT_NE(record.cigar.find("3D"), std::string::npos) << record.cigar;
}

TEST(SamOutput, MappingPastTheGenomeEndThrows) {
  // A caller-built mapping whose ref_pos puts its window past the genome
  // end is an input error: it throws instead of aborting.
  Fixture f;
  seq::Sequence read;
  read.name = "edge_read";
  read.bases.assign(f.genome.begin() + 7000, f.genome.begin() + 7100);
  auto mapping = f.map(read.bases);
  ASSERT_TRUE(mapping.mapped);
  ASSERT_TRUE(mapping.has_traceback);
  mapping.ref_pos = f.genome.size() + 1000;
  EXPECT_THROW(to_sam_record(*f.mapper, read, mapping), std::invalid_argument);
}

/// The slack mapped_window pads a read of `len` bases with, read off a window
/// far from both genome ends; both sides must carry the same slack.
std::size_t slack_of(std::size_t len) {
  constexpr std::size_t kGenomeLen = 10'000'000;
  constexpr std::size_t kRefPos = 1'000'000;
  const MappedWindow win = mapped_window(kGenomeLen, kRefPos, len);
  const std::size_t before = kRefPos - win.start;
  EXPECT_EQ(win.end - (kRefPos + len), before) << "len " << len;
  return before;
}

TEST(SamOutput, MappedWindowSlackIs32UpTo160Bases) {
  for (std::size_t len : {0u, 1u, 100u, 159u, 160u}) {
    EXPECT_EQ(slack_of(len), 32u) << len;
  }
}

TEST(SamOutput, MappedWindowSlackIsAFifthOfTheReadUpTo1280Bases) {
  for (std::size_t len : {161u, 165u, 250u, 999u, 1000u, 1279u, 1280u}) {
    EXPECT_EQ(slack_of(len), len / 5) << len;
  }
}

TEST(SamOutput, MappedWindowSlackIsCappedAt256Bases) {
  for (std::size_t len : {1281u, 1285u, 1290u, 12'000u, 101'509u}) {
    EXPECT_EQ(slack_of(len), 256u) << len;
  }
}

TEST(SamOutput, MappedWindowClampsToTheGenome) {
  constexpr std::size_t kGenomeLen = 20'000;
  // Near the genome start: the slack before the read is cut at base 0.
  MappedWindow win = mapped_window(kGenomeLen, 100, 12'000);
  EXPECT_EQ(win.start, 0u);
  EXPECT_EQ(win.end, 100u + 12'000u + 256u);
  win = mapped_window(kGenomeLen, 256, 12'000);
  EXPECT_EQ(win.start, 0u);
  win = mapped_window(kGenomeLen, 257, 12'000);
  EXPECT_EQ(win.start, 1u);
  // Near the genome end: the slack after the read is cut at the genome end.
  win = mapped_window(kGenomeLen, 7'800, 12'000);
  EXPECT_EQ(win.start, 7'800u - 256u);
  EXPECT_EQ(win.end, kGenomeLen);
  // A short read keeps its 32 bases up to the genome end.
  win = mapped_window(kGenomeLen, kGenomeLen - 100, 100);
  EXPECT_EQ(win.start, kGenomeLen - 132);
  EXPECT_EQ(win.end, kGenomeLen);
  // A read that spans the whole genome gets the whole genome.
  win = mapped_window(kGenomeLen, 0, kGenomeLen);
  EXPECT_EQ(win.start, 0u);
  EXPECT_EQ(win.end, kGenomeLen);
}

TEST(SamOutput, MapqMonotoneInScore) {
  align::ScoringScheme s;
  int prev = -1;
  for (align::Score score : {0, 30, 60, 90, 120, 150}) {
    int q = mapq_from_score(score, 150, s);
    EXPECT_GE(q, prev);
    prev = q;
  }
  EXPECT_EQ(mapq_from_score(150, 150, s), 60);
  EXPECT_EQ(mapq_from_score(0, 150, s), 0);
  EXPECT_EQ(mapq_from_score(10, 0, s), 0);
}

TEST(SamOutput, EndToEndSamFileParsesBack) {
  Fixture f;
  seq::ReadProfile profile = seq::ReadProfile::equal_length(100);
  profile.mutation_rate = 0.0;
  profile.error_rate = 0.0;
  seq::ReadSimulator sim(f.genome, profile, 5);
  auto reads = sim.simulate(10);

  std::ostringstream out;
  seq::SamHeader header;
  header.reference_name = "chrT";
  header.reference_length = f.genome.size();
  seq::SamWriter writer(out, header);
  for (const auto& r : reads) {
    auto mapping = f.map(r.read.bases);
    writer.write(to_sam_record(*f.mapper, r.read, mapping, "chrT"));
  }
  std::istringstream in(out.str());
  auto records = seq::read_sam(in);
  ASSERT_EQ(records.size(), 10u);
  int mapped = 0;
  for (const auto& r : records) mapped += !r.unmapped();
  EXPECT_GE(mapped, 9);
}

}  // namespace
}  // namespace saloba::seedext
