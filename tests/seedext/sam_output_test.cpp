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
