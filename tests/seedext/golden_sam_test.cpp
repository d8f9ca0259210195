// Golden-SAM end-to-end regression for the batched traceback refactor: the
// pre-refactor per-read path — the scalar align::align_batch score pass,
// then a full-matrix smith_waterman_traceback of each mapped read's genome
// window on the caller thread — is reimplemented here verbatim as the
// golden oracle, and every path through core::Aligner (whose host lanes run
// the SIMD engine) must emit byte-identical SAM: the engine fallback inside
// to_sam_record, the batched map_batch(reads, extend, trace) pipeline, and
// the streamed map_stream(..., trace, writer) pipeline. Streamed ==
// one-shot, byte for byte, with traceback enabled.
#include <sstream>

#include <gtest/gtest.h>

#include "align/batch.hpp"
#include "align/traceback.hpp"
#include "core/aligner.hpp"
#include "seedext/sam_output.hpp"
#include "seq/chunk_reader.hpp"
#include "seq/fasta.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"

namespace saloba::seedext {
namespace {

/// The pre-refactor to_sam_record, kept bit-exact: re-derives the CIGAR by
/// a full-matrix traceback of the oriented read against a window around the
/// mapped position.
seq::SamRecord legacy_sam_record(const ReadMapper& mapper, const seq::Sequence& read,
                                 const ReadMapping& mapping,
                                 const std::string& reference_name) {
  seq::SamRecord record;
  record.qname = read.name.empty() ? "read" : read.name;
  record.seq = read.to_string();
  if (read.quality.size() == read.bases.size()) record.qual = read.quality;
  if (!mapping.mapped) {
    record.flags = seq::SamRecord::kFlagUnmapped;
    return record;
  }
  record.rname = reference_name;
  record.flags = mapping.reverse_strand ? seq::SamRecord::kFlagReverse : 0;

  const auto& genome = mapper.genome();
  std::vector<seq::BaseCode> oriented =
      mapping.reverse_strand ? seq::reverse_complement(read.bases) : read.bases;
  std::size_t slack = std::max<std::size_t>(32, oriented.size() / 5);
  std::size_t win_start = mapping.ref_pos > slack ? mapping.ref_pos - slack : 0;
  std::size_t win_end = std::min(genome.size(), mapping.ref_pos + oriented.size() + slack);
  std::span<const seq::BaseCode> window(genome.data() + win_start, win_end - win_start);

  auto traced = align::smith_waterman_traceback(window, oriented, mapper.params().scoring);
  if (traced.end.score <= 0) {
    record.flags |= seq::SamRecord::kFlagUnmapped;
    return record;
  }
  record.pos = win_start + static_cast<std::size_t>(traced.ref_start) + 1;
  std::string cigar;
  if (traced.query_start > 0) cigar += std::to_string(traced.query_start) + "S";
  cigar += traced.cigar;
  std::size_t tail = oriented.size() - static_cast<std::size_t>(traced.end.query_end) - 1;
  if (tail > 0) cigar += std::to_string(tail) + "S";
  record.cigar = cigar;
  record.mapq =
      mapq_from_score(traced.end.score, read.bases.size(), mapper.params().scoring);
  record.tags.push_back("AS:i:" + std::to_string(traced.end.score));
  return record;
}

struct Fixture {
  std::vector<seq::BaseCode> genome;
  std::unique_ptr<ReadMapper> mapper;
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;

  Fixture() {
    seq::GenomeParams gp;
    gp.length = 120000;
    gp.n_fraction = 0.0;
    gp.repeat_fraction = 0.05;
    genome = seq::generate_genome(gp);
    mapper = std::make_unique<ReadMapper>(genome, MapperParams{});

    seq::ReadProfile profile = seq::ReadProfile::equal_length(120);
    profile.mutation_rate = 0.01;
    profile.error_rate = 0.005;
    seq::ReadSimulator sim(genome, profile, 7);
    for (auto& r : sim.simulate(60)) reads.push_back(r.read);
    for (auto& r : reads) {
      // Give every read a quality string so the FASTQ round trip of the
      // streamed path carries exactly what the resident path sees.
      if (r.quality.size() != r.bases.size()) r.quality.assign(r.bases.size(), 'I');
    }
    for (const auto& r : reads) read_seqs.push_back(r.bases);
  }

  /// The golden text: legacy per-read records over plain map_batch, with
  /// the scalar oracle as the extension engine.
  std::string golden() const {
    const align::ScoringScheme scoring = mapper->params().scoring;
    auto mappings = mapper->map_batch(
        read_seqs, [&](const seq::PairBatch& b) { return align::align_batch(b, scoring); });
    std::ostringstream out;
    seq::SamWriter writer(out, header());
    for (std::size_t i = 0; i < reads.size(); ++i) {
      writer.write(legacy_sam_record(*mapper, reads[i], mappings[i], "chrT"));
    }
    return out.str();
  }

  seq::SamHeader header() const {
    seq::SamHeader h;
    h.reference_name = "chrT";
    h.reference_length = genome.size();
    return h;
  }

  std::string fastq() const {
    std::ostringstream out;
    seq::write_fastq(out, reads);
    return out.str();
  }
};

TEST(GoldenSam, EngineFallbackMatchesLegacyByteForByte) {
  Fixture f;
  core::Aligner aligner{core::AlignerOptions{}};
  std::string want = f.golden();

  // No traced extender: to_sam_record's linear-memory fallback.
  auto mappings = f.mapper->map_batch(f.read_seqs, aligner.batch_extender());
  std::ostringstream out;
  seq::SamWriter writer(out, f.header());
  for (std::size_t i = 0; i < f.reads.size(); ++i) {
    writer.write(to_sam_record(*f.mapper, f.reads[i], mappings[i], "chrT"));
  }
  EXPECT_EQ(out.str(), want);
}

TEST(GoldenSam, BatchedTracebackPipelineMatchesLegacyByteForByte) {
  Fixture f;
  core::AlignerOptions opts;
  opts.traceback = true;
  core::Aligner aligner(opts);
  std::string want = f.golden();

  // The full two-phase pipeline: extensions and window CIGARs both batched
  // through the scheduler; to_sam_record consumes the stored traces.
  auto mappings =
      f.mapper->map_batch(f.read_seqs, aligner.batch_extender(), aligner.traced_extender());
  std::size_t traced = 0;
  std::ostringstream out;
  seq::SamWriter writer(out, f.header());
  for (std::size_t i = 0; i < f.reads.size(); ++i) {
    traced += mappings[i].has_traceback;
    writer.write(to_sam_record(*f.mapper, f.reads[i], mappings[i], "chrT"));
  }
  EXPECT_EQ(out.str(), want);
  // The point of the refactor: mapped reads actually carry batched CIGARs.
  std::size_t mapped = 0;
  for (const auto& m : mappings) mapped += m.mapped;
  EXPECT_EQ(traced, mapped);
  EXPECT_GT(mapped, f.reads.size() / 2);
}

TEST(GoldenSam, StreamedTracebackSamMatchesOneShotAndLegacy) {
  Fixture f;
  core::AlignerOptions opts;
  opts.traceback = true;
  core::Aligner aligner(opts);
  std::string want = f.golden();

  std::istringstream fastq(f.fastq());
  seq::FastqChunkReader reader(fastq, /*chunk_records=*/13);
  std::ostringstream streamed;
  seq::SamWriter writer(streamed, f.header());
  auto stats = f.mapper->map_stream(reader, aligner.batch_extender(),
                                    aligner.traced_extender(), writer, "chrT",
                                    /*queue_capacity=*/3);
  EXPECT_EQ(stats.reads, f.reads.size());
  EXPECT_GT(stats.chunks, 1u);
  EXPECT_EQ(streamed.str(), want);
}

TEST(GoldenSam, BandedTracedExtenderStillMatchesLegacy) {
  // Regression: the window-trace batch pins explicit full-table bands, so a
  // traced extender built from a banded aligner (a normal extension config)
  // must not get the band policy materialized onto the window pairs — the
  // window slack offsets the alignment diagonal, and a narrow band there
  // would silently corrupt CIGARs and positions.
  Fixture f;
  core::Aligner plain{core::AlignerOptions{}};
  std::string want = f.golden();

  core::AlignerOptions banded;
  banded.band = 8;
  banded.traceback = true;
  core::Aligner trace_aligner(banded);
  auto mappings =
      f.mapper->map_batch(f.read_seqs, plain.batch_extender(), trace_aligner.traced_extender());
  std::ostringstream out;
  seq::SamWriter writer(out, f.header());
  for (std::size_t i = 0; i < f.reads.size(); ++i) {
    writer.write(to_sam_record(*f.mapper, f.reads[i], mappings[i], "chrT"));
  }
  EXPECT_EQ(out.str(), want);
}

TEST(GoldenSam, ShardedLanesPipelineMatchesLegacyByteForByte) {
  // The batched two-phase pipeline split into many shards across two host
  // lanes must still reproduce the scalar golden SAM byte for byte (scores,
  // endpoints, CIGARs, positions).
  Fixture f;
  std::string want = f.golden();

  core::AlignerOptions opts;
  opts.cpu_lanes = 2;
  opts.cpu_threads = 2;
  opts.max_shard_pairs = 8;
  opts.traceback = true;
  core::Aligner sharded(opts);
  auto mappings =
      f.mapper->map_batch(f.read_seqs, sharded.batch_extender(), sharded.traced_extender());
  std::ostringstream out;
  seq::SamWriter writer(out, f.header());
  for (std::size_t i = 0; i < f.reads.size(); ++i) {
    writer.write(to_sam_record(*f.mapper, f.reads[i], mappings[i], "chrT"));
  }
  EXPECT_EQ(out.str(), want);
}

TEST(GoldenSam, EngineTraceFallbackInsideMapBatchMatchesLegacy) {
  Fixture f;
  core::Aligner aligner{core::AlignerOptions{}};
  std::string want = f.golden();

  // Null traced extender: the mapper's in-process engine stage.
  auto mappings = f.mapper->map_batch(f.read_seqs, aligner.batch_extender(),
                                      TracedBatchExtender{});
  std::ostringstream out;
  seq::SamWriter writer(out, f.header());
  for (std::size_t i = 0; i < f.reads.size(); ++i) {
    writer.write(to_sam_record(*f.mapper, f.reads[i], mappings[i], "chrT"));
  }
  EXPECT_EQ(out.str(), want);
}

}  // namespace
}  // namespace saloba::seedext
