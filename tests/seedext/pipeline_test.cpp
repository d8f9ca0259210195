#include "seedext/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "align/batch.hpp"
#include "align/simd_engine.hpp"
#include "seedext/sam_output.hpp"
#include "seq/chunk_reader.hpp"
#include "seq/fasta.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "seq/sam.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace saloba::seedext {
namespace {

std::vector<seq::BaseCode> pipeline_genome(std::uint64_t seed = 42) {
  seq::GenomeParams p;
  p.length = 300000;
  p.repeat_fraction = 0.05;  // repeat-light for unambiguous mapping checks
  p.n_fraction = 0.0;
  p.seed = seed;
  return seq::generate_genome(p);
}

/// The per-read oracle over every read, host-parallel.
std::vector<ReadMapping> map_each(const ReadMapper& mapper,
                                  const std::vector<std::vector<seq::BaseCode>>& reads) {
  std::vector<ReadMapping> out(reads.size());
  util::parallel_for_indexed(reads.size(), [&](std::size_t i) { out[i] = mapper.map(reads[i]); });
  return out;
}

TEST(Pipeline, ErrorFreeReadsMapToTruePosition) {
  auto genome = pipeline_genome();
  seq::ReadProfile profile = seq::ReadProfile::equal_length(150);
  profile.mutation_rate = 0.0;
  profile.error_rate = 0.0;
  seq::ReadSimulator sim(genome, profile, 7);
  ReadMapper mapper(genome, MapperParams{});

  int correct = 0, total = 0;
  for (const auto& r : sim.simulate(50)) {
    auto mapping = mapper.map(r.read.bases);
    ASSERT_TRUE(mapping.mapped);
    EXPECT_EQ(mapping.reverse_strand, r.reverse_strand);
    ++total;
    if (mapping.ref_pos == r.true_pos) ++correct;
  }
  // Repeats can relocate a handful of reads; demand a high exact-hit rate.
  EXPECT_GE(correct, total * 9 / 10);
}

TEST(Pipeline, NoisyReadsStillMapNearby) {
  auto genome = pipeline_genome(43);
  seq::ReadProfile profile = seq::ReadProfile::illumina_250bp();
  seq::ReadSimulator sim(genome, profile, 8);
  ReadMapper mapper(genome, MapperParams{});

  int near = 0, total = 0;
  for (const auto& r : sim.simulate(40)) {
    auto mapping = mapper.map(r.read.bases);
    ++total;
    if (!mapping.mapped) continue;
    auto dist = mapping.ref_pos > r.true_pos ? mapping.ref_pos - r.true_pos
                                             : r.true_pos - mapping.ref_pos;
    if (dist < 30) ++near;
  }
  EXPECT_GE(near, total * 8 / 10);
}

TEST(Pipeline, MapBatchMatchesSingleMapping) {
  auto genome = pipeline_genome(44);
  seq::ReadProfile profile = seq::ReadProfile::equal_length(120);
  seq::ReadSimulator sim(genome, profile, 9);
  ReadMapper mapper(genome, MapperParams{});
  std::vector<std::vector<seq::BaseCode>> reads;
  for (const auto& r : sim.simulate(20)) reads.push_back(r.read.bases);
  auto batch = map_each(mapper, reads);
  ASSERT_EQ(batch.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    auto single = mapper.map(reads[i]);
    EXPECT_EQ(batch[i].mapped, single.mapped);
    EXPECT_EQ(batch[i].ref_pos, single.ref_pos);
    EXPECT_EQ(batch[i].score, single.score);
  }
}

TEST(Pipeline, CollectJobsProducesRealisticLengthSpread) {
  auto genome = pipeline_genome(45);
  seq::ReadProfile profile = seq::ReadProfile::illumina_250bp();
  seq::ReadSimulator sim(genome, profile, 10);
  ReadMapper mapper(genome, MapperParams{});
  std::vector<std::vector<seq::BaseCode>> reads;
  for (const auto& r : sim.simulate(100)) reads.push_back(r.read.bases);
  auto jobs = mapper.collect_jobs(reads);
  ASSERT_FALSE(jobs.empty());

  std::vector<double> qlens;
  for (const auto& j : jobs) {
    EXPECT_LE(j.query.size(), 280u);  // bounded by read length (plus indels)
    EXPECT_FALSE(j.ref.empty());
    // Reference window is wider than the query side (BWA-MEM banding),
    // except when clamped at a genome edge.
    qlens.push_back(static_cast<double>(j.query.size()));
  }
  // Fig. 2 property: lengths are spread out, not clustered.
  EXPECT_GT(util::coeff_variation(qlens), 0.3);
}

TEST(Pipeline, EmptyReadDoesNotMap) {
  auto genome = pipeline_genome(47);
  ReadMapper mapper(genome, MapperParams{});
  EXPECT_FALSE(mapper.map({}).mapped);
}

void expect_same_mappings(const std::vector<ReadMapping>& a,
                          const std::vector<ReadMapping>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mapped, b[i].mapped) << "read " << i;
    EXPECT_EQ(a[i].ref_pos, b[i].ref_pos) << "read " << i;
    EXPECT_EQ(a[i].reverse_strand, b[i].reverse_strand) << "read " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "read " << i;
  }
}

TEST(Pipeline, BatchedExtenderMatchesPerJobPath) {
  // Routing the extension stage through a BatchExtender (the scheduler-
  // shaped hook) must reproduce the per-job CPU mappings exactly.
  auto genome = pipeline_genome(48);
  seq::ReadProfile profile = seq::ReadProfile::illumina_250bp();
  seq::ReadSimulator sim(genome, profile, 12);
  ReadMapper mapper(genome, MapperParams{});
  std::vector<std::vector<seq::BaseCode>> reads;
  for (const auto& r : sim.simulate(30)) reads.push_back(r.read.bases);

  auto per_job = map_each(mapper, reads);
  BatchExtender cpu_extender = [&](const seq::PairBatch& batch) {
    return align::align_batch(batch, mapper.params().scoring);
  };
  expect_same_mappings(mapper.map_batch(reads, cpu_extender), per_job);
}

TEST(Pipeline, BatchedExtenderHandlesUnmappableReads) {
  auto genome = pipeline_genome(49);
  ReadMapper mapper(genome, MapperParams{});
  // Reads with no seeds anywhere: all-identical non-genomic garbage is
  // unlikely to seed; also include an empty read.
  std::vector<std::vector<seq::BaseCode>> reads(3);
  reads[1].assign(200, seq::kBaseN);
  std::size_t extender_calls = 0;
  BatchExtender counting = [&](const seq::PairBatch& batch) {
    ++extender_calls;
    return align::align_batch(batch, mapper.params().scoring);
  };
  auto mappings = mapper.map_batch(reads, counting);
  ASSERT_EQ(mappings.size(), 3u);
  EXPECT_FALSE(mappings[0].mapped);
  EXPECT_FALSE(mappings[1].mapped);
  // No jobs → the extender is never invoked with an empty batch.
  EXPECT_EQ(extender_calls, 0u);
}

TEST(Pipeline, MapStreamMatchesResidentMapBatch) {
  // The streaming FASTQ path (chunked ingest, bounded queue, batched
  // extension per chunk) must reproduce map_batch over the same reads,
  // in the same order.
  auto genome = pipeline_genome(50);
  seq::ReadProfile profile = seq::ReadProfile::illumina_250bp();
  seq::ReadSimulator sim(genome, profile, 13);
  ReadMapper mapper(genome, MapperParams{});

  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;
  for (auto& r : sim.simulate(30)) {
    read_seqs.push_back(r.read.bases);
    reads.push_back(std::move(r.read));
  }
  BatchExtender cpu_extender = [&](const seq::PairBatch& batch) {
    return align::align_batch(batch, mapper.params().scoring);
  };
  auto expected = mapper.map_batch(read_seqs, cpu_extender);

  std::ostringstream fq;
  seq::write_fastq(fq, reads);
  std::istringstream in(fq.str());
  seq::FastqChunkReader reader(in, 7);  // several chunks

  std::vector<ReadMapping> streamed;
  std::vector<std::string> names;
  auto stats = mapper.map_stream(
      reader, cpu_extender, nullptr,
      [&](const seq::Sequence& read, const ReadMapping& mapping) {
        names.push_back(read.name);
        streamed.push_back(mapping);
      },
      2);
  EXPECT_EQ(stats.reads, reads.size());
  EXPECT_GE(stats.chunks, 4u);
  expect_same_mappings(streamed, expected);
  for (std::size_t i = 0; i < reads.size(); ++i) EXPECT_EQ(names[i], reads[i].name);
}

TEST(Pipeline, MapStreamWritesSamIncrementally) {
  auto genome = pipeline_genome(51);
  seq::ReadProfile profile = seq::ReadProfile::equal_length(120);
  profile.mutation_rate = 0.0;
  profile.error_rate = 0.0;
  seq::ReadSimulator sim(genome, profile, 14);
  ReadMapper mapper(genome, MapperParams{});

  std::vector<seq::Sequence> reads;
  for (auto& r : sim.simulate(12)) reads.push_back(std::move(r.read));
  std::ostringstream fq;
  seq::write_fastq(fq, reads);
  std::istringstream in(fq.str());
  seq::FastqChunkReader reader(in, 5);

  BatchExtender cpu_extender = [&](const seq::PairBatch& batch) {
    return align::align_batch(batch, mapper.params().scoring);
  };
  // SAM records take their CIGARs from the traced stage.
  TracedBatchExtender tracer = [&](const seq::PairBatch& batch) {
    return align::simd::trace_batch(batch, mapper.params().scoring);
  };
  std::ostringstream sam_text;
  seq::SamHeader header;
  header.reference_length = genome.size();
  seq::SamWriter writer(sam_text, header);
  auto stats = mapper.map_stream(
      reader, cpu_extender, tracer,
      [&](const seq::Sequence& read, const ReadMapping& mapping) {
        writer.write(to_sam_record(mapper, read, mapping, "chrT"));
      },
      2);

  EXPECT_EQ(stats.reads, reads.size());
  EXPECT_EQ(writer.records_written(), reads.size());
  std::istringstream sam_in(sam_text.str());
  auto records = seq::read_sam(sam_in);
  ASSERT_EQ(records.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(records[i].qname, reads[i].name);  // input order preserved
  }
  EXPECT_EQ(stats.mapped, reads.size());  // error-free reads all map
}

TEST(Pipeline, MapStreamSurfacesReaderErrors) {
  auto genome = pipeline_genome(52);
  ReadMapper mapper(genome, MapperParams{});
  // Truncated second record: the producer thread throws; map_stream must
  // join cleanly and rethrow on the calling thread.
  std::istringstream in("@r0\nACGT\n+\nIIII\n@r1\nACGT\n+\n");
  seq::FastqChunkReader reader(in, 1);
  BatchExtender cpu_extender = [&](const seq::PairBatch& batch) {
    return align::align_batch(batch, mapper.params().scoring);
  };
  EXPECT_THROW(mapper.map_stream(reader, cpu_extender, nullptr, nullptr, 2),
               std::runtime_error);
}

/// A FASTQ reader that counts every record it has parsed — the producer
/// thread writes the count while the sink reads it.
class CountingFastqReader final : public seq::SequenceChunkReader {
 public:
  CountingFastqReader(std::istream& in, std::size_t chunk_records)
      : SequenceChunkReader(in, chunk_records), inner_(in, 1) {}

  std::atomic<std::size_t> parsed{0};

 protected:
  bool parse_record(seq::Sequence& out) override {
    if (!inner_.read_record(out)) return false;
    parsed.fetch_add(1);
    return true;
  }

 private:
  seq::FastqChunkReader inner_;
};

TEST(Pipeline, MapStreamKeepsAtMostQueuePlusTwoChunksAhead) {
  // The residency bound: while chunk c is being mapped, the queue holds at
  // most queue_capacity chunks and the producer one more, so with a slow
  // sink the reader may have parsed at most (c + queue_capacity + 2) whole
  // chunks.
  constexpr std::size_t kChunk = 3;
  constexpr std::size_t kQueue = 1;
  auto genome = pipeline_genome(53);
  seq::ReadSimulator sim(genome, seq::ReadProfile::equal_length(120), 15);
  ReadMapper mapper(genome, MapperParams{});
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;
  for (auto& r : sim.simulate(30)) {
    read_seqs.push_back(r.read.bases);
    reads.push_back(std::move(r.read));
  }
  BatchExtender cpu_extender = [&](const seq::PairBatch& batch) {
    return align::align_batch(batch, mapper.params().scoring);
  };
  auto expected = mapper.map_batch(read_seqs, cpu_extender);

  std::ostringstream fq;
  seq::write_fastq(fq, reads);
  std::istringstream in(fq.str());
  CountingFastqReader reader(in, kChunk);
  std::vector<ReadMapping> streamed;
  mapper.map_stream(
      reader, cpu_extender, nullptr,
      [&](const seq::Sequence&, const ReadMapping& mapping) {
        const std::size_t i = streamed.size();
        EXPECT_LE(reader.parsed.load(), (i / kChunk + kQueue + 2) * kChunk) << "read " << i;
        streamed.push_back(mapping);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      },
      kQueue);
  expect_same_mappings(streamed, expected);
}

/// The message of the std::invalid_argument `call` throws.
template <typename Call>
std::string invalid_argument_of(const Call& call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no std::invalid_argument)";
}

TEST(Pipeline, WrongCountCallbacksThrowNamingTheCallbackAndCounts) {
  auto genome = pipeline_genome(54);
  seq::ReadSimulator sim(genome, seq::ReadProfile::equal_length(120), 16);
  ReadMapper mapper(genome, MapperParams{});
  std::vector<std::vector<seq::BaseCode>> reads;
  for (auto& r : sim.simulate(6)) reads.push_back(r.read.bases);
  const align::ScoringScheme& scoring = mapper.params().scoring;

  // Each callback returns one output too few (or too many) for its input.
  std::size_t inputs = 0;
  const BatchExtender extend = [&](const seq::PairBatch& batch) {
    return align::align_batch(batch, scoring);
  };
  const BatchExtender short_extend = [&](const seq::PairBatch& batch) {
    inputs = batch.size();
    auto out = align::align_batch(batch, scoring);
    out.pop_back();
    return out;
  };
  const TracedBatchExtender short_trace = [&](const seq::PairBatch& batch) {
    inputs = batch.size();
    auto out = align::simd::trace_batch(batch, scoring);
    out.pop_back();
    return out;
  };

  std::string got = invalid_argument_of([&] { mapper.map_batch(reads, short_extend); });
  ASSERT_GT(inputs, 1u);
  EXPECT_EQ(got, "BatchExtender returned " + std::to_string(inputs - 1) + " results for " +
                     std::to_string(inputs) + " jobs");
  inputs = 0;
  got = invalid_argument_of([&] { mapper.map_batch(reads, extend, short_trace); });
  ASSERT_GT(inputs, 1u);
  EXPECT_EQ(got, "TracedBatchExtender returned " + std::to_string(inputs - 1) +
                     " traces for " + std::to_string(inputs) + " pairs");

  // Two tasks per read, one per strand.
  mapper.set_batch_chainer([](const ChainBatch& batch) {
    ChainStageResult out;
    out.chains.resize(batch.tasks() + 1);
    return out;
  });
  got = invalid_argument_of([&] { mapper.map_batch(reads, extend); });
  EXPECT_EQ(got, "BatchChainer returned " + std::to_string(2 * reads.size() + 1) +
                     " chain lists for " + std::to_string(2 * reads.size()) + " tasks");
  mapper.set_batch_chainer(nullptr);
  EXPECT_EQ(mapper.map_batch(reads, extend).size(), reads.size());
}

TEST(Pipeline, MapStreamSurfacesWrongCountCallbacks) {
  // The consumer throws mid-stream: map_stream closes the queue, joins the
  // reader thread and rethrows here (a thread left joinable would
  // terminate the process instead).
  auto genome = pipeline_genome(55);
  seq::ReadSimulator sim(genome, seq::ReadProfile::equal_length(120), 17);
  ReadMapper mapper(genome, MapperParams{});
  std::vector<seq::Sequence> reads;
  for (auto& r : sim.simulate(12)) reads.push_back(std::move(r.read));
  std::ostringstream fq;
  seq::write_fastq(fq, reads);
  const align::ScoringScheme& scoring = mapper.params().scoring;
  const BatchExtender extend = [&](const seq::PairBatch& batch) {
    return align::align_batch(batch, scoring);
  };
  const BatchExtender empty_extend = [](const seq::PairBatch&) {
    return std::vector<align::AlignmentResult>{};
  };
  const TracedBatchExtender empty_trace = [](const seq::PairBatch&) {
    return std::vector<align::TracedAlignment>{};
  };

  for (const bool bad_trace : {false, true}) {
    std::istringstream in(fq.str());
    seq::FastqChunkReader reader(in, 2);  // six chunks: the reader is mid-stream
    std::size_t sunk = 0;
    try {
      mapper.map_stream(reader, bad_trace ? extend : empty_extend,
                        bad_trace ? empty_trace : TracedBatchExtender{},
                        [&](const seq::Sequence&, const ReadMapping&) { ++sunk; }, 1);
      ADD_FAILURE() << "expected std::invalid_argument, bad_trace " << bad_trace;
    } catch (const std::invalid_argument& e) {
      const std::string callback = bad_trace ? "TracedBatchExtender" : "BatchExtender";
      EXPECT_EQ(std::string(e.what()).rfind(callback + " returned 0 ", 0), 0u) << e.what();
    }
    EXPECT_EQ(sunk, 0u) << "bad_trace " << bad_trace;
  }
}

TEST(Pipeline, ConstructorRejectsBadParams) {
  auto genome = pipeline_genome(54);
  EXPECT_THROW(ReadMapper({}, MapperParams{}), std::invalid_argument);
  for (int k : {3, 40}) {
    MapperParams params;
    params.k = k;
    EXPECT_THROW(ReadMapper(genome, params), std::invalid_argument) << "k " << k;
  }
  // Fields no index build reads: without the check, a zero stride aborted
  // the first map() and a zero gap_extend the first SAM record's trace.
  const auto expect_throw_naming = [&](const MapperParams& params, const std::string& field) {
    try {
      ReadMapper mapper(genome, params);
      ADD_FAILURE() << "expected std::invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  for (int stride : {0, -3}) {
    MapperParams params;
    params.seeding.stride = stride;
    expect_throw_naming(params, "MapperParams::seeding.stride");
  }
  {
    MapperParams params;
    params.scoring.gap_extend = 0;
    expect_throw_naming(params, "MapperParams::scoring");
  }
  // Nothing a rejected construction touched leaks into the next mapper.
  ReadMapper mapper(genome, MapperParams{});
  std::vector<seq::BaseCode> read(genome.begin() + 5000, genome.begin() + 5150);
  auto mapping = mapper.map(read);
  EXPECT_TRUE(mapping.mapped);
  EXPECT_EQ(mapping.ref_pos, 5000u);
}

TEST(Pipeline, SeedsOfExposesForwardSeeds) {
  auto genome = pipeline_genome(48);
  ReadMapper mapper(genome, MapperParams{});
  std::vector<seq::BaseCode> read(genome.begin() + 1000, genome.begin() + 1100);
  auto seeds = mapper.seeds_of(read);
  ASSERT_FALSE(seeds.empty());
  bool found = false;
  for (const auto& s : seeds) found |= s.rpos == 1000 && s.len == 100;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace saloba::seedext
