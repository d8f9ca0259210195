// Streaming alignment end to end: write a larger-than-chunk workload to
// disk as two FASTQ files (queries + references), stream it back through
//
//   FastqChunkReader ×2 → ReaderPairSource → StreamAligner
//     (reader thread → AlignService session → in-order chunk reassembly)
//
// and verify the streamed results are bit-identical — same scores, same
// order — to the one-shot Aligner::align over the fully-resident batch,
// while peak residency stays within chunk_pairs × queue_capacity. Exits
// non-zero on any mismatch, so CI smoke runs guard the invariant.
//
//   $ ./streaming_alignment --pairs=600 --chunk=64 --queue=4
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/aligner.hpp"
#include "core/stream_aligner.hpp"
#include "seq/chunk_reader.hpp"
#include "seq/fasta.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"

using namespace saloba;

namespace {

// Skewed lengths (mostly short, a heavy tail of long pairs) — the workload
// shape that makes chunk scheduling interesting.
seq::Sequence random_named_seq(util::Xoshiro256& rng, std::size_t i, const char* prefix) {
  seq::Sequence s;
  s.name = std::string(prefix) + std::to_string(i);
  std::size_t len = rng.bernoulli(0.15) ? 400 + rng.below(400) : 40 + rng.below(80);
  s.bases.resize(len);
  for (auto& b : s.bases) b = static_cast<seq::BaseCode>(rng.below(4));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("streaming_alignment",
                       "chunked FASTQ ingest -> service session -> ordered streaming emit");
  args.add_string("workdir", "directory for generated files", "/tmp/saloba_stream_demo");
  args.add_int("pairs", "pairs to generate", 600);
  args.add_int("chunk", "pairs per chunk", 64);
  args.add_int("queue", "in-flight chunk budget", 4);
  args.add_int("workers", "concurrent align workers", 1);
  args.add_flag("sim", "use the simulated saloba kernel instead of the CPU backend");
  if (!args.parse(argc, argv)) return 1;

  const auto pairs = static_cast<std::size_t>(args.get_int("pairs"));
  const auto chunk_pairs = static_cast<std::size_t>(args.get_int("chunk"));
  const auto queue_capacity = static_cast<std::size_t>(args.get_int("queue"));

  // 1. Generate the workload and write it to disk, pair i = (queries.fq[i],
  // refs.fq[i]) — the on-disk shape of an extension workload.
  namespace fs = std::filesystem;
  fs::path dir(args.get_string("workdir"));
  fs::create_directories(dir);
  {
    util::Xoshiro256 rng(99);
    std::vector<seq::Sequence> queries, refs;
    for (std::size_t i = 0; i < pairs; ++i) {
      queries.push_back(random_named_seq(rng, i, "q"));
      refs.push_back(random_named_seq(rng, i, "r"));
    }
    seq::write_fastq_file((dir / "queries.fq").string(), queries);
    seq::write_fastq_file((dir / "refs.fq").string(), refs);
  }

  core::AlignerOptions opts;
  if (args.get_flag("sim")) {
    opts.backend = core::Backend::kSimulated;
    opts.kernel = "saloba";
    opts.device = "gtx1650";
  }

  // 2. Stream the files through the pipeline.
  core::StreamOptions stream;
  stream.chunk_pairs = chunk_pairs;
  stream.queue_capacity = queue_capacity;
  stream.align_threads = static_cast<std::size_t>(args.get_int("workers"));

  std::ifstream qfile(dir / "queries.fq"), rfile(dir / "refs.fq");
  seq::FastqChunkReader qreader(qfile, chunk_pairs);
  seq::FastqChunkReader rreader(rfile, chunk_pairs);
  core::ReaderPairSource source(qreader, rreader);

  core::StreamAligner streamer(opts, stream);
  std::vector<align::AlignmentResult> streamed(pairs);
  auto stats = streamer.run(
      source, [&](std::size_t, std::size_t first_pair, core::AlignOutput&& out) {
        for (std::size_t i = 0; i < out.results.size(); ++i) {
          streamed[first_pair + i] = out.results[i];
        }
      });

  std::printf("streamed %zu pairs in %zu chunks of <=%zu: %.1f ms align (%.2f gcups), "
              "%.1f ms wall, %zu shards\n",
              stats.pairs, stats.chunks, chunk_pairs, stats.align_ms, stats.gcups,
              stats.wall_ms, stats.shards);
  std::printf("peak residency: %zu pairs in %zu chunks (budget %zu pairs = "
              "chunk %zu x queue %zu)\n",
              stats.peak_resident_pairs, stats.peak_resident_chunks,
              chunk_pairs * queue_capacity, chunk_pairs, queue_capacity);

  // 3. One-shot reference: the whole workload resident at once.
  seq::PairBatch resident;
  {
    auto queries = seq::read_fastq_file((dir / "queries.fq").string());
    auto refs = seq::read_fastq_file((dir / "refs.fq").string());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      resident.add(std::move(queries[i].bases), std::move(refs[i].bases));
    }
  }
  auto one_shot = core::Aligner(opts).align(resident);

  // 4. Verify: streamed must be bit-identical, and residency within budget.
  int failures = 0;
  if (stats.pairs != resident.size()) {
    std::printf("FAIL: streamed %zu pairs, resident batch has %zu\n", stats.pairs,
                resident.size());
    ++failures;
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < resident.size(); ++i) {
    if (!(streamed[i] == one_shot.results[i])) ++mismatches;
  }
  if (mismatches > 0) {
    std::printf("FAIL: %zu of %zu streamed results differ from the one-shot path\n",
                mismatches, resident.size());
    ++failures;
  }
  if (stats.peak_resident_pairs > chunk_pairs * queue_capacity) {
    std::printf("FAIL: peak residency %zu exceeds budget %zu\n", stats.peak_resident_pairs,
                chunk_pairs * queue_capacity);
    ++failures;
  }
  if (failures == 0) {
    std::printf("OK: streamed == one-shot (%zu pairs, same order, same scores), "
                "residency within budget\n",
                resident.size());
  }
  return failures == 0 ? 0 : 1;
}
