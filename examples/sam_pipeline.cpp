// Full pipeline with file I/O: write a synthetic reference FASTA and reads
// FASTQ to disk, read them back, map, and emit a SAM file — the end-to-end
// shape of a production aligner run.
//
//   $ ./sam_pipeline --workdir=/tmp/saloba_demo --reads=500
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/aligner.hpp"
#include "core/autotune.hpp"
#include "core/workload.hpp"
#include "seedext/sam_output.hpp"
#include "seq/fasta.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace saloba;
  util::ArgParser args("sam_pipeline", "FASTA/FASTQ in, SAM out");
  args.add_string("workdir", "directory for generated files", "/tmp/saloba_sam_demo");
  args.add_int("genome", "genome length (bases)", 1 << 20);
  args.add_int("reads", "reads to simulate", 500);
  if (!args.parse(argc, argv)) return 1;

  namespace fs = std::filesystem;
  fs::path dir(args.get_string("workdir"));
  fs::create_directories(dir);

  // 1. Write the reference FASTA.
  auto genome_codes = core::make_genome(static_cast<std::size_t>(args.get_int("genome")));
  {
    std::vector<seq::Sequence> ref(1);
    ref[0].name = "chrT";
    ref[0].bases = genome_codes;
    seq::write_fasta_file((dir / "reference.fa").string(), ref);
  }

  // 2. Simulate reads and write the FASTQ.
  seq::ReadSimulator sim(genome_codes, seq::ReadProfile::illumina_250bp(), 11);
  auto simulated = sim.simulate(static_cast<std::size_t>(args.get_int("reads")));
  {
    std::vector<seq::Sequence> reads;
    for (auto& r : simulated) reads.push_back(r.read);
    seq::write_fastq_file((dir / "reads.fq").string(), reads);
  }

  // 3. Read both back from disk (exercising the parsers, as a tool would).
  auto reference = seq::read_fasta_file((dir / "reference.fa").string());
  auto reads = seq::read_fastq_file((dir / "reads.fq").string());
  std::printf("loaded %zu bp reference and %zu reads from %s\n",
              reference[0].bases.size(), reads.size(), dir.c_str());

  // 4. Map (extensions and window CIGARs both batched through the public
  // Aligner/scheduler path, as a production pipeline would hand them to the
  // GPU) and write SAM.
  seedext::ReadMapper mapper(reference[0].bases, seedext::MapperParams{});
  std::vector<std::vector<seq::BaseCode>> read_seqs;
  for (const auto& r : reads) read_seqs.push_back(r.bases);
  // Two aligners on purpose: extensions only need the score pass, and a
  // traceback-enabled Aligner would run (and discard) a traceback phase on
  // every extension batch; only the window batch needs the second phase.
  core::Aligner extension_aligner{core::AlignerOptions{}};  // CPU backend
  core::AlignerOptions trace_opts;
  trace_opts.traceback = true;
  core::Aligner trace_aligner(trace_opts);
  util::Timer timer;
  auto mappings = mapper.map_batch(read_seqs, extension_aligner.batch_extender(),
                                   trace_aligner.traced_extender());

  std::ofstream sam_file(dir / "alignments.sam");
  seq::SamHeader header;
  header.reference_name = reference[0].name;
  header.reference_length = reference[0].bases.size();
  header.command_line = "sam_pipeline";
  seq::SamWriter writer(sam_file, header);

  std::size_t mapped = 0;
  std::size_t traced = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    mapped += mappings[i].mapped;
    traced += mappings[i].has_traceback;
    writer.write(seedext::to_sam_record(mapper, reads[i], mappings[i], reference[0].name));
  }
  std::printf("mapped %zu/%zu reads in %.1f ms (%zu batched CIGARs) -> %s\n", mapped,
              reads.size(), timer.millis(), traced, (dir / "alignments.sam").c_str());
  if (mapped == 0) {
    std::fprintf(stderr, "FAIL: nothing mapped\n");
    return 1;
  }
  if (traced != mapped) {
    std::fprintf(stderr, "FAIL: %zu mapped reads but only %zu batched CIGARs\n", mapped,
                 traced);
    return 1;
  }

  // 5. Report what the autotuner would pick for this workload's extensions.
  auto jobs = mapper.collect_jobs(read_seqs);
  core::DatasetStats stats;
  stats.jobs = jobs.size();
  std::vector<double> qlens;
  for (const auto& j : jobs) qlens.push_back(static_cast<double>(j.query.size()));
  stats.mean_query_len = util::mean(qlens);
  stats.cv_query_len = util::coeff_variation(qlens);
  auto cfg = core::recommend_config(stats);
  std::printf(
      "extension workload: %zu jobs, mean query %.0f bp, CV %.2f -> recommended "
      "SALoBa subwarp size: %d\n",
      stats.jobs, stats.mean_query_len, stats.cv_query_len, cfg.subwarp_size);
  return 0;
}
