// End-to-end read mapping on a synthetic genome: simulate Illumina-like
// reads, map them with the seed-and-extend pipeline, and report accuracy and
// throughput — the workload the paper's introduction motivates.
//
//   $ ./read_mapping --reads=2000 --genome=4194304
#include <cstdio>

#include "core/aligner.hpp"
#include "core/workload.hpp"
#include "seedext/pipeline.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace saloba;
  util::ArgParser args("read_mapping", "seed-and-extend read mapping demo");
  args.add_int("genome", "genome length in bases", 2 << 20);
  args.add_int("reads", "number of simulated 250 bp reads", 1000);
  args.add_int("seed", "random seed", 42);
  if (!args.parse(argc, argv)) return 1;

  const auto genome_len = static_cast<std::size_t>(args.get_int("genome"));
  const auto n_reads = static_cast<std::size_t>(args.get_int("reads"));

  std::printf("generating %zu bp genome...\n", genome_len);
  auto genome = core::make_genome(genome_len, static_cast<std::uint64_t>(args.get_int("seed")));

  std::printf("simulating %zu Illumina-like reads (250 bp)...\n", n_reads);
  seq::ReadSimulator sim(genome, seq::ReadProfile::illumina_250bp(),
                         static_cast<std::uint64_t>(args.get_int("seed")) + 1);
  auto reads = sim.simulate(n_reads);

  util::Timer index_timer;
  seedext::ReadMapper mapper(genome, seedext::MapperParams{});
  std::printf("index built in %.1f ms (k-mer seeding)\n", index_timer.millis());

  std::vector<std::vector<seq::BaseCode>> read_seqs;
  read_seqs.reserve(reads.size());
  for (const auto& r : reads) read_seqs.push_back(r.read.bases);

  // The per-read oracle (per-job CPU extension), host-parallel across reads.
  util::Timer map_timer;
  std::vector<seedext::ReadMapping> mappings(read_seqs.size());
  util::parallel_for_indexed(read_seqs.size(),
                             [&](std::size_t i) { mappings[i] = mapper.map(read_seqs[i]); });
  double map_ms = map_timer.millis();

  std::size_t mapped = 0, correct = 0, strand_ok = 0;
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    if (!mappings[i].mapped) continue;
    ++mapped;
    auto dist = mappings[i].ref_pos > reads[i].true_pos
                    ? mappings[i].ref_pos - reads[i].true_pos
                    : reads[i].true_pos - mappings[i].ref_pos;
    if (dist <= 20) ++correct;
    if (mappings[i].reverse_strand == reads[i].reverse_strand) ++strand_ok;
  }

  std::printf("\nmapped      %zu/%zu (%.1f%%)\n", mapped, reads.size(),
              100.0 * static_cast<double>(mapped) / static_cast<double>(reads.size()));
  std::printf("accurate    %zu/%zu within 20 bp of the true origin\n", correct, mapped);
  std::printf("strand      %zu/%zu correct\n", strand_ok, mapped);
  std::printf("throughput  %.0f reads/s (%.1f ms total, %d threads)\n",
              static_cast<double>(reads.size()) / (map_ms / 1e3), map_ms,
              util::max_parallel_threads());

  auto jobs = mapper.collect_jobs(read_seqs);
  std::printf("\nextension jobs the mapper handed to the kernel layer: %zu\n", jobs.size());

  // The same mapping with the extension stage batched through the public
  // Aligner/scheduler path (simulated SALoBa kernel) instead of per-job CPU
  // calls — the paper's Sec. V-D pipeline shape. Mappings must not change:
  // any disagreement fails the run.
  core::AlignerOptions ext_opts;
  ext_opts.backend = core::Backend::kSimulated;
  ext_opts.kernel = "saloba-sw16";
  core::Aligner extender(ext_opts);
  util::Timer batched_timer;
  auto batched = mapper.map_batch(read_seqs, extender.batch_extender());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    agree += batched[i].mapped == mappings[i].mapped &&
             (!batched[i].mapped || (batched[i].ref_pos == mappings[i].ref_pos &&
                                     batched[i].score == mappings[i].score));
  }
  std::printf("batched extension through the simulated kernel: %zu/%zu mappings identical "
              "(%.1f ms host)\n",
              agree, mappings.size(), batched_timer.millis());
  if (agree != mappings.size()) {
    std::fprintf(stderr, "FAIL: %zu batched mappings differ from the per-read path\n",
                 mappings.size() - agree);
    return 1;
  }
  return 0;
}
