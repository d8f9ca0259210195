// Shared-index cold-start amortization bench — the asserting harness CI runs
// as `index_amortization --quick`. Builds a chromosome-scale k-mer index,
// serializes it, and enforces the shared-index layer's two headline claims
// with measured numbers:
//
//   1. Amortization: a fresh mmap load (validate-and-adopt, payload checksum
//      included) costs <= 5% of the cold build+save — every warm tenant gets
//      the index >= 20x cheaper than rebuilding it.
//   2. Parity + bit-identity: mapping simulated reads through the
//      mmap-backed and reference-sharded seeding paths produces mappings
//      bit-identical to the in-memory monolithic index; the mmap path at
//      throughput parity (the zero-copy spans are the same arrays), the
//      sharded path within a bounded overhead (one directory probe per
//      shard per lookup — the price of scaling past the 32-bit position
//      limit).
//   3. Footprint: the resident k-mer index (directory + key suffixes +
//      positions) costs <= 8 bytes per indexed position whenever its key
//      suffixes fit 2 bytes, as they do for the CI run (k = 16, 2 Mbp).
//
// Emits BENCH_index.json. Any violation exits 1.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/aligner.hpp"
#include "seedext/pipeline.hpp"
#include "seedext/shared_index.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace saloba;

namespace {

bool check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

bool same_mappings(const std::vector<seedext::ReadMapping>& a,
                   const std::vector<seedext::ReadMapping>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].mapped != b[i].mapped || a[i].ref_pos != b[i].ref_pos ||
        a[i].reverse_strand != b[i].reverse_strand || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

/// Best mapping throughput (reads/s) over `repeats` runs — best-of damps
/// scheduler noise the same way the ablation harnesses do.
double best_reads_per_sec(const seedext::ReadMapper& mapper,
                          const std::vector<std::vector<seq::BaseCode>>& reads,
                          const seedext::BatchExtender& extend, int repeats,
                          std::vector<seedext::ReadMapping>* out = nullptr) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    util::Timer timer;
    auto mappings = mapper.map_batch(reads, extend);
    double secs = timer.seconds();
    if (secs > 0) best = std::max(best, static_cast<double>(reads.size()) / secs);
    if (out && r == 0) *out = std::move(mappings);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("index_amortization",
                       "shared-index cold build vs mmap load amortization + "
                       "mapping parity of the mmap/sharded paths");
  args.add_int("bases", "reference length in bases", 8 << 20);
  args.add_int("reads", "simulated reads to map", 1500);
  args.add_int("shards", "reference shards for the sharded path", 4);
  args.add_int("k", "k-mer length", 16);
  args.add_flag("quick", "CI smoke mode: 2 Mbp reference, fewer reads");
  if (!args.parse(argc, argv)) return 1;

  const bool quick = args.get_flag("quick");
  const std::size_t bases =
      quick ? (2 << 20) : static_cast<std::size_t>(std::max<std::int64_t>(args.get_int("bases"), 1 << 20));
  const std::size_t n_reads =
      quick ? 400 : static_cast<std::size_t>(std::max<std::int64_t>(args.get_int("reads"), 100));
  const std::size_t shards = static_cast<std::size_t>(std::max<std::int64_t>(args.get_int("shards"), 2));
  const int k = static_cast<int>(args.get_int("k"));

  seq::GenomeParams gp;
  gp.length = bases;
  gp.repeat_fraction = 0.05;
  gp.n_fraction = 0.001;
  const auto genome = seq::generate_genome(gp);

  const std::string path =
      (std::filesystem::temp_directory_path() / "saloba_bench_index.idx").string();
  std::filesystem::remove(path);

  // --- 1. Cold build(+save) vs fresh mmap load, registry bypassed. --------
  util::Timer timer;
  auto built = seedext::SharedIndex::build(genome, k);
  const double build_ms = timer.millis();
  timer.reset();
  seedext::write_shared_index(path, genome, built->kmer());
  const double save_ms = timer.millis();

  double load_ms = 1e30;  // best of 3: each load re-validates the checksum
  for (int r = 0; r < 3; ++r) {
    timer.reset();
    auto loaded = seedext::SharedIndex::load(path, genome, k);
    load_ms = std::min(load_ms, timer.millis());
    if (loaded->kmer().indexed_positions() != built->kmer().indexed_positions()) {
      std::printf("FAIL: loaded index disagrees with the built one\n");
      return 1;
    }
  }
  const double cold_ms = build_ms + save_ms;
  const double amortization = load_ms > 0 ? cold_ms / load_ms : 1e9;
  const seedext::KmerIndex& kmer = built->kmer();
  const std::size_t index_bytes = kmer.directory().size_bytes() +
                                  kmer.suffixes().size_bytes() + kmer.entries().size_bytes();
  const double bytes_per_position =
      static_cast<double>(index_bytes) /
      static_cast<double>(std::max<std::size_t>(kmer.indexed_positions(), 1));
  const int suffix_bytes = kmer.geometry().suffix_bytes;

  // --- 2. Mapping parity: in-memory vs mmap vs sharded. -------------------
  seq::ReadProfile profile = seq::ReadProfile::equal_length(150);
  profile.mutation_rate = 0.01;
  seq::ReadSimulator sim(genome, profile, 29);
  std::vector<std::vector<seq::BaseCode>> reads;
  for (auto& r : sim.simulate(n_reads)) reads.push_back(std::move(r.read.bases));

  core::Aligner aligner{core::AlignerOptions{}};
  const auto extend = aligner.batch_extender();
  const int repeats = quick ? 2 : 3;

  seedext::MapperParams plain_params;
  plain_params.k = k;
  seedext::ReadMapper plain(genome, plain_params);
  std::vector<seedext::ReadMapping> plain_map;
  const double plain_rps = best_reads_per_sec(plain, reads, extend, repeats, &plain_map);

  seedext::MapperParams mmap_params = plain_params;
  mmap_params.index_path = path;
  seedext::ReadMapper mmapped(genome, mmap_params);
  std::vector<seedext::ReadMapping> mmap_map;
  const double mmap_rps = best_reads_per_sec(mmapped, reads, extend, repeats, &mmap_map);

  seedext::MapperParams shard_params = plain_params;
  shard_params.index_shards = shards;
  seedext::ReadMapper sharded(genome, shard_params);
  std::vector<seedext::ReadMapping> shard_map;
  const double shard_rps = best_reads_per_sec(sharded, reads, extend, repeats, &shard_map);

  std::size_t mapped = 0;
  for (const auto& m : plain_map) mapped += m.mapped;

  std::printf("index_amortization — %zu bp reference, k=%d, %zu reads, %zu shards\n",
              genome.size(), k, reads.size(), shards);
  util::Table table({"Metric", "Value"});
  table.add_row({"cold build", util::Table::ms(build_ms)});
  table.add_row({"save", util::Table::ms(save_ms)});
  table.add_row({"mmap load (best of 3)", util::Table::ms(load_ms)});
  table.add_row({"amortization", util::Table::num(amortization, 1) + "x"});
  table.add_row({"indexed positions", std::to_string(kmer.indexed_positions())});
  table.add_row({"resident index", util::Table::num(static_cast<double>(index_bytes) / 1e6, 1) +
                                       " MB (" + std::to_string(suffix_bytes) +
                                       "-byte key suffixes)"});
  table.add_row({"bytes per indexed position", util::Table::num(bytes_per_position, 2)});
  table.add_row({"reads mapped", std::to_string(mapped) + " / " + std::to_string(reads.size())});
  table.add_row({"in-memory throughput", util::Table::num(plain_rps, 0) + " reads/s"});
  table.add_row({"mmap throughput", util::Table::num(mmap_rps, 0) + " reads/s"});
  table.add_row({"sharded throughput", util::Table::num(shard_rps, 0) + " reads/s"});
  std::printf("%s\n", table.render().c_str());

  bool ok = true;
  ok &= check(load_ms <= 0.05 * cold_ms,
              "mmap load <= 5% of cold build+save (>= 20x amortization)");
  ok &= check(mapped > reads.size() / 2, "majority of simulated reads map");
  ok &= check(same_mappings(plain_map, mmap_map),
              "mmap-backed mappings bit-identical to in-memory");
  ok &= check(same_mappings(plain_map, shard_map),
              "sharded mappings bit-identical to in-memory");
  ok &= check(mmap_rps >= 0.7 * plain_rps,
              "mmap mapping throughput within 30% of in-memory (parity)");
  // Sharding trades per-lookup cost (one directory probe per shard — every
  // shard can hold a given k-mer) for references beyond the 32-bit position
  // limit; its claim is bit-identity plus bounded overhead, not parity.
  ok &= check(shard_rps >= 0.25 * plain_rps,
              "sharded mapping overhead bounded (>= 0.25x in-memory)");
  if (suffix_bytes == 2) {
    ok &= check(bytes_per_position <= 8.0,
                "resident k-mer index <= 8 bytes per indexed position (2-byte suffixes)");
  }

  if (std::FILE* f = std::fopen("BENCH_index.json", "w")) {
    std::fprintf(f,
                 "{\"bench\":\"index_amortization\",\"bases\":%zu,\"k\":%d,"
                 "\"reads\":%zu,\"shards\":%zu,\"build_ms\":%.3f,\"save_ms\":%.3f,"
                 "\"load_ms\":%.3f,\"amortization\":%.1f,\"index_bytes\":%zu,"
                 "\"bytes_per_position\":%.3f,\"suffix_bytes\":%d,\"mapped\":%zu,"
                 "\"plain_reads_per_s\":%.1f,\"mmap_reads_per_s\":%.1f,"
                 "\"sharded_reads_per_s\":%.1f,\"ok\":%s}\n",
                 genome.size(), k, reads.size(), shards, build_ms, save_ms, load_ms,
                 amortization, index_bytes, bytes_per_position, suffix_bytes, mapped,
                 plain_rps, mmap_rps, shard_rps,
                 ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_index.json\n");
  }

  std::filesystem::remove(path);
  return ok ? 0 : 1;
}
