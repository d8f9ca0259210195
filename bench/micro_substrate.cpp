// google-benchmark microbenches for the host-side substrate: these measure
// real wall time of the CPU components (the simulated-kernel figures use the
// cost model instead).
#include <benchmark/benchmark.h>

#include "align/sw_reference.hpp"
#include "align/sw_banded.hpp"
#include "align/batch.hpp"
#include "core/workload.hpp"
#include "kernels/block_dp.hpp"
#include "seedext/kmer_index.hpp"
#include "seq/packed_seq.hpp"
#include "util/rng.hpp"

namespace {

using namespace saloba;

std::vector<seq::BaseCode> random_seq(std::size_t len, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<seq::BaseCode> out(len);
  for (auto& b : out) b = static_cast<seq::BaseCode>(rng.below(4));
  return out;
}

void BM_SmithWatermanScalar(benchmark::State& state) {
  auto len = static_cast<std::size_t>(state.range(0));
  auto ref = random_seq(len, 1);
  auto query = random_seq(len, 2);
  align::ScoringScheme s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::smith_waterman(ref, query, s));
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(len) * static_cast<double>(len) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_SmithWatermanScalar)->Arg(128)->Arg(512)->Arg(2048);

void BM_SmithWatermanBanded(benchmark::State& state) {
  auto ref = random_seq(2048, 3);
  auto query = random_seq(2048, 4);
  align::ScoringScheme s;
  auto band = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::smith_waterman_banded(ref, query, s, band));
  }
}
BENCHMARK(BM_SmithWatermanBanded)->Arg(32)->Arg(128)->Arg(512);

void BM_BlockDp8x8(benchmark::State& state) {
  auto ref = random_seq(8, 5);
  auto query = random_seq(8, 6);
  align::ScoringScheme s;
  auto bound = kernels::BlockBoundary::table_edge();
  kernels::BlockOutput out;
  for (auto _ : state) {
    kernels::block_dp(ref.data(), query.data(), 8, 8, 0, 0, bound, s, out);
    benchmark::DoNotOptimize(out);
  }
  state.counters["cells/s"] = benchmark::Counter(
      64.0 * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BlockDp8x8);

void BM_BatchAlignOpenMp(benchmark::State& state) {
  auto genome = core::make_genome(1 << 20);
  auto batch = core::make_fig6_batch(genome, 256, 256);
  align::ScoringScheme s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::align_batch(batch, s));
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(batch.total_cells()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BatchAlignOpenMp);

void BM_Pack4Bit(benchmark::State& state) {
  auto data = random_seq(1 << 16, 7);
  for (auto _ : state) {
    seq::PackedSeq packed(data, seq::Packing::k4Bit);
    benchmark::DoNotOptimize(packed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * (1 << 16));
}
BENCHMARK(BM_Pack4Bit);

void BM_KmerLookup(benchmark::State& state) {
  auto text = random_seq(1 << 20, 11);
  seedext::KmerIndex index(text, 16);
  util::Xoshiro256 rng(12);
  for (auto _ : state) {
    std::size_t pos = rng.below(text.size() - 16);
    std::span<const seq::BaseCode> kmer(text.data() + pos, 16);
    benchmark::DoNotOptimize(index.lookup(kmer));
  }
}
BENCHMARK(BM_KmerLookup);

}  // namespace
