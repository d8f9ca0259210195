// Cost-aware LPT across mixed device presets (ROADMAP "Heterogeneous
// lanes"): the same skewed batch partitioned over a gtx1650+rtx3090 pair by
// (a) uniform LPT — every lane treated as equally fast, the pre-weight
// scheduler — and (b) weighted LPT driven by the backend's lane_weight
// hints. Each shard runs on its assigned simulated device; the harness
// reports per-lane busy time, makespan and weighted imbalance for both
// schemes, verifies results stay identical either way, and exits non-zero
// unless weighted LPT strictly beats uniform LPT on makespan.
//
//   $ ./heterogeneous_lanes --pairs=300 --device=gtx1650,rtx3090
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/autotune.hpp"
#include "core/backend.hpp"
#include "core/workload.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace saloba;

namespace {

// Bimodal lengths (85% short reads, 15% kbp-scale tail) — the regime where
// an unbalanced partition is expensive enough to see.
seq::PairBatch skewed_batch(std::size_t pairs, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t i = 0; i < pairs; ++i) {
    std::size_t len = rng.bernoulli(0.15) ? 800 + rng.below(1200) : 40 + rng.below(120);
    std::vector<seq::BaseCode> q(len), r(len);
    for (auto& b : q) b = static_cast<seq::BaseCode>(rng.below(4));
    for (auto& b : r) b = static_cast<seq::BaseCode>(rng.below(4));
    batch.add(std::move(q), std::move(r));
  }
  return batch;
}

struct SchemeOutcome {
  std::size_t shards = 0;
  std::vector<double> lane_ms;
  std::vector<align::AlignmentResult> results;
  double makespan_ms = 0.0;
  double imbalance = 0.0;
};

// Partitions the batch with the given lane weights and runs every shard on
// its assigned lane, accumulating per-lane simulated time.
SchemeOutcome run_scheme(core::AlignBackend& backend, const seq::PairBatch& batch,
                         const std::vector<double>& weights, std::size_t max_shard_pairs) {
  SchemeOutcome out;
  out.lane_ms.assign(weights.size(), 0.0);
  out.results.resize(batch.size());
  auto shards = gpusim::make_shards(batch, weights, gpusim::SplitPolicy::kSorted,
                                    max_shard_pairs);
  out.shards = shards.size();
  for (const gpusim::Shard& shard : shards) {
    auto bo = backend.run(shard.batch, shard.lane);
    out.lane_ms[static_cast<std::size_t>(shard.lane)] += bo.time_ms;
    for (std::size_t i = 0; i < shard.indices.size(); ++i) {
      out.results[shard.indices[i]] = bo.items[i];
    }
  }
  double sum = 0.0;
  for (double ms : out.lane_ms) {
    out.makespan_ms = std::max(out.makespan_ms, ms);
    sum += ms;
  }
  out.imbalance =
      sum > 0.0 ? out.makespan_ms / (sum / static_cast<double>(out.lane_ms.size())) : 0.0;
  return out;
}

std::string lane_ms_cell(const std::vector<double>& lane_ms) {
  std::string s;
  for (std::size_t l = 0; l < lane_ms.size(); ++l) {
    if (l) s += " / ";
    s += util::Table::ms(lane_ms[l]);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("heterogeneous_lanes",
                       "weighted vs uniform LPT across mixed device presets");
  args.add_int("pairs", "pairs in the skewed workload", 300);
  args.add_string("kernel", "simulated kernel", "saloba");
  args.add_string("device", "comma-separated preset list", "gtx1650,rtx3090");
  if (!args.parse(argc, argv)) return 1;

  const auto pairs = static_cast<std::size_t>(args.get_int("pairs"));
  auto batch = skewed_batch(pairs, 33);

  core::AlignerOptions opts;
  opts.backend = core::Backend::kSimulated;
  opts.kernel = args.get_string("kernel");
  opts.device = args.get_string("device");
  auto backend = core::make_backend(opts);

  const std::vector<double> weighted = core::lane_weights(*backend);
  const std::vector<double> uniform(weighted.size(), 1.0);
  // Same shard cap for both schemes (the weight-aware autotuner's pick), so
  // the comparison isolates the lane-assignment policy.
  const std::size_t cap = core::recommend_scheduler(core::stats_of(batch), weighted)
                              .max_shard_pairs;

  auto uni = run_scheme(*backend, batch, uniform, cap);
  auto wei = run_scheme(*backend, batch, weighted, cap);
  const bool identical = uni.results == wei.results;
  const bool faster = wei.makespan_ms < uni.makespan_ms;

  std::printf("=== heterogeneous_lanes — %zu pairs, %s, shard cap %zu ===\n", pairs,
              backend->name().c_str(), cap);
  std::printf("lane weights:");
  for (double w : weighted) std::printf(" %.2f", w);
  std::printf("  (relative throughput, slowest lane = 1)\n\n");

  util::Table table({"scheme", "shards", "per-lane ms", "makespan", "imbalance"});
  table.add_row({"uniform LPT", std::to_string(uni.shards), lane_ms_cell(uni.lane_ms),
                 util::Table::ms(uni.makespan_ms), util::Table::num(uni.imbalance, 2)});
  table.add_row({"weighted LPT", std::to_string(wei.shards), lane_ms_cell(wei.lane_ms),
                 util::Table::ms(wei.makespan_ms), util::Table::num(wei.imbalance, 2)});
  std::printf("%s\n", table.render().c_str());
  std::printf("weighted vs uniform makespan: %.2fx %s; results identical: %s\n",
              uni.makespan_ms > 0 ? uni.makespan_ms / wei.makespan_ms : 0.0,
              faster ? "faster" : "NOT FASTER", identical ? "yes" : "NO");
  return faster && identical ? 0 : 1;
}
