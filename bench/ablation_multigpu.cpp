// Ablation E10 (paper Sec. VII-C, future work): multi-GPU scaling. Splits a
// workload across 1-4 simulated devices through the public Aligner →
// BatchScheduler path and compares the two assignment policies; total time
// = makespan over devices. Each policy's k-GPU speedup divides its own 1-GPU
// row, which runs the whole batch as one shard in that policy's order; the
// bench exits non-zero if any k-GPU speedup exceeds k.
#include <cstdio>
#include <string>

#include "core/aligner.hpp"
#include "core/backend.hpp"
#include "core/scheduler.hpp"
#include "core/workload.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace saloba;

namespace {

/// Runs `batch` on `devices` simulated devices under `policy`, one shard
/// per device. On one device the Aligner would run the caller's batch in
/// place, whatever the policy, so the 1-GPU row caps shards at batch.size()
/// on a bare BatchScheduler instead: one shard in the policy's order, the
/// baseline each policy's speedups divide.
core::AlignOutput run_split(const seq::PairBatch& batch, int devices,
                            gpusim::SplitPolicy policy, const std::string& device) {
  core::AlignerOptions opts;
  opts.backend = core::Backend::kSimulated;
  opts.kernel = "saloba-sw16";
  opts.device = device;
  opts.devices = devices;
  opts.split_policy = policy;
  if (devices > 1) return core::Aligner(opts).align(batch);
  core::SimulatedGpuBackend backend(opts);
  core::SchedulerOptions sched;
  sched.policy = policy;
  sched.max_shard_pairs = batch.size();
  return core::BatchScheduler(&backend, sched).run(batch);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablation_multigpu", "multi-GPU splitting policies (Sec. VII-C)");
  args.add_int("reads", "long reads for the workload", 200);
  args.add_string("device", "gtx1650 | rtx3090 | p100 | v100", "rtx3090");
  if (!args.parse(argc, argv)) return 1;

  auto genome = core::make_genome(4 << 20);
  auto ds = core::make_dataset_b(genome, static_cast<std::size_t>(args.get_int("reads")));
  const auto& batch = ds.batch;
  const std::string device = args.get_string("device");

  util::Table table({"GPUs", "Static split", "Sorted split", "Imbalance (sorted)",
                     "Speedup (static)", "Speedup (sorted)"});
  double static_base = 0.0;
  double sorted_base = 0.0;
  bool superlinear = false;
  for (int k : {1, 2, 3, 4}) {
    auto statik = run_split(batch, k, gpusim::SplitPolicy::kStatic, device);
    auto sorted = run_split(batch, k, gpusim::SplitPolicy::kSorted, device);
    if (k == 1) {
      static_base = statik.time_ms;
      sorted_base = sorted.time_ms;
    }
    const double static_speedup = static_base / statik.time_ms;
    const double sorted_speedup = sorted_base / sorted.time_ms;
    // k devices can at best divide the work by k; modeled times are
    // deterministic, so the slack only absorbs floating-point rounding.
    for (double speedup : {static_speedup, sorted_speedup}) {
      if (speedup > k * (1.0 + 1e-9)) superlinear = true;
    }
    table.add_row({std::to_string(k), util::Table::ms(statik.time_ms),
                   util::Table::ms(sorted.time_ms),
                   util::Table::num(sorted.schedule.imbalance, 2),
                   util::Table::num(static_speedup, 2) + "x",
                   util::Table::num(sorted_speedup, 2) + "x"});
  }
  std::printf(
      "Multi-GPU splitting — dataset B' (%zu jobs) on simulated %ss\n"
      "(public Aligner path: shards async across devices; modeled batch times;\n"
      "each policy's speedup is over its own 1-GPU row, one shard in its order)\n\n%s\n",
      batch.size(), device.c_str(), table.render().c_str());
  std::printf(
      "Expected (Sec. VII-C): near-linear scaling; sorting long jobs first narrows\n"
      "the inter-GPU imbalance penalty, matching the paper's proposed mitigation.\n");
  if (superlinear) {
    std::fprintf(stderr, "FAIL: a k-GPU speedup exceeds k over its policy's 1-GPU row\n");
    return 1;
  }
  return 0;
}
