// Long-read (PacBio-like) seed extension — the paper's dataset-B scenario.
// Collects real extension jobs from the pipeline, then runs them through
// GASAL2-like and SALoBa kernels on a simulated device, reporting the
// speedup and the counters that explain it.
//
//   $ ./long_read_extension --reads=200 --device=rtx3090
#include <cstdio>

#include "align/batch.hpp"
#include "core/aligner.hpp"
#include "core/workload.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace saloba;
  util::ArgParser args("long_read_extension", "dataset-B-style long read extension");
  args.add_int("reads", "number of ~2 kbp reads", 150);
  args.add_string("device", "gtx1650 | rtx3090 | p100 | v100", "rtx3090");
  if (!args.parse(argc, argv)) return 1;

  auto genome = core::make_genome(4 << 20);
  auto ds = core::make_dataset_b(genome, static_cast<std::size_t>(args.get_int("reads")));
  std::printf("dataset B': %zu jobs from %zu reads; mean query %.0f bp, mean ref %.0f bp, "
              "CV %.2f\n\n",
              ds.stats.jobs, ds.stats.reads, ds.stats.mean_query_len, ds.stats.mean_ref_len,
              ds.stats.cv_query_len);

  // CPU oracle for correctness and a wall-clock reference point.
  align::BatchTiming cpu_timing;
  auto cpu_results = align::align_batch(ds.batch, align::ScoringScheme{}, &cpu_timing);
  std::printf("CPU (OpenMP) oracle: %.1f ms wall, %.2f GCUPS\n\n", cpu_timing.wall_ms,
              cpu_timing.gcups);

  util::Table table({"Kernel", "Sim time", "Lane util", "DRAM MB", "Matches CPU"});
  double gasal_ms = 0;
  for (const char* kernel : {"gasal2", "saloba-sw16"}) {
    core::AlignerOptions opts;
    opts.backend = core::Backend::kSimulated;
    opts.kernel = kernel;
    opts.device = args.get_string("device");
    core::Aligner aligner(opts);
    auto out = aligner.align(ds.batch);
    bool match = out.results == cpu_results;
    if (std::string(kernel) == "gasal2") gasal_ms = out.time_ms;
    table.add_row({kernel, util::Table::ms(out.time_ms),
                   util::Table::num(out.kernel_stats->totals.lane_utilization(32), 2),
                   util::Table::num(out.time_breakdown->dram_bytes / 1e6, 1),
                   match ? "yes" : "NO"});
    if (std::string(kernel) != "gasal2" && gasal_ms > 0) {
      std::printf("SALoBa speedup over GASAL2 on %s: %.2fx (paper Fig. 8(b): ~2x)\n",
                  opts.device.c_str(), gasal_ms / out.time_ms);
    }
  }
  std::printf("\n%s", table.render().c_str());

  // Multi-GPU (Sec. VII-C) through the public API: the Aligner's scheduler
  // shards the batch across simulated devices with sorted packing and
  // reports the makespan as the batch's wall time. On one device the
  // Aligner would run the batch in input order, so the baseline the sorted
  // multi-device runs are divided by is one sorted shard (a shard cap of the
  // batch size) on a bare BatchScheduler.
  std::printf("\nmulti-device scaling (saloba-sw16, sorted sharding):\n");
  double one_device_ms = 0.0;
  for (int devices : {1, 2, 4}) {
    core::AlignerOptions opts;
    opts.backend = core::Backend::kSimulated;
    opts.kernel = "saloba-sw16";
    opts.device = args.get_string("device");
    opts.devices = devices;
    core::AlignOutput out;
    if (devices > 1) {
      out = core::Aligner(opts).align(ds.batch);
    } else {
      core::SimulatedGpuBackend backend(opts);
      core::SchedulerOptions sched;  // kSorted
      sched.max_shard_pairs = ds.batch.size();
      out = core::BatchScheduler(&backend, sched).run(ds.batch);
    }
    if (devices == 1) one_device_ms = out.time_ms;
    std::printf("  %d device(s): %8.3f ms simulated (%zu shards, imbalance %.2f, %.2fx)\n",
                devices, out.time_ms, out.schedule.shards, out.schedule.imbalance,
                one_device_ms / out.time_ms);
  }
  return 0;
}
