// Shared plumbing for the figure/table harnesses.
//
// Batch scaling: the paper runs 5,000 pairs per kernel call on silicon. A
// functional simulator cannot afford that at 4 kbp, so harnesses simulate a
// smaller batch at long lengths and scale the simulated time linearly to the
// nominal batch (valid because at these batch sizes every device resource is
// time-shared: counters grow linearly in pairs). The scaling factor is
// printed with each run. Footprint checks always use the nominal 5,000
// (kernels are constructed with nominal_pairs = 5000), so paper-scale OOM
// failures still reproduce.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "core/aligner.hpp"
#include "gpusim/device.hpp"
#include "kernels/kernel_iface.hpp"
#include "kernels/saloba_kernel.hpp"
#include "seq/sequence.hpp"
#include "util/table.hpp"

namespace saloba::bench {

inline constexpr std::size_t kNominalPairs = 5000;  // paper Sec. V-B

/// Kernel factory with paper-scale footprint checks baked in: every kernel
/// is constructed through the registry with nominal_pairs = 5000.
inline kernels::KernelPtr make_paper_kernel(const std::string& name) {
  return kernels::make_kernel(name, kNominalPairs);
}

struct RunOutcome {
  bool ok = false;
  std::string failure;     ///< reason when !ok (structural / OOM)
  double time_ms = 0.0;    ///< simulated ms, scaled to the nominal batch
  double raw_time_ms = 0.0;
  double scale = 1.0;
  gpusim::KernelStats stats;
  gpusim::TimeBreakdown breakdown;
};

/// Runs `kernel` on `batch` against a fresh device; scales time to
/// `nominal_pairs` when the batch is smaller.
inline RunOutcome run_kernel(const std::string& kernel_name, const gpusim::DeviceSpec& spec,
                             const seq::PairBatch& batch,
                             const align::ScoringScheme& scoring,
                             std::size_t nominal_pairs = kNominalPairs) {
  RunOutcome out;
  out.scale = batch.size() < nominal_pairs
                  ? static_cast<double>(nominal_pairs) / static_cast<double>(batch.size())
                  : 1.0;
  try {
    auto kernel = make_paper_kernel(kernel_name);
    gpusim::Device dev(spec);
    auto result = kernel->run(dev, batch, scoring);
    out.ok = true;
    out.raw_time_ms = result.time.total_ms;
    // Init overhead is already nominal-scale (init hooks use
    // max(nominal, batch)); everything else — compute, DRAM, and launch
    // overhead (proportional to pairs for multi-launch kernels like SW#) —
    // scales with the batch.
    double fixed = result.time.init_ms;
    double variable = result.time.total_ms - fixed;
    out.time_ms = variable * out.scale + fixed;
    out.stats = result.stats;
    out.breakdown = result.time;
  } catch (const kernels::KernelUnsupportedError& e) {
    out.failure = std::string("structural: ") + e.what();
  } catch (const gpusim::DeviceOomError& e) {
    out.failure = std::string("device memory: ") + e.what();
  }
  return out;
}

/// Batch size to simulate for an equal-length sweep at `len` bases: full
/// nominal batch at short lengths, scaled down past 512 bp.
inline std::size_t pairs_for_length(std::size_t len) {
  if (len <= 512) return kNominalPairs;
  if (len <= 1024) return 1280;
  if (len <= 2048) return 448;
  return 160;
}

inline std::string fmt_time_or_failure(const RunOutcome& out) {
  if (!out.ok) {
    return out.failure.substr(0, out.failure.find(':')) == "structural" ? "fail (structural)"
                                                                        : "fail (dev mem)";
  }
  return util::Table::ms(out.time_ms);
}

inline std::vector<std::string> comparison_kernels() {
  return {"soap3-dp", "cushaw2-gpu", "nvbio", "gasal2", "sw#", "adept"};
}

/// Device presets used throughout the evaluation (paper Sec. V-A).
inline std::vector<gpusim::DeviceSpec> paper_devices() {
  return {gpusim::DeviceSpec::gtx1650(), gpusim::DeviceSpec::rtx3090()};
}

}  // namespace saloba::bench
