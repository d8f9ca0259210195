// Per-warp event counters and kernel-level aggregates. These are the raw
// measurements the cost model converts into simulated time, and the
// quantities bench/table1_memory reports against the paper's formulas.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace saloba::gpusim {

/// The batch phases modeled apart from the score pass, each with its own
/// work counter, traffic counter and time slot:
///   kTraceback — a traced run's trace phase on a simulated device: cells
///                the checkpointed engine swept forward plus cells
///                re-derived walking back;
///   kChaining  — the batched forward-only chaining pass: push + settlement
///                candidates evaluated (structural, ISA-independent);
///   kXdrop     — long-read X-drop wavefront pairs routed off the block
///                kernels: forward sweep + linear-memory traceback cells.
enum class Phase : std::uint8_t { kTraceback, kChaining, kXdrop };

inline constexpr std::array<Phase, 3> kPhases = {Phase::kTraceback, Phase::kChaining,
                                                 Phase::kXdrop};

/// Lower-case phase name ("traceback", "chaining", "xdrop").
const char* phase_name(Phase phase);

/// One value per Phase, indexed by the enum.
template <typename T>
struct PerPhase {
  std::array<T, kPhases.size()> slots{};

  T& operator[](Phase p) { return slots[static_cast<std::size_t>(p)]; }
  const T& operator[](Phase p) const { return slots[static_cast<std::size_t>(p)]; }
};

/// One phase's modeled work units and the DRAM traffic they cost.
struct PhaseCost {
  std::uint64_t work = 0;
  std::uint64_t bytes = 0;

  PhaseCost& operator+=(const PhaseCost& other) {
    work += other.work;
    bytes += other.bytes;
    return *this;
  }
};

struct WarpCounters {
  std::uint64_t instructions = 0;        ///< warp-wide issue slots (divergence included)
  std::uint64_t active_lane_ops = 0;     ///< Σ active lanes over those slots
  std::uint64_t global_requests = 0;     ///< warp memory instructions to global
  std::uint64_t global_transactions = 0;
  std::uint64_t global_bytes_moved = 0;  ///< includes granularity waste
  std::uint64_t global_bytes_useful = 0;
  std::uint64_t shared_requests = 0;
  std::uint64_t shared_conflict_cycles = 0;  ///< extra cycles from bank conflicts
  std::uint64_t syncs = 0;
  std::uint64_t dp_cells = 0;            ///< functional work: DP cells computed
  /// DP cells pruned by banded extension (Sec. VII-B): cells of the nominal
  /// |q|·|r| table the kernel never evaluated because they fall outside
  /// |i - j| <= band. dp_cells + dp_cells_skipped == the batch's full-table
  /// cell count, so the two together account for the banded saving exactly.
  std::uint64_t dp_cells_skipped = 0;
  /// Work and traffic of the phases modeled apart from the score pass (see
  /// Phase). Kept out of dp_cells and the global_bytes counters so the score
  /// pass's Table-I accounting is untouched.
  PerPhase<PhaseCost> phases;

  void merge(const WarpCounters& other);

  /// Mean active lanes per issued instruction, in [0,1] relative to 32.
  double lane_utilization(int warp_size) const;
};

struct KernelStats {
  WarpCounters totals;
  std::uint64_t warps = 0;
  std::uint64_t blocks = 0;

  void merge(const KernelStats& other);
  std::string summary(int warp_size) const;
};

}  // namespace saloba::gpusim
