// Inter-sequence SIMD extension engine (ROADMAP: "SIMD-striped extension on
// the host path"). Packs independent (query, reference) extension jobs into
// vector lanes — 32 pairs at 8-bit, 16 at 16-bit — and runs the banded
// affine DP on all of them in lockstep, AnySeq/GPU-style inter-task
// parallelism on the host. Results (score, ref_end, query_end,
// cells computed) are bit-identical to align::smith_waterman_banded /
// align::align_batch; overflow is handled by a widening rescue ladder:
//
//   8-bit saturating lanes  ->  16-bit saturating lanes  ->  int32 scalar
//
// A lane whose running score saturates is evicted and re-run in the next
// wider pass; pairs too long for 16-bit index bookkeeping go straight to
// the int32 path, smith_waterman_banded (whose band 0 is the full table).
//
// trace_batch is the same ladder in traced mode: one checkpointed cohort
// pass per width produces every lane's end (align_batch's) and CIGAR
// (bit-identical to align::banded_traceback) from one forward sweep, and
// align::banded_traceback itself is the int32 rung.
//
// ISA selection is a runtime decision: when the build enables AVX2
// (SALOBA_SIMD_AVX2) and the CPU reports it, the intrinsic kernels from
// simd_engine_avx2.cpp run; otherwise the portable OpsGeneric kernels do.
// Both implement the same Ops vocabulary (simd_vec.hpp) against the same
// kernel template (simd_kernel.hpp), so outputs never depend on the ISA.
#pragma once

#include <cstddef>
#include <vector>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "seq/sequence.hpp"

namespace saloba::align::simd {

/// True when this binary contains the AVX2 kernels (build-time flag).
bool compiled_with_avx2();

/// True when the host CPU reports AVX2 (runtime CPUID).
bool cpu_supports_avx2();

/// The kernel flavor align_batch will dispatch to: "avx2" or "generic".
const char* isa_name();

/// Per-call engine telemetry.
struct EngineStats {
  std::size_t pairs = 0;          ///< total pairs aligned
  std::size_t pairs_8bit = 0;     ///< settled by the 8-bit pass
  std::size_t rescued_16bit = 0;  ///< settled by the 16-bit rescue pass
  std::size_t rescued_32bit = 0;  ///< settled by int32 scalar (incl. oversize)
  std::size_t cohorts = 0;        ///< vector cohorts executed (both widths)
  std::size_t cells = 0;          ///< in-band DP cells, oracle-identical count
  bool avx2 = false;              ///< intrinsic kernels were dispatched
  double wall_ms = 0.0;
};

/// Aligns every pair of `batch` through the SIMD ladder. Honors per-pair
/// bands (seq::PairBatch::band_of) exactly like align::align_batch — same
/// scores, same endpoints, same cell counts, deterministic input-order
/// output. `threads` caps host threads across cohorts (0 = default team).
std::vector<AlignmentResult> align_batch(const seq::PairBatch& batch,
                                         const ScoringScheme& scoring,
                                         EngineStats* stats = nullptr, int threads = 0);

/// Per-call telemetry of trace_batch.
struct TraceStats {
  std::size_t pairs = 0;          ///< non-empty pairs swept
  std::size_t pairs_8bit = 0;     ///< traced by the 8-bit cohort pass
  std::size_t rescued_16bit = 0;  ///< traced by the 16-bit rescue pass
  /// Traced by align::banded_traceback: oversize pairs, pairs whose cohort
  /// working set alone would exceed the cap, and 16-bit saturations.
  std::size_t scalar_pairs = 0;
  /// In-band cells of the forward sweeps: align_batch's count for the same
  /// batch.
  std::size_t forward_cells = 0;
  /// In-band cells re-derived for the walks (at most forward_cells).
  std::size_t replay_cells = 0;
};

/// Aligns and traces every pair of `batch` in one forward sweep per pair:
/// each TracedAlignment's `end` is align_batch's result for that pair, and
/// its start coordinates and CIGAR are bit-identical to
/// align::banded_traceback with the same band and checkpoint_rows. Empty
/// and zero-score pairs get the empty TracedAlignment. Cohorts of 32
/// (8-bit) or 16 (16-bit rescue) pairs run the checkpointed traced kernel:
/// a forward sweep saving H/F every K rows, then bottom-up K-row block
/// replays storing per-cell flag bytes that each lane walks. K =
/// `checkpoint_rows`, or ~sqrt(rows) when 0 (align::TracebackParams
/// semantics). Per-pair bands come from the batch. Output is deterministic
/// and in input order. `threads` caps host threads across cohorts (0 =
/// default team).
std::vector<TracedAlignment> trace_batch(const seq::PairBatch& batch,
                                         const ScoringScheme& scoring,
                                         TraceStats* stats = nullptr, int threads = 0,
                                         std::size_t checkpoint_rows = 0);

}  // namespace saloba::align::simd
