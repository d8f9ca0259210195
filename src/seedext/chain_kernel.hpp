// Forward-only fixed-lookahead chaining kernel, written once against the
// align::simd::OpsI32Generic vocabulary (simd_vec.hpp) and instantiated with
// the generic ops in chain_engine.cpp and the AVX2 ops
// (align/simd_vec_avx2.hpp) in chain_engine_avx2.cpp.
//
// The recurrence is the minimap2-acceleration reordering of the chaining DP:
// instead of each anchor i scanning all predecessors j < i (data-dependent
// trip count, backward gather), each anchor i — once its own score is final —
// *pushes* a score candidate to its next kChainLookahead successors
// (fixed trip count, unit-stride scatter over SoA columns, branch-light).
// Anchors whose best predecessor sits further back than the lookahead window
// are handled by an exact scalar *settlement* scan over the residual range
// [qlo(i), i - kChainLookahead), run just before anchor i's pushes, using
// the same int64 arithmetic as the sequential oracle (chaining.cpp).
//
// Bit-identity with the oracle is by construction:
//  * pushes into anchor i arrive in ascending j (the outer loop order), and
//    the strict `cand > score` update keeps the earliest j on ties — the
//    oracle's tie-break — within the window;
//  * residual candidates are earlier j than every window candidate, so the
//    merge adopts the residual best exactly when the oracle's ascending scan
//    would have: when it strictly beats the window result, or ties it while
//    actually naming a predecessor (rparent >= 0; the oracle scans residual
//    j first and a later equal window candidate cannot displace it);
//  * all vector arithmetic is exact int32 for eligible lanes (the
//    ChainBatch::task_simd_safe envelope) and wrapping-identical across ISAs
//    for masked-out lanes, so no result ever depends on the instruction set.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "align/simd_vec.hpp"
#include "seedext/chaining.hpp"

namespace saloba::seedext::detail {

/// Successors each settled anchor pushes to. 64 = 8 vector blocks of 8
/// int32 lanes: long enough that on realistic seed densities nearly every
/// best predecessor is in-window (settlement stays cold), short enough that
/// the push loop is a handful of unrolled, mask-blend vector blocks.
inline constexpr std::size_t kChainLookahead = 64;

/// One task's mutable kernel view: SoA anchor columns plus the score/parent
/// arrays being filled. Columns must be padded with kChainLookahead + lane
/// sentinel anchors (len = 0, rpos = 0: rgap < 0 for every real pusher, so
/// sentinels are never eligible) past `n`.
struct ChainTaskView {
  const std::int32_t* qpos = nullptr;
  const std::int32_t* rpos = nullptr;
  const std::int32_t* len = nullptr;
  const std::int32_t* diag = nullptr;
  std::int32_t* score = nullptr;   ///< padded like the columns
  std::int32_t* parent = nullptr;  ///< padded like the columns
  std::size_t n = 0;               ///< real anchors (excluding padding)
};

struct ChainTaskCounters {
  std::size_t pushes = 0;   ///< vector push candidates evaluated (incl. padding lanes)
  std::size_t settled = 0;  ///< residual scalar candidates examined
};

/// Runs the forward-only DP for one task. Requires the task to be inside the
/// ChainBatch::task_simd_safe envelope. Fills score[0..n) / parent[0..n)
/// bit-identically to chain_dp.
template <typename Ops>
void chain_task_forward(const ChainTaskView& task, const ChainingParams& params,
                        ChainTaskCounters* counters) {
  using Vec = typename Ops::Vec;
  constexpr int kLanes = Ops::kLanes;
  const std::size_t n = task.n;
  if (n == 0) return;

  std::int32_t max_len = 0;
  for (std::size_t i = 0; i < n; ++i) {
    task.score[i] = task.len[i];
    task.parent[i] = -1;
    max_len = std::max(max_len, task.len[i]);
  }
  // Padding lanes: scores/parents are written through blends, so give them
  // defined values (never read back — sentinels are never eligible targets
  // of a real anchor's chain, and the outer loop stops at n).
  for (std::size_t i = n; i < n + kChainLookahead + kLanes; ++i) {
    task.score[i] = 0;
    task.parent[i] = -1;
  }

  const std::int32_t max_gap = static_cast<std::int32_t>(params.max_gap);
  const std::int32_t max_drift = static_cast<std::int32_t>(params.max_diag_drift);
  const Vec v_minus1 = Ops::splat(-1);
  const Vec v_one = Ops::splat(1);
  const Vec v_gap_hi = Ops::splat(max_gap);      // eligible: gap <= max_gap
  const Vec v_drift_hi = Ops::splat(max_drift);  // eligible: drift <= max_drift
  const Vec v_num = Ops::splat(params.gap_cost_num);

  ChainTaskCounters local;
  std::size_t qlo = 0;  // residual-scan lower bound, monotone in i
  for (std::size_t i = 0; i < n; ++i) {
    // --- exact settlement: residual predecessors below the window ---------
    if (i > kChainLookahead) {
      const std::int64_t qmin =
          static_cast<std::int64_t>(task.qpos[i]) - params.max_gap - max_len;
      while (qlo < i && static_cast<std::int64_t>(task.qpos[qlo]) < qmin) ++qlo;
      std::int64_t rbest = 0;
      std::int32_t rparent = -1;
      const std::size_t residual_end = i - kChainLookahead;
      for (std::size_t j = qlo; j < residual_end; ++j) {
        const std::int64_t qgap =
            static_cast<std::int64_t>(task.qpos[i]) - (task.qpos[j] + task.len[j]);
        const std::int64_t rgap =
            static_cast<std::int64_t>(task.rpos[i]) - (task.rpos[j] + task.len[j]);
        ++local.settled;
        if (qgap < 0 || rgap < 0) continue;
        if (qgap > params.max_gap || rgap > params.max_gap) continue;
        const std::int64_t drift = std::llabs(static_cast<std::int64_t>(task.diag[i]) -
                                              static_cast<std::int64_t>(task.diag[j]));
        if (drift > params.max_diag_drift) continue;
        const std::int64_t cand =
            task.score[j] + task.len[i] -
            chain_gap_penalty(std::max(qgap, rgap), params.gap_cost_num);
        if (rparent < 0 ? cand > task.len[i] : cand > rbest) {
          rbest = cand;
          rparent = static_cast<std::int32_t>(j);
        }
      }
      // Merge (oracle order: residual j precede window j in the ascending
      // scan): residual wins on strictly-greater, or on an equal score when
      // it names a real predecessor — see the header comment's proof.
      if (rparent >= 0 &&
          (rbest > task.score[i] || (rbest == task.score[i] && task.parent[i] >= 0))) {
        task.score[i] = static_cast<std::int32_t>(rbest);
        task.parent[i] = rparent;
      }
    }

    // --- vector push: anchor i -> targets (i, i + kChainLookahead] --------
    const Vec v_qend = Ops::splat(task.qpos[i] + task.len[i]);
    const Vec v_rend = Ops::splat(task.rpos[i] + task.len[i]);
    const Vec v_diag_i = Ops::splat(task.diag[i]);
    const Vec v_base = Ops::splat(task.score[i]);  // settled — safe to push
    const Vec v_i = Ops::splat(static_cast<std::int32_t>(i));
    for (std::size_t b = 0; b < kChainLookahead; b += kLanes) {
      const std::size_t t0 = i + 1 + b;
      const Vec qgap = Ops::sub(Ops::load(task.qpos + t0), v_qend);
      const Vec rgap = Ops::sub(Ops::load(task.rpos + t0), v_rend);
      // eligible: qgap >= 0, rgap >= 0, both <= max_gap, |Δdiag| <= drift.
      // A lane is eligible when qgap >= 0, rgap >= 0, both <= max_gap and
      // |Δdiag| <= max_drift. `x <= hi` is evaluated as `hi > x - 1`, exact
      // for lanes that already passed the x >= 0 test (no wrap possible).
      Vec mask = Ops::vand(Ops::cmpgt(qgap, v_minus1), Ops::cmpgt(rgap, v_minus1));
      mask = Ops::vand(mask, Ops::vand(Ops::cmpgt(v_gap_hi, Ops::sub(qgap, v_one)),
                                       Ops::cmpgt(v_gap_hi, Ops::sub(rgap, v_one))));
      const Vec drift = Ops::sabs(Ops::sub(Ops::load(task.diag + t0), v_diag_i));
      mask = Ops::vand(mask, Ops::cmpgt(v_drift_hi, Ops::sub(drift, v_one)));
      const Vec gap = Ops::smax(qgap, rgap);
      const Vec penalty = Ops::template sra<kGapCostShift>(Ops::mullo(gap, v_num));
      const Vec cand = Ops::add(v_base, Ops::sub(Ops::load(task.len + t0), penalty));
      const Vec old_score = Ops::load(task.score + t0);
      const Vec upd = Ops::vand(mask, Ops::cmpgt(cand, old_score));
      local.pushes += kLanes;
      if (!Ops::any(upd)) continue;
      Ops::store(task.score + t0, Ops::blend(upd, cand, old_score));
      Ops::store(task.parent + t0,
                 Ops::blend(upd, v_i, Ops::load(task.parent + t0)));
    }
  }
  if (counters) {
    counters->pushes += local.pushes;
    counters->settled += local.settled;
  }
}

}  // namespace saloba::seedext::detail
