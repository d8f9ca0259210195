// Extension-job extraction: turns chained seeds into the (query, reference)
// pairs a seed-extension kernel consumes — the exact interface between
// BWA-MEM's seeding stage and GASAL2/SALoBa in the paper (Sec. V-D), and the
// source of the Fig. 2 length distributions.
//
// BWA-MEM extends from each chain's anchor seed outwards in both directions.
// The reference window is wider than the remaining query (gaps may consume
// extra reference), which is why Fig. 2's reference distribution stretches
// to ~2× the read length. Outward extension is expressed as local alignment
// on the *reversed* prefix pair (left side) and the suffix pair (right side).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "seedext/chaining.hpp"
#include "seq/sequence.hpp"

namespace saloba::seedext {

struct ExtensionJob {
  std::vector<seq::BaseCode> query;
  std::vector<seq::BaseCode> ref;
  std::uint32_t read_id = 0;
  bool left = false;  ///< true = left-of-seed extension (sequences reversed)
  /// Genome coordinate the job's reference window starts at (after
  /// orientation); lets the mapper reconstruct positions.
  std::uint32_t ref_origin = 0;
  /// DP band for this job (Sec. VII-B): only cells with |i - j| <= band are
  /// computed, with out-of-band cells reading H = 0, E/F = -inf. Matches the
  /// gap budget that sized the reference window, so the whole corridor the
  /// extension can plausibly use stays in band; always >= 1.
  std::size_t band = 0;
};

struct JobParams {
  /// Reference window = query remainder + max(min_band, query·band_frac).
  /// Every job also carries that budget (at least 1) as its DP band
  /// (ExtensionJob::band), so downstream extension — CPU align_batch or any
  /// simulated kernel — prunes blocks outside |i - j| <= band.
  std::size_t min_band = 100;
  double band_frac = 1.0;
  /// Jobs shorter than this on the query side are dropped (nothing to do).
  std::size_t min_query = 1;
};

/// Jobs for one chain: left + right extension of the anchor (first) seed.
std::vector<ExtensionJob> make_extension_jobs(std::span<const seq::BaseCode> genome,
                                              std::span<const seq::BaseCode> read,
                                              const Chain& chain, std::uint32_t read_id,
                                              const JobParams& params);

/// Flattens jobs into a kernel-ready PairBatch (order preserved).
seq::PairBatch jobs_to_batch(std::span<const ExtensionJob> jobs);

}  // namespace saloba::seedext
