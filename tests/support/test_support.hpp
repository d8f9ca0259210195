// Shared helpers for the test suites: deterministic random sequences, pair
// batches and the scalar traceback oracle.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "align/traceback_engine.hpp"
#include "seq/alphabet.hpp"
#include "seq/sequence.hpp"
#include "util/rng.hpp"

namespace saloba::testing {

/// Random ACGT sequence (no N).
inline std::vector<seq::BaseCode> random_seq(util::Xoshiro256& rng, std::size_t len) {
  std::vector<seq::BaseCode> out(len);
  for (auto& b : out) b = static_cast<seq::BaseCode>(rng.below(4));
  return out;
}

/// Random sequence over the full alphabet, with `n_prob` chance of N.
inline std::vector<seq::BaseCode> random_seq_with_n(util::Xoshiro256& rng, std::size_t len,
                                                    double n_prob = 0.05) {
  std::vector<seq::BaseCode> out(len);
  for (auto& b : out) {
    b = rng.bernoulli(n_prob) ? seq::kBaseN : static_cast<seq::BaseCode>(rng.below(4));
  }
  return out;
}

/// A mutated copy: substitutions only, rate `p`.
inline std::vector<seq::BaseCode> mutate(util::Xoshiro256& rng,
                                         const std::vector<seq::BaseCode>& src, double p) {
  auto out = src;
  for (auto& b : out) {
    if (rng.bernoulli(p)) b = static_cast<seq::BaseCode>(rng.below(4));
  }
  return out;
}

/// Batch of related pairs (query ~ mutated ref) with equal lengths.
inline seq::PairBatch related_batch(std::uint64_t seed, std::size_t pairs, std::size_t qlen,
                                    std::size_t rlen, bool with_n = false) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t p = 0; p < pairs; ++p) {
    auto ref = with_n ? random_seq_with_n(rng, rlen) : random_seq(rng, rlen);
    std::vector<seq::BaseCode> query;
    if (qlen <= rlen) {
      // Overlap the query with part of the reference so alignments score.
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(qlen));
      query = mutate(rng, query, 0.08);
    } else {
      query = with_n ? random_seq_with_n(rng, qlen) : random_seq(rng, qlen);
    }
    batch.add(std::move(query), std::move(ref));
  }
  return batch;
}

/// Batch with wildly varying lengths (workload-imbalance shape).
inline seq::PairBatch imbalanced_batch(std::uint64_t seed, std::size_t pairs,
                                       std::size_t min_len, std::size_t max_len) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t p = 0; p < pairs; ++p) {
    std::size_t qlen = min_len + rng.below(max_len - min_len + 1);
    std::size_t rlen = min_len + rng.below(max_len - min_len + 1);
    batch.add(random_seq(rng, qlen), random_seq(rng, rlen));
  }
  return batch;
}

/// The scalar traceback oracle for `batch`: align::banded_traceback per pair
/// with the pair's band. Pairs scoring 0 keep the empty trace, as every
/// backend's traceback phase reports them.
inline std::vector<align::TracedAlignment> oracle_traces(const seq::PairBatch& batch,
                                                         const align::ScoringScheme& scoring) {
  std::vector<align::TracedAlignment> traced(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    align::TracebackParams params;
    params.band = batch.band_of(i);
    auto r = align::banded_traceback(batch.refs[i], batch.queries[i], scoring, params);
    if (r.traced.end.score > 0) traced[i] = std::move(r.traced);
  }
  return traced;
}

}  // namespace saloba::testing
