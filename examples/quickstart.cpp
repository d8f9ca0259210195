// Quickstart: align two sequences with the public API — one traced run on
// the CPU backend for the score and the CIGAR, and a simulated SALoBa run
// that must match the CPU result (the exit status is 1 if it does not).
//
//   $ ./quickstart
//   $ ./quickstart ACGTTGCA ACGTGCA
#include <cstdio>
#include <string>

#include "core/aligner.hpp"
#include "seq/alphabet.hpp"

int main(int argc, char** argv) {
  using namespace saloba;

  std::string ref_text = argc > 1 ? argv[1] : "TTTTGATTACAGATTACAGGGG";
  std::string query_text = argc > 2 ? argv[2] : "GATTACATATTACA";

  auto ref = seq::encode_string(ref_text);
  auto query = seq::encode_string(query_text);

  // 1. Batch alignment through the facade (CPU backend by default), traced
  // so the same run also yields the CIGAR.
  core::AlignerOptions opts;
  opts.traceback = true;
  core::Aligner aligner(opts);
  seq::PairBatch batch;
  batch.add(query, ref);
  auto out = aligner.align(batch);
  const auto& r = out.results[0];
  std::printf("reference: %s\n", ref_text.c_str());
  std::printf("query:     %s\n", query_text.c_str());
  std::printf("local alignment score %d, ends at ref[%d], query[%d]\n", r.score, r.ref_end,
              r.query_end);

  // 2. The CIGAR from that run's trace.
  const auto& traced = out.traced[0];
  if (traced.end.score > 0) {
    std::printf("CIGAR %s starting at ref[%d], query[%d]\n", traced.cigar.c_str(),
                traced.ref_start, traced.query_start);
  }

  // 3. The same pair through the simulated SALoBa kernel on an RTX3090.
  core::AlignerOptions sim_opts;
  sim_opts.backend = core::Backend::kSimulated;
  sim_opts.kernel = "saloba";
  sim_opts.device = "rtx3090";
  core::Aligner sim(sim_opts);
  auto sim_out = sim.align(batch);
  const bool matches = sim_out.results[0] == r;
  std::printf("simulated SALoBa on %s: score %d (matches CPU: %s), %.3f ms simulated\n",
              sim_opts.device.c_str(), sim_out.results[0].score, matches ? "yes" : "NO",
              sim_out.time_ms);
  return matches ? 0 : 1;
}
