#include "align/traceback.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"

namespace saloba::align {
namespace {

constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;

}  // namespace

std::string compress_cigar(const std::string& ops) {
  std::string out;
  std::size_t i = 0;
  while (i < ops.size()) {
    std::size_t j = i;
    while (j < ops.size() && ops[j] == ops[i]) ++j;
    out += std::to_string(j - i);
    out += ops[i];
    i = j;
  }
  return out;
}

TracedAlignment smith_waterman_traceback(std::span<const seq::BaseCode> ref,
                                         std::span<const seq::BaseCode> query,
                                         const ScoringScheme& scoring) {
  return smith_waterman_traceback(ref, query, scoring, /*band=*/0);
}

TracedAlignment smith_waterman_traceback(std::span<const seq::BaseCode> ref,
                                         std::span<const seq::BaseCode> query,
                                         const ScoringScheme& scoring, std::size_t band) {
  SALOBA_CHECK(scoring.valid());
  const std::size_t n = ref.size();
  const std::size_t m = query.size();
  TracedAlignment out;
  if (n == 0 || m == 0) return out;

  const Score alpha = scoring.alpha();
  const Score beta = scoring.beta();
  // band == 0 means full table; a band covering the longest sequence makes
  // the masked loop identical to the plain one.
  const std::size_t eff_band = band != 0 ? band : std::max(n, m);
  const std::size_t stride = m + 1;
  std::vector<Score> h((n + 1) * stride, 0);
  std::vector<Score> e((n + 1) * stride, kNegInf);
  std::vector<Score> f((n + 1) * stride, kNegInf);
  auto at = [stride](std::size_t i, std::size_t j) { return i * stride + j; };

  // Out-of-band cells are never written, so they keep the masked-DP
  // out-of-band semantics for free: H = 0, E/F = -inf.
  AlignmentResult best;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t j_lo = i > eff_band ? i - eff_band : 1;
    const std::size_t j_hi = std::min(m, i + eff_band);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      e[at(i, j)] = std::max(h[at(i, j - 1)] - alpha, e[at(i, j - 1)] - beta);
      f[at(i, j)] = std::max(h[at(i - 1, j)] - alpha, f[at(i - 1, j)] - beta);
      Score s = h[at(i - 1, j - 1)] + scoring.substitution(ref[i - 1], query[j - 1]);
      Score v = std::max({Score{0}, s, e[at(i, j)], f[at(i, j)]});
      h[at(i, j)] = v;
      if (v > best.score) {
        best = AlignmentResult{v, static_cast<std::int32_t>(i - 1),
                               static_cast<std::int32_t>(j - 1)};
      }
    }
  }
  return trace_stored_matrix(best, ref, query, scoring, [&](std::size_t i, std::size_t j) {
    return StoredCell{h[at(i, j)], e[at(i, j)], f[at(i, j)]};
  });
}

std::string expand_cigar(const std::string& cigar) {
  std::string out;
  std::size_t i = 0;
  while (i < cigar.size()) {
    std::size_t count = 0;
    bool has_digit = false;
    while (i < cigar.size() && cigar[i] >= '0' && cigar[i] <= '9') {
      count = count * 10 + static_cast<std::size_t>(cigar[i] - '0');
      has_digit = true;
      ++i;
    }
    if (!has_digit || i >= cigar.size()) throw std::invalid_argument("malformed CIGAR: " + cigar);
    char op = cigar[i++];
    if (op != 'M' && op != 'I' && op != 'D') {
      throw std::invalid_argument("unsupported CIGAR op: " + std::string(1, op));
    }
    out.append(count, op);
  }
  return out;
}

bool cigar_consistent(const TracedAlignment& aln, std::size_t ref_len, std::size_t query_len) {
  if (aln.end.score == 0) return aln.cigar.empty();
  if (aln.ref_start < 0 || aln.query_start < 0) return false;
  std::size_t ri = static_cast<std::size_t>(aln.ref_start);
  std::size_t qj = static_cast<std::size_t>(aln.query_start);
  for (char op : expand_cigar(aln.cigar)) {
    if (op == 'M') {
      ++ri;
      ++qj;
    } else if (op == 'I') {
      ++qj;
    } else {
      ++ri;
    }
  }
  return ri == static_cast<std::size_t>(aln.end.ref_end) + 1 &&
         qj == static_cast<std::size_t>(aln.end.query_end) + 1 && ri <= ref_len &&
         qj <= query_len;
}

Score rescore_cigar(const TracedAlignment& aln, std::span<const seq::BaseCode> ref,
                    std::span<const seq::BaseCode> query, const ScoringScheme& scoring) {
  if (aln.end.score == 0) return 0;
  Score score = 0;
  std::size_t ri = static_cast<std::size_t>(aln.ref_start);
  std::size_t qj = static_cast<std::size_t>(aln.query_start);
  char prev = '\0';
  for (char op : expand_cigar(aln.cigar)) {
    if (op == 'M') {
      score += scoring.substitution(ref[ri], query[qj]);
      ++ri;
      ++qj;
    } else {
      score -= (op == prev) ? scoring.beta() : scoring.alpha();
      if (op == 'I') ++qj;
      else ++ri;
    }
    prev = op;
  }
  return score;
}

}  // namespace saloba::align
