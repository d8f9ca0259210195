#include "align/scoring.hpp"

#include <stdexcept>
#include <string>

namespace saloba::align {

void require_valid(const ScoringScheme& s, const char* field) {
  if (s.valid()) return;
  throw std::invalid_argument(
      std::string(field) + " is invalid (match " + std::to_string(s.match) + ", mismatch " +
      std::to_string(s.mismatch) + ", gap_open " + std::to_string(s.gap_open) +
      ", gap_extend " + std::to_string(s.gap_extend) +
      "): need match > 0, mismatch >= 0, gap_open >= 0 and gap_extend > 0");
}

ScoringScheme default_scheme() { return ScoringScheme{}; }

ScoringScheme long_read_scheme() {
  ScoringScheme s;
  s.match = 2;
  s.mismatch = 5;
  s.gap_open = 4;
  s.gap_extend = 2;
  return s;
}

}  // namespace saloba::align
