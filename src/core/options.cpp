#include "core/options.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "align/xdrop_wavefront.hpp"

namespace saloba::core {

std::size_t LongReadPolicy::cells_estimate(std::size_t ref_len, std::size_t query_len) const {
  // Packing heuristic: the wavefront's score-bounded window width depends
  // only on xdrop and the gap-extend penalty; the default scheme's beta is
  // representative enough for load balancing.
  return align::xdrop_cells_estimate(ref_len, query_len, xdrop, align::ScoringScheme{});
}

std::size_t BandPolicy::band_for(std::size_t query_len) const {
  if (!banded()) return 0;
  std::size_t frac = band_frac > 0.0
                         ? static_cast<std::size_t>(
                               std::ceil(band_frac * static_cast<double>(query_len)))
                         : 0;
  // Never 0 for a banded policy: a degenerate band of 0 would read as
  // "full table" downstream (the shared 0-means-unbanded convention).
  return std::max<std::size_t>(1, std::max(band, frac));
}

void materialize_bands(seq::PairBatch& batch, const BandPolicy& policy) {
  if (!policy.banded() || batch.has_band_info()) return;
  batch.bands.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.bands[i] = policy.band_for(batch.queries[i].size());
  }
}

std::vector<std::string> device_preset_list(const std::string& device) {
  std::vector<std::string> presets;
  std::size_t begin = 0;
  for (;;) {
    std::size_t comma = device.find(',', begin);
    std::size_t end = comma == std::string::npos ? device.size() : comma;
    std::size_t first = begin;
    while (first < end && std::isspace(static_cast<unsigned char>(device[first]))) ++first;
    std::size_t last = end;
    while (last > first && std::isspace(static_cast<unsigned char>(device[last - 1]))) --last;
    if (first == last) {
      throw std::invalid_argument("empty device preset in list \"" + device +
                                  "\" (expected e.g. \"gtx1650\" or \"gtx1650,rtx3090\")");
    }
    presets.push_back(device.substr(first, last - first));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return presets;
}

}  // namespace saloba::core
