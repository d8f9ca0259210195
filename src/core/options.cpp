#include "core/options.hpp"

#include <cctype>
#include <stdexcept>

#include "align/xdrop_wavefront.hpp"

namespace saloba::core {

std::size_t LongReadPolicy::cells_estimate(std::size_t ref_len, std::size_t query_len) const {
  // Packing heuristic: the wavefront's score-bounded window width depends
  // only on xdrop and the gap-extend penalty; the default scheme's beta is
  // representative enough for load balancing.
  return align::xdrop_cells_estimate(ref_len, query_len, xdrop, align::ScoringScheme{});
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
