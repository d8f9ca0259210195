#include "seedext/sam_output.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace saloba::seedext {

int mapq_from_score(align::Score score, std::size_t read_len,
                    const align::ScoringScheme& scoring) {
  if (read_len == 0 || score <= 0) return 0;
  double max_score = static_cast<double>(read_len) * scoring.match;
  double frac = std::clamp(static_cast<double>(score) / max_score, 0.0, 1.0);
  // Map [0.3, 1.0] onto [0, 60]; anything below 30% identity-score is 0.
  double q = (frac - 0.3) / 0.7 * 60.0;
  return std::clamp(static_cast<int>(std::lround(q)), 0, 60);
}

MappedWindow mapped_window(std::size_t genome_len, std::size_t ref_pos,
                           std::size_t oriented_len) {
  const std::size_t slack =
      std::clamp<std::size_t>(oriented_len / 5, 32, kMaxWindowSlack);
  MappedWindow win;
  win.start = ref_pos > slack ? ref_pos - slack : 0;
  win.end = std::min(genome_len, ref_pos + oriented_len + slack);
  return win;
}

seq::SamRecord to_sam_record(const ReadMapper& mapper, const seq::Sequence& read,
                             const ReadMapping& mapping,
                             const std::string& reference_name) {
  seq::SamRecord record;
  record.qname = read.name.empty() ? "read" : read.name;
  record.seq = read.to_string();
  if (read.quality.size() == read.bases.size()) record.qual = read.quality;

  if (!mapping.mapped) {
    record.flags = seq::SamRecord::kFlagUnmapped;
    return record;
  }

  record.rname = reference_name;
  record.flags = mapping.reverse_strand ? seq::SamRecord::kFlagReverse : 0;

  if (!mapping.has_traceback) {
    throw std::invalid_argument(
        "to_sam_record: mapped record " + record.qname +
        " has no stored trace (ReadMapping::has_traceback is false); map it with a "
        "TracedBatchExtender");
  }
  const std::size_t read_len = read.bases.size();
  MappedWindow win = mapped_window(mapper.genome().size(), mapping.ref_pos, read_len);
  if (win.end <= win.start) {
    throw std::invalid_argument("to_sam_record: mapped record " + record.qname +
                                " has ref_pos " + std::to_string(mapping.ref_pos) +
                                " past the genome end");
  }

  const align::TracedAlignment& traced = mapping.traced;
  if (traced.end.score <= 0) {
    record.flags |= seq::SamRecord::kFlagUnmapped;
    return record;
  }

  record.pos = win.start + static_cast<std::size_t>(traced.ref_start) + 1;  // SAM is 1-based
  // Soft-clip query bases outside the local alignment.
  std::string cigar;
  if (traced.query_start > 0) cigar += std::to_string(traced.query_start) + "S";
  cigar += traced.cigar;
  std::size_t tail = read_len - static_cast<std::size_t>(traced.end.query_end) - 1;
  if (tail > 0) cigar += std::to_string(tail) + "S";
  record.cigar = cigar;
  record.mapq = mapq_from_score(traced.end.score, read_len, mapper.params().scoring);
  record.tags.push_back("AS:i:" + std::to_string(traced.end.score));
  return record;
}

}  // namespace saloba::seedext
