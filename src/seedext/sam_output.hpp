// Bridges the read-mapping pipeline to SAM output. Mapped reads' CIGARs
// come from the batched traceback stage (ReadMapping::traced, filled by
// map_batch/map_stream with a TracedBatchExtender); formatting a record runs
// no alignment. MAPQ derives from the score margin.
#pragma once

#include "seedext/pipeline.hpp"
#include "seq/sam.hpp"
#include "seq/sequence.hpp"

namespace saloba::seedext {

/// The most slack, in bases per side, that mapped_window pads a read with:
/// len / 5 reaches it at 1,280 bp, and longer reads stop there. A routed
/// long read's X-drop sweep starts at the window's corner and can prune
/// nothing until its best score exceeds X, so each base of slack before the
/// read widens a triangle of unprunable cells, and a repeat copy inside
/// kilobases of slack can win the trace.
inline constexpr std::size_t kMaxWindowSlack = 256;

/// The genome window a mapped read's CIGAR is defined over: the mapped
/// position padded by clamp(len / 5, 32, kMaxWindowSlack) bases of slack on
/// both sides (gaps may shift the true start), clamped to the genome.
/// Shared by the batched traceback stage of ReadMapper::map_batch and
/// to_sam_record so the two can never disagree about coordinates.
struct MappedWindow {
  std::size_t start = 0;  ///< 0-based first genome base of the window
  std::size_t end = 0;    ///< past-the-end genome base
};
MappedWindow mapped_window(std::size_t genome_len, std::size_t ref_pos,
                           std::size_t oriented_len);

/// Builds a SAM record for one read. A mapped read's CIGAR, position and
/// AS tag come from its stored trace; unmapped reads get flag 0x4 and star
/// fields. Throws std::invalid_argument for a mapped read without a stored
/// trace (ReadMapping::has_traceback false) or whose ref_pos puts its window
/// past the genome end.
seq::SamRecord to_sam_record(const ReadMapper& mapper, const seq::Sequence& read,
                             const ReadMapping& mapping,
                             const std::string& reference_name = "synthetic");

/// Phred-style mapping quality in [0, 60] from the achieved fraction of the
/// maximum possible score (a simple, monotone surrogate for a posterior).
int mapq_from_score(align::Score score, std::size_t read_len,
                    const align::ScoringScheme& scoring);

}  // namespace saloba::seedext
