// Bridges the read-mapping pipeline to SAM output. Mapped reads' CIGARs
// come from the batched traceback phase (ReadMapping::traced, filled by the
// traceback-enabled map_batch/map_stream paths); a mapping without a stored
// trace falls back to the linear-memory engine on its genome window — the
// old per-read full-matrix recompute is gone either way. MAPQ derives from
// the score margin.
#pragma once

#include "seedext/pipeline.hpp"
#include "seq/sam.hpp"
#include "seq/sequence.hpp"

namespace saloba::seedext {

/// The genome window a mapped read's CIGAR is defined over: the mapped
/// position padded by max(32, len / 5) of slack on both sides (gaps may
/// shift the true start), clamped to the genome. Shared by the batched
/// traceback stage of ReadMapper::map_batch and to_sam_record so the
/// two can never disagree about coordinates.
struct MappedWindow {
  std::size_t start = 0;  ///< 0-based first genome base of the window
  std::size_t end = 0;    ///< past-the-end genome base
};
MappedWindow mapped_window(std::size_t genome_len, std::size_t ref_pos,
                           std::size_t oriented_len);

/// Builds a SAM record for one read. For mapped reads the CIGAR comes from
/// the stored traceback (or the engine fallback above); unmapped reads get
/// flag 0x4 and star fields.
seq::SamRecord to_sam_record(const ReadMapper& mapper, const seq::Sequence& read,
                             const ReadMapping& mapping,
                             const std::string& reference_name = "synthetic");

/// Phred-style mapping quality in [0, 60] from the achieved fraction of the
/// maximum possible score (a simple, monotone surrogate for a posterior).
int mapq_from_score(align::Score score, std::size_t read_len,
                    const align::ScoringScheme& scoring);

}  // namespace saloba::seedext
