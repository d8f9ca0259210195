// Named sequences and batches of query/reference pairs — the unit of work a
// seed-extension kernel consumes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "seq/alphabet.hpp"

namespace saloba::seq {

struct Sequence {
  std::string name;
  std::vector<BaseCode> bases;
  std::string quality;  ///< optional FASTQ quality string (empty for FASTA)

  std::size_t size() const { return bases.size(); }
  std::string to_string() const { return decode_string(bases); }
};

/// Number of DP cells inside the band |i - j| <= band of an n x m table
/// (i over `ref_len` rows, j over `query_len` columns). `band == 0` means
/// "no banding" and returns the full n·m — the convention every layer of the
/// pipeline shares (SalobaConfig.band, PairBatch bands, engine params).
/// align::smith_waterman_banded computes exactly this many cells.
std::size_t banded_cells(std::size_t ref_len, std::size_t query_len, std::size_t band);

/// A batch of (query, reference) pairs to extend — one-to-one mapping as in
/// the paper's evaluation (all baselines were modified to one-to-one).
///
/// The optional band channel carries Sec. VII-B banded-extension widths:
/// `bands[i]` restricts pair i's DP to |i - j| <= bands[i] with out-of-band
/// cells reading H = 0, E/F = -inf (the align::smith_waterman_banded
/// semantics). A per-pair band of 0 falls back to `default_band`; a
/// `default_band` of 0 means full-table. Every consumer (CPU backend,
/// simulated kernels, shard packing) resolves the effective band through
/// band_of(), so an empty channel keeps the classic unbanded behaviour
/// bit-for-bit.
struct PairBatch {
  std::vector<std::vector<BaseCode>> queries;
  std::vector<std::vector<BaseCode>> refs;
  /// Per-pair band widths; empty = every pair uses `default_band`. When
  /// non-empty, size() matches queries.size() (add() maintains this).
  std::vector<std::size_t> bands;
  /// Fallback band for pairs without an explicit one (0 = full table).
  std::size_t default_band = 0;

  std::size_t size() const { return queries.size(); }
  void add(std::vector<BaseCode> q, std::vector<BaseCode> r);
  /// add() with a per-pair band; allocates the band channel lazily (an
  /// all-zero batch never pays for it).
  void add(std::vector<BaseCode> q, std::vector<BaseCode> r, std::size_t band);
  /// Effective band of pair i (0 = full table) — the only source of a
  /// pair's band: the Aligner stack has no band option of its own.
  std::size_t band_of(std::size_t i) const {
    if (bands.empty()) return default_band;
    return bands[i] != 0 ? bands[i] : default_band;
  }
  /// True when at least one pair is effectively banded.
  bool banded() const;
  std::size_t max_query_len() const;
  std::size_t max_ref_len() const;
  std::size_t total_cells() const;  ///< Σ |q|·|r| — the DP workload measure
  /// In-band DP cells of pair i — the banded workload measure the scheduler
  /// and shard packers cost with (equals |q|·|r| for unbanded pairs).
  std::size_t cells_of(std::size_t i) const;
  std::size_t total_banded_cells() const;  ///< Σ cells_of(i)
};

}  // namespace saloba::seq
