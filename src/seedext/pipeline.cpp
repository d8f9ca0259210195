#include "seedext/pipeline.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "align/batch.hpp"
#include "seedext/sam_output.hpp"
#include "seq/chunk_reader.hpp"
#include "util/bounded_queue.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace saloba::seedext {

namespace {

/// MapperParams arrive from outside the library, so a value no index can be
/// built from is an input error naming its field, not a CHECK abort deep in
/// the index layer.
void validate(std::span<const seq::BaseCode> genome, const MapperParams& params) {
  if (genome.empty()) throw std::invalid_argument("ReadMapper: the genome is empty");
  if (params.k < KmerIndex::kMinK || params.k > KmerIndex::kMaxK) {
    throw std::invalid_argument("MapperParams::k must be in [" +
                                std::to_string(KmerIndex::kMinK) + ", " +
                                std::to_string(KmerIndex::kMaxK) + "], got " +
                                std::to_string(params.k));
  }
  if (params.seeding.stride < 1) {
    throw std::invalid_argument("MapperParams::seeding.stride must be >= 1, got " +
                                std::to_string(params.seeding.stride));
  }
  align::require_valid(params.scoring, "MapperParams::scoring");
}

/// A caller-supplied stage callback must return one output per input, so a
/// wrong count is the caller's error, named with both counts.
void require_count(const char* callback, std::size_t got, const char* outputs,
                   std::size_t want, const char* inputs) {
  if (got == want) return;
  throw std::invalid_argument(std::string(callback) + " returned " + std::to_string(got) + " " +
                              outputs + " for " + std::to_string(want) + " " + inputs);
}

}  // namespace

ReadMapper::ReadMapper(std::vector<seq::BaseCode> genome, MapperParams params)
    : genome_(std::move(genome)), params_(std::move(params)) {
  validate(genome_, params_);
  // Every index acquisition routes through the shared registry: two mappers
  // over the same reference (same content and k) share one index instead
  // of each rebuilding — the reference is the invariant, reads are the
  // traffic.
  if (params_.index_shards > 1) {
    IndexShardingOptions sharding{params_.index_shards, params_.index_path};
    sharded_index_ = std::make_unique<ShardedKmerIndex>(genome_, params_.k, sharding);
  } else {
    index_ = params_.index_path.empty()
                 ? IndexRegistry::instance().acquire_memory(genome_, params_.k)
                 : IndexRegistry::instance().acquire_file(params_.index_path, genome_, params_.k);
  }
}

ReadMapper::~ReadMapper() = default;
ReadMapper::ReadMapper(ReadMapper&&) noexcept = default;

std::vector<Seed> ReadMapper::seeds_of(std::span<const seq::BaseCode> read) const {
  if (sharded_index_) {
    return find_seeds(*sharded_index_, genome_, read, params_.seeding);
  }
  return find_seeds(index_->kmer(), genome_, read, params_.seeding);
}

ReadMapper::StrandResult ReadMapper::analyze(std::span<const seq::BaseCode> read) const {
  StrandResult out;
  auto seeds = seeds_of(read);
  if (seeds.empty()) return out;
  out.chains = chain_seeds(std::move(seeds), params_.chaining);
  if (!out.chains.empty()) out.coverage = out.chains.front().score;
  return out;
}

ReadMapper::PreparedRead ReadMapper::prepare(std::span<const seq::BaseCode> read) const {
  PreparedRead pre;
  if (read.empty()) return pre;

  StrandResult fwd = analyze(read);
  std::vector<seq::BaseCode> rc =
      seq::reverse_complement(std::vector<seq::BaseCode>(read.begin(), read.end()));
  StrandResult rev = analyze(rc);
  return prepare_from_chains(read, rc, fwd.chains, rev.chains);
}

ReadMapper::PreparedRead ReadMapper::prepare_from_chains(
    std::span<const seq::BaseCode> read, std::span<const seq::BaseCode> rc,
    const std::vector<Chain>& fwd, const std::vector<Chain>& rev) const {
  PreparedRead pre;
  if (read.empty()) return pre;

  // Strand choice by best chain score — identical to the per-read analyze()
  // comparison (collect_chains emits best-first).
  const std::int64_t fwd_cov = fwd.empty() ? 0 : fwd.front().score;
  const std::int64_t rev_cov = rev.empty() ? 0 : rev.front().score;
  pre.use_rev = rev_cov > fwd_cov;
  const std::vector<Chain>& chosen = pre.use_rev ? rev : fwd;
  std::span<const seq::BaseCode> oriented = pre.use_rev ? rc : read;
  if (chosen.empty()) return pre;

  const Chain& best = chosen.front();
  pre.has_chain = true;
  pre.anchor = best.first();
  pre.jobs = make_extension_jobs(genome_, oriented, best, 0, params_.jobs);
  for (const Seed& s : best.seeds) {
    pre.seed_score += static_cast<align::Score>(s.len) * params_.scoring.match;
  }
  return pre;
}

ReadMapping ReadMapper::finalize(const PreparedRead& pre,
                                 std::span<const align::AlignmentResult> job_results) {
  ReadMapping mapping;
  if (!pre.has_chain) return mapping;

  align::Score score = pre.seed_score;
  std::optional<align::AlignmentResult> left_result;
  for (std::size_t j = 0; j < pre.jobs.size(); ++j) {
    score += job_results[j].score;
    if (pre.jobs[j].left) left_result = job_results[j];
  }

  std::size_t start;
  if (left_result && left_result->score > 0) {
    start = pre.anchor.rpos - static_cast<std::size_t>(left_result->ref_end) - 1;
  } else {
    // Diagonal projection of the read start through the anchor seed.
    start = pre.anchor.rpos >= pre.anchor.qpos ? pre.anchor.rpos - pre.anchor.qpos : 0;
  }

  mapping.mapped = true;
  mapping.ref_pos = start;
  mapping.reverse_strand = pre.use_rev;
  mapping.score = score;
  return mapping;
}

ReadMapping ReadMapper::map(std::span<const seq::BaseCode> read) const {
  PreparedRead pre = prepare(read);
  // jobs_to_batch carries every job's band, so the scalar oracle aligns each
  // job exactly as the batched path's extender must.
  return finalize(pre, align::align_batch(jobs_to_batch(pre.jobs), params_.scoring));
}

std::vector<ReadMapping> ReadMapper::map_batch(
    std::span<const std::vector<seq::BaseCode>> reads, const BatchExtender& extend,
    const TracedBatchExtender& trace, MapStats* stats) const {
  std::vector<ReadMapping> out = map_scores(reads, extend, stats);
  if (!trace) return out;

  // Stage 4: one batched trace over every mapped read's (oriented read,
  // genome window) pair — the same window to_sam_record's CIGAR is defined
  // over.
  std::vector<std::size_t> index;
  seq::PairBatch batch;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].mapped) continue;
    std::vector<seq::BaseCode> oriented =
        out[i].reverse_strand ? seq::reverse_complement(reads[i]) : reads[i];
    MappedWindow win = mapped_window(genome_.size(), out[i].ref_pos, oriented.size());
    batch.add(std::move(oriented),
              std::vector<seq::BaseCode>(
                  genome_.begin() + static_cast<std::ptrdiff_t>(win.start),
                  genome_.begin() + static_cast<std::ptrdiff_t>(win.end)));
    index.push_back(i);
  }
  if (batch.size() == 0) return out;
  // Window pairs carry no band: their CIGARs are full-table by definition.

  std::vector<align::TracedAlignment> traced = trace(batch);
  require_count("TracedBatchExtender", traced.size(), "traces", batch.size(), "pairs");
  for (std::size_t p = 0; p < batch.size(); ++p) {
    out[index[p]].traced = std::move(traced[p]);
    out[index[p]].has_traceback = true;
  }
  return out;
}

std::vector<ReadMapping> ReadMapper::map_scores(
    std::span<const std::vector<seq::BaseCode>> reads, const BatchExtender& extend,
    MapStats* stats) const {
  // Stage 1a (host-parallel): seeding, both strands of every read.
  std::vector<std::vector<seq::BaseCode>> rc(reads.size());
  std::vector<std::vector<Seed>> fwd_seeds(reads.size());
  std::vector<std::vector<Seed>> rev_seeds(reads.size());
  util::parallel_for_indexed(reads.size(), [&](std::size_t i) {
    if (reads[i].empty()) return;
    fwd_seeds[i] = seeds_of(reads[i]);
    rc[i] = seq::reverse_complement(reads[i]);
    rev_seeds[i] = seeds_of(rc[i]);
  });

  // Stage 1b: every strand's anchors as one ChainBatch — task 2i is read
  // i's forward strand, 2i+1 its reverse complement.
  ChainBatch chain_batch(params_.chaining);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    chain_batch.add_task(std::move(fwd_seeds[i]));
    chain_batch.add_task(std::move(rev_seeds[i]));
  }

  // Stage 1c: the batched chaining phase — the injected scheduler-backed
  // chainer when set, the in-process SIMD engine otherwise. Either is
  // bit-identical to the sequential chain_seeds the per-read path runs.
  ChainStageResult chained;
  if (chainer_) {
    chained = chainer_(chain_batch);
  } else {
    ChainEngineStats engine_stats;
    chained.chains = chain_batch_run(chain_batch, &engine_stats);
    chained.chaining_ms = engine_stats.wall_ms;
    chained.anchors = engine_stats.anchors;
    chained.updates = engine_stats.pushes + engine_stats.settled;
  }
  require_count("BatchChainer", chained.chains.size(), "chain lists", chain_batch.tasks(),
                "tasks");

  // Stage 1d (host-parallel): strand choice + job extraction per read.
  std::vector<PreparedRead> prepared(reads.size());
  util::parallel_for_indexed(reads.size(), [&](std::size_t i) {
    prepared[i] = prepare_from_chains(reads[i], rc[i], chained.chains[2 * i],
                                      chained.chains[2 * i + 1]);
  });

  // Stage 2: one kernel-sized batch of every read's jobs, in read order.
  std::vector<ExtensionJob> jobs;
  std::vector<std::size_t> first_job(reads.size() + 1, 0);
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    first_job[i] = jobs.size();
    for (const auto& j : prepared[i].jobs) jobs.push_back(j);
  }
  first_job[reads.size()] = jobs.size();

  std::vector<align::AlignmentResult> results;
  if (!jobs.empty()) results = extend(jobs_to_batch(jobs));
  require_count("BatchExtender", results.size(), "results", jobs.size(), "jobs");

  // Stage 3: scatter extension scores back per read.
  std::vector<ReadMapping> out(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    std::span<const align::AlignmentResult> slice(results.data() + first_job[i],
                                                  first_job[i + 1] - first_job[i]);
    out[i] = finalize(prepared[i], slice);
  }
  if (stats) {
    stats->reads += reads.size();
    stats->mapped += static_cast<std::size_t>(
        std::count_if(out.begin(), out.end(), [](const ReadMapping& m) { return m.mapped; }));
    stats->chaining_ms += chained.chaining_ms;
    stats->chain_tasks += chain_batch.tasks();
    stats->chain_anchors += chained.anchors;
    stats->chain_updates += chained.updates;
  }
  return out;
}

MapStats ReadMapper::map_stream(
    seq::SequenceChunkReader& reader, const BatchExtender& extend,
    const TracedBatchExtender& trace,
    const std::function<void(const seq::Sequence&, const ReadMapping&)>& sink,
    std::size_t queue_capacity) const {
  util::Timer timer;
  MapStats stats;
  util::BoundedQueue<seq::SequenceChunk> queue(queue_capacity);

  // Producer: parse chunks while the consumer maps the previous ones. The
  // bounded queue is the residency cap; closing it (consumer failure) makes
  // the pending push fail, so the producer always joins.
  std::exception_ptr read_failure;
  std::thread producer([&] {
    try {
      seq::SequenceChunk chunk;
      while (reader.next(chunk)) {
        if (!queue.push(std::move(chunk))) return;
        chunk = seq::SequenceChunk{};
      }
      queue.close();
    } catch (...) {
      read_failure = std::current_exception();
      queue.close();
    }
  });

  try {
    while (auto chunk = queue.pop()) {
      std::vector<std::vector<seq::BaseCode>> read_seqs;
      read_seqs.reserve(chunk->records.size());
      for (const auto& r : chunk->records) read_seqs.push_back(r.bases);
      auto mappings = map_batch(read_seqs, extend, trace, &stats);
      if (sink) {
        for (std::size_t i = 0; i < mappings.size(); ++i) sink(chunk->records[i], mappings[i]);
      }
      ++stats.chunks;
    }
  } catch (...) {
    queue.close();
    producer.join();
    throw;
  }

  producer.join();
  if (read_failure) std::rethrow_exception(read_failure);
  stats.wall_ms = timer.millis();
  return stats;
}

std::vector<ExtensionJob> ReadMapper::collect_jobs(
    std::span<const std::vector<seq::BaseCode>> reads) const {
  // Per-read job lists computed in parallel, then flattened in read order.
  std::vector<std::vector<ExtensionJob>> per_read(reads.size());
  util::parallel_for_indexed(reads.size(), [&](std::size_t i) {
    const auto& read = reads[i];
    if (read.empty()) return;
    StrandResult fwd = analyze(read);
    std::vector<seq::BaseCode> rc = seq::reverse_complement(read);
    StrandResult rev = analyze(rc);
    const bool use_rev = rev.coverage > fwd.coverage;
    const StrandResult& chosen = use_rev ? rev : fwd;
    std::span<const seq::BaseCode> oriented =
        use_rev ? std::span<const seq::BaseCode>(rc) : std::span<const seq::BaseCode>(read);
    for (const Chain& chain : chosen.chains) {
      auto jobs = make_extension_jobs(genome_, oriented, chain,
                                      static_cast<std::uint32_t>(i), params_.jobs);
      for (auto& j : jobs) per_read[i].push_back(std::move(j));
    }
  });
  std::vector<ExtensionJob> out;
  for (auto& v : per_read) {
    for (auto& j : v) out.push_back(std::move(j));
  }
  return out;
}

}  // namespace saloba::seedext
