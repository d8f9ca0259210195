#include "seedext/extension_jobs.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace saloba::seedext {
namespace {

std::size_t band_for(std::size_t query_len, const JobParams& params) {
  return std::max(params.min_band,
                  static_cast<std::size_t>(params.band_frac * static_cast<double>(query_len)));
}

}  // namespace

std::vector<ExtensionJob> make_extension_jobs(std::span<const seq::BaseCode> genome,
                                              std::span<const seq::BaseCode> read,
                                              const Chain& chain, std::uint32_t read_id,
                                              const JobParams& params) {
  std::vector<ExtensionJob> jobs;
  SALOBA_CHECK(!chain.seeds.empty());
  const Seed& anchor = chain.first();

  // Left of the anchor: query prefix [0, qpos), reference window ending at
  // rpos. Both reversed so the local alignment grows away from the seed.
  if (anchor.qpos >= params.min_query) {
    std::size_t qlen = anchor.qpos;
    std::size_t window = std::min<std::size_t>(anchor.rpos, qlen + band_for(qlen, params));
    if (window > 0) {
      ExtensionJob job;
      job.read_id = read_id;
      job.left = true;
      job.band = std::max<std::size_t>(1, band_for(qlen, params));
      job.ref_origin = anchor.rpos - static_cast<std::uint32_t>(window);
      job.query.assign(read.rend() - anchor.qpos, read.rend());  // reversed prefix
      job.ref.assign(genome.rbegin() + static_cast<std::ptrdiff_t>(genome.size() - anchor.rpos),
                     genome.rbegin() +
                         static_cast<std::ptrdiff_t>(genome.size() - anchor.rpos + window));
      jobs.push_back(std::move(job));
    }
  }

  // Right of the anchor's end: query suffix, reference window onwards.
  const Seed& tail = chain.last();
  std::size_t q_end = tail.qpos + tail.len;
  std::size_t r_end = tail.rpos + tail.len;
  if (q_end < read.size() && read.size() - q_end >= params.min_query && r_end < genome.size()) {
    std::size_t qlen = read.size() - q_end;
    std::size_t window = std::min(genome.size() - r_end, qlen + band_for(qlen, params));
    ExtensionJob job;
    job.read_id = read_id;
    job.left = false;
    job.band = std::max<std::size_t>(1, band_for(qlen, params));
    job.ref_origin = static_cast<std::uint32_t>(r_end);
    job.query.assign(read.begin() + static_cast<std::ptrdiff_t>(q_end), read.end());
    job.ref.assign(genome.begin() + static_cast<std::ptrdiff_t>(r_end),
                   genome.begin() + static_cast<std::ptrdiff_t>(r_end + window));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

seq::PairBatch jobs_to_batch(std::span<const ExtensionJob> jobs) {
  seq::PairBatch batch;
  batch.queries.reserve(jobs.size());
  batch.refs.reserve(jobs.size());
  for (const auto& j : jobs) {
    batch.add(j.query, j.ref, j.band);
  }
  return batch;
}

}  // namespace saloba::seedext
