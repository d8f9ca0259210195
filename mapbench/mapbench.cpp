// mapbench — the end-to-end FASTQ → SAM read-mapping benchmark.
//
//   mapbench --workload=short_simd --seed=1 --seconds=10 --trace=0
//
// One run generates a genome and simulated reads from --seed, serializes the
// reads as FASTQ text in memory, builds the mapper (reference index plus the
// extension/traceback aligners) several times to time set-up, then streams
// the FASTQ through ReadMapper::map_stream — FastqChunkReader → seeding →
// chaining → extension → traceback → SAM text — pass after pass for
// --seconds, after one untimed warm-up pass.
//
// Correctness: every record of the warm-up pass is validated (CIGAR spans
// the read and the window, rescoring the CIGAR gives the reported score),
// every timed pass must reproduce the warm-up SAM bytes, a sample of reads
// must match the per-read CPU oracle (ReadMapper::map), and enough reads
// must land on their simulated origin.
//
// --trace=0 reports the end-to-end metrics: median throughput over the
// passes, median set-up time, and peak RSS while mapping. --trace=1 times
// each layer from the hooks the pipeline exposes — the chunk reader, the
// BatchChainer, the BatchExtender, the TracedBatchExtender and the SAM
// sink — and reports the per-layer breakdown; --trace-out=PATH also writes
// those spans as Chrome trace-event JSON (Perfetto / chrome://tracing open
// it).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>

#include "align/traceback.hpp"
#include "core/aligner.hpp"
#include "seedext/sam_output.hpp"
#include "seq/chunk_reader.hpp"
#include "seq/fasta.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "seq/sam.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"

namespace {

using namespace saloba;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const std::string kRefName = "chrB";

// ---------------------------------------------------------------------------
// Workloads. Every workload maps the same kind of genome; they differ in the
// reads and in which engine each layer runs on (see BENCHMARK.json for why
// each one exists).
// ---------------------------------------------------------------------------
struct Workload {
  std::string name;
  seq::ReadProfile profile;
  std::size_t reads = 0;
  std::size_t chunk_records = 0;
  std::size_t index_shards = 1;
  std::size_t longread_threshold = 0;
  align::Score xdrop = 400;
  std::size_t oracle_reads = 0;    ///< reads checked against ReadMapper::map
};

constexpr std::size_t kGenomeLen = std::size_t{4} << 20;
/// Share of reads that must land on their simulated origin for `correct`.
constexpr double kMinOnTargetPct = 90.0;
/// Set-ups timed per run; the median is reported, so the one-time SIMD
/// lane-speed probe in the first Aligner construction does not move it.
constexpr int kSetupRepeats = 7;

std::vector<Workload> workloads() {
  Workload short_reads;
  short_reads.name = "short_simd";
  short_reads.profile = seq::ReadProfile::illumina_250bp();
  short_reads.reads = 1024;
  short_reads.chunk_records = 256;
  short_reads.oracle_reads = 512;

  Workload sharded = short_reads;
  sharded.name = "short_sharded";
  sharded.index_shards = 4;

  // Fixed-length ultra-long reads (no log-normal tail, so every seed draws
  // the same amount of work) whose genome-window traces take the X-drop
  // wavefront route. X-drop 200 keeps ~5% ONT error aligned end to end; much
  // lower thresholds cut reads short behind long soft clips.
  Workload ultralong;
  ultralong.name = "ultralong";
  ultralong.profile = seq::ReadProfile::nanopore_ultralong(12000);
  ultralong.profile.length_sigma = 0.0;
  ultralong.reads = 12;
  ultralong.chunk_records = 4;
  ultralong.longread_threshold = 10000;
  ultralong.xdrop = 200;
  ultralong.oracle_reads = 12;
  return {short_reads, sharded, ultralong};
}

// ---------------------------------------------------------------------------
// Per-layer probe: hook timestamps of one pass, taken only with --trace=1.
// All consumer-side marks are written on the map_stream calling thread; the
// reader's marks are written on its producer thread and read only after
// map_stream has joined it.
// ---------------------------------------------------------------------------
struct ChunkMarks {
  Clock::time_point chain_start, chain_end, ext_start, ext_end, tb_start, tb_end, emit_end;
  bool extended = false;
  bool traced = false;
};

struct LayerCounts {
  double anchors = 0, updates = 0, ext_jobs = 0, ext_cells = 0, tb_score_cells = 0,
         tb_engine_cells = 0;
};

struct Probe {
  bool on = false;
  std::vector<ChunkMarks> chunks;
  LayerCounts counts;

  void reset() {
    chunks.clear();
    counts = LayerCounts{};
  }
};

/// FASTQ reader that records when each record finished parsing, so a chunk's
/// ready time and the reader's busy time are known. Parsing is delegated to
/// a plain FastqChunkReader over the same stream.
class TimedFastqReader final : public seq::SequenceChunkReader {
 public:
  TimedFastqReader(std::istream& in, std::size_t chunk_records)
      : SequenceChunkReader(in, chunk_records), inner_(in, 1) {}

  std::vector<Clock::time_point> record_start, record_end;
  Clock::time_point eof{};
  double busy_ms = 0.0;

  /// When the producer had chunk c complete (its last record parsed).
  Clock::time_point ready(std::size_t c) const {
    const std::size_t last = (c + 1) * chunk_records();
    return last <= record_end.size() ? record_end[last - 1] : eof;
  }
  Clock::time_point first_start(std::size_t c) const {
    return record_start[c * chunk_records()];
  }

 protected:
  bool parse_record(seq::Sequence& out) override {
    const auto t0 = Clock::now();
    const bool ok = inner_.read_record(out);
    const auto t1 = Clock::now();
    busy_ms += ms_between(t0, t1);
    if (ok) {
      record_start.push_back(t0);
      record_end.push_back(t1);
    } else {
      eof = t1;
    }
    return ok;
  }

 private:
  seq::FastqChunkReader inner_;
};

/// One traced pass reduced to layer times (ms) on the mapping thread's
/// critical path, plus the reader's busy time on its own thread.
struct LayerTimes {
  double pass = 0, ingest = 0, wait = 0, seeding = 0, chaining = 0, extension = 0,
         traceback = 0, emit = 0;
};

struct Span {
  std::string name;
  int track = 0;  ///< 1 = mapping thread, 2 = reader thread
  Clock::time_point start, end;
};

LayerTimes reduce_pass(const Probe& probe, const TimedFastqReader& reader,
                       Clock::time_point pass_start, Clock::time_point pass_end,
                       std::vector<Span>* spans) {
  LayerTimes t;
  t.pass = ms_between(pass_start, pass_end);
  t.ingest = reader.busy_ms;
  if (spans) spans->push_back({"pass", 1, pass_start, pass_end});
  Clock::time_point prev = pass_start;
  for (std::size_t c = 0; c < probe.chunks.size(); ++c) {
    const ChunkMarks& m = probe.chunks[c];
    const Clock::time_point ready = reader.ready(c);
    const Clock::time_point begin = std::max(prev, ready);
    // Extension and traceback calls are skipped for chunks with no jobs /
    // no mapped reads; their stage then has zero length.
    const Clock::time_point ext_end = m.extended ? m.ext_end : m.chain_end;
    const Clock::time_point tb_end = m.traced ? m.tb_end : ext_end;
    t.wait += ms_between(prev, begin);
    t.seeding += ms_between(begin, m.chain_start);
    t.chaining += ms_between(m.chain_start, m.chain_end);
    t.extension += ms_between(m.chain_end, ext_end);
    t.traceback += ms_between(ext_end, tb_end);
    t.emit += ms_between(tb_end, m.emit_end);
    if (spans) {
      spans->push_back({"ingest", 2, reader.first_start(c), ready});
      if (begin > prev) spans->push_back({"queue_wait", 1, prev, begin});
      spans->push_back({"seeding", 1, begin, m.chain_start});
      spans->push_back({"chaining", 1, m.chain_start, m.chain_end});
      spans->push_back({"extension", 1, m.chain_end, ext_end});
      if (m.extended) spans->push_back({"extension_kernel", 1, m.ext_start, m.ext_end});
      spans->push_back({"traceback", 1, ext_end, tb_end});
      if (m.traced) spans->push_back({"traceback_kernel", 1, m.tb_start, m.tb_end});
      spans->push_back({"emit", 1, tb_end, m.emit_end});
    }
    prev = m.emit_end;
  }
  return t;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        Clock::time_point epoch) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  out << "[\n"
      << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"mapper"}},)"
      << "\n"
      << R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"fastq reader"}})";
  char buf[256];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f}",
                  s.name.c_str(), s.track, us(s.start), us(s.end) - us(s.start));
    out << buf;
  }
  out << "\n]\n";
}

// ---------------------------------------------------------------------------
// Output validation.
// ---------------------------------------------------------------------------
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Query bases a SAM CIGAR consumes (M, I, S), or -1 when malformed.
long long cigar_query_len(const std::string& cigar) {
  long long total = 0, n = 0;
  bool digits = false;
  for (char c : cigar) {
    if (c >= '0' && c <= '9') {
      n = n * 10 + (c - '0');
      digits = true;
      continue;
    }
    if (!digits) return -1;
    if (c == 'M' || c == 'I' || c == 'S') {
      total += n;
    } else if (c != 'D') {
      return -1;
    }
    n = 0;
    digits = false;
  }
  return digits ? -1 : total;
}

/// Checks one record of the warm-up pass against its mapping and the
/// simulator's ground truth. Returns false when the record is invalid;
/// `on_target` reports whether it landed on the read's origin.
bool validate_record(const seedext::ReadMapper& mapper, const seq::SimulatedRead& truth,
                     const seedext::ReadMapping& mapping, const seq::SamRecord& rec,
                     bool* on_target) {
  *on_target = false;
  const std::size_t len = truth.read.bases.size();
  if (rec.seq.size() != len) return false;
  if (rec.unmapped()) return true;
  if (!mapping.mapped || !mapping.has_traceback) return false;
  const bool reverse = (rec.flags & seq::SamRecord::kFlagReverse) != 0;
  if (reverse != mapping.reverse_strand) return false;
  const auto& genome = mapper.genome();
  if (rec.pos < 1 || rec.pos > genome.size()) return false;
  if (cigar_query_len(rec.cigar) != static_cast<long long>(len)) return false;
  if (rec.mapq < 0 || rec.mapq > 60) return false;

  // The stored trace must be a consistent CIGAR over the mapped window that
  // rescores to the score it reports.
  const seedext::MappedWindow win = seedext::mapped_window(genome.size(), mapping.ref_pos, len);
  std::vector<seq::BaseCode> oriented =
      mapping.reverse_strand ? seq::reverse_complement(truth.read.bases) : truth.read.bases;
  std::span<const seq::BaseCode> window(genome.data() + win.start, win.end - win.start);
  if (!align::cigar_consistent(mapping.traced, window.size(), oriented.size())) return false;
  if (align::rescore_cigar(mapping.traced, window, oriented, mapper.params().scoring) !=
      mapping.traced.end.score) {
    return false;
  }

  // On target: the right strand, starting within half a read of the origin
  // (long reads often start a few hundred bases off behind a soft clip;
  // repeat copies land thousands of bases or whole genomes away).
  const std::size_t pos0 = rec.pos - 1;
  const std::size_t dist = pos0 > truth.true_pos ? pos0 - truth.true_pos : truth.true_pos - pos0;
  *on_target = reverse == truth.reverse_strand && dist <= len / 2;
  return true;
}

// ---------------------------------------------------------------------------
// The mapper under test: index + aligners, rebuilt for every set-up sample.
// ---------------------------------------------------------------------------
struct MapperStack {
  std::unique_ptr<seedext::ReadMapper> mapper;
  std::unique_ptr<core::Aligner> extension;  ///< score pass + chaining phase
  std::unique_ptr<core::Aligner> trace;      ///< two-phase (traceback) aligner
};

MapperStack build_stack(const Workload& w, const std::vector<seq::BaseCode>& genome) {
  MapperStack s;
  seedext::MapperParams params;
  params.index_shards = w.index_shards;
  s.mapper = std::make_unique<seedext::ReadMapper>(genome, params);
  core::AlignerOptions opts;
  opts.device = "simd";  // the inter-sequence SIMD host engine
  opts.longread_threshold = w.longread_threshold;
  opts.xdrop = w.xdrop;
  s.extension = std::make_unique<core::Aligner>(opts);
  opts.traceback = true;
  s.trace = std::make_unique<core::Aligner>(opts);
  return s;
}

/// Restarts the kernel's peak-RSS (VmHWM) record from the current RSS, after
/// handing free heap pages back so the set-up's garbage does not count.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
}

/// Peak resident set (MiB) since the last reset_peak_rss.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("mapbench", "end-to-end FASTQ -> SAM read-mapping benchmark");
  args.add_string("workload", "short_simd | short_sharded | ultralong", "");
  args.add_int("seed", "input seed (genome and reads)", 1);
  args.add_double("seconds", "measured time per run", 10.0);
  args.add_int("trace", "0 = end-to-end metrics, 1 = per-layer metrics", 0);
  args.add_string("trace-out", "with --trace=1: Chrome trace-event JSON output path", "");
  if (!args.parse(argc, argv)) return 2;

  const auto all = workloads();
  auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.get_string("workload");
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.get_string("workload").c_str());
    return 2;
  }
  const Workload& w = *it;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double seconds = args.get_double("seconds");
  const bool traced = args.get_int("trace") != 0;

  // --- Inputs (not part of any metric) -------------------------------------
  seq::GenomeParams gp;
  gp.length = kGenomeLen;
  gp.seed = seed;
  const std::vector<seq::BaseCode> genome = seq::generate_genome(gp);
  seq::ReadSimulator sim(genome, w.profile, seed * 7919 + 1);
  const std::vector<seq::SimulatedRead> truth = sim.simulate(w.reads);
  std::string fastq;
  double bases = 0;
  {
    std::vector<seq::Sequence> reads;
    for (const auto& r : truth) {
      reads.push_back(r.read);
      bases += static_cast<double>(r.read.bases.size());
    }
    std::ostringstream out;
    seq::write_fastq(out, reads);
    fastq = out.str();
  }

  // --- Set-up: index build + aligner construction, median of several -------
  // The previous stack is destroyed before each build so the index registry
  // cannot hand back the last build.
  std::vector<double> setup_s;
  MapperStack stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack = MapperStack{};
    const auto t0 = Clock::now();
    stack = build_stack(w, genome);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  const seedext::ReadMapper& mapper = *stack.mapper;
  // The memory metric covers mapping only: the resident index and inputs
  // plus whatever the passes allocate, not the transient peaks of index
  // construction.
  reset_peak_rss();

  // --- Hooks: each wraps the library's own engine for one layer ------------
  Probe probe;
  {
    seedext::BatchChainer chain = stack.extension->batch_chainer();
    stack.mapper->set_batch_chainer([&probe, chain](const seedext::ChainBatch& batch) {
      if (!probe.on) return chain(batch);
      ChunkMarks& m = probe.chunks.emplace_back();
      m.chain_start = Clock::now();
      seedext::ChainStageResult r = chain(batch);
      m.chain_end = Clock::now();
      probe.counts.anchors += static_cast<double>(r.anchors);
      probe.counts.updates += static_cast<double>(r.updates);
      return r;
    });
  }
  // The extenders call Aligner::align, as batch_extender() and
  // traced_extender() do, so the probe can also read the cells computed.
  const seedext::BatchExtender extend = [&](const seq::PairBatch& batch) {
    if (!probe.on) return stack.extension->align(batch).results;
    ChunkMarks& m = probe.chunks.back();
    m.ext_start = Clock::now();
    core::AlignOutput out = stack.extension->align(batch);
    m.ext_end = Clock::now();
    m.extended = true;
    probe.counts.ext_jobs += static_cast<double>(batch.size());
    probe.counts.ext_cells += static_cast<double>(out.cells);
    return std::move(out.results);
  };
  const seedext::TracedBatchExtender trace = [&](const seq::PairBatch& batch) {
    if (!probe.on) return stack.trace->align(batch).traced;
    ChunkMarks& m = probe.chunks.back();
    m.tb_start = Clock::now();
    core::AlignOutput out = stack.trace->align(batch);
    m.tb_end = Clock::now();
    m.traced = true;
    probe.counts.tb_score_cells += static_cast<double>(out.cells);
    probe.counts.tb_engine_cells += static_cast<double>(out.traceback_cells);
    return std::move(out.traced);
  };

  seq::SamHeader header;
  header.reference_name = kRefName;
  header.reference_length = genome.size();
  header.command_line = "mapbench";

  // One pass over the whole FASTQ. `check`, when set, sees every record.
  using Check = std::function<void(std::size_t, const seedext::ReadMapping&,
                                   const seq::SamRecord&)>;
  struct PassResult {
    double ms = 0;
    std::uint64_t digest = 0;
    std::size_t records = 0;
    LayerTimes layers;
  };
  std::vector<Span> spans;
  auto run_pass = [&](const Check& check, bool probed) {
    PassResult res;
    probe.reset();
    probe.on = probed;
    std::ostringstream sam;
    seq::SamWriter writer(sam, header);
    std::size_t index = 0;
    auto sink = [&](const seq::Sequence& read, const seedext::ReadMapping& mapping) {
      seq::SamRecord rec = seedext::to_sam_record(mapper, read, mapping, kRefName);
      writer.write(rec);
      if (check) check(index, mapping, rec);
      ++index;
      if (probed && (index % w.chunk_records == 0 || index == w.reads)) {
        probe.chunks.back().emit_end = Clock::now();
      }
    };
    std::istringstream in(fastq);
    const auto t0 = Clock::now();
    if (probed) {
      TimedFastqReader reader(in, w.chunk_records);
      mapper.map_stream(reader, extend, trace, sink);
      const auto t1 = Clock::now();
      res.layers = reduce_pass(probe, reader, t0, t1, args.get_string("trace-out").empty()
                                                          ? nullptr
                                                          : &spans);
    } else {
      seq::FastqChunkReader reader(in, w.chunk_records);
      mapper.map_stream(reader, extend, trace, sink);
    }
    res.ms = ms_between(t0, Clock::now());
    probe.on = false;
    res.digest = fnv1a(sam.str());
    res.records = index;
    return res;
  };

  // --- Warm-up pass: validates every record, keeps the oracle sample -------
  std::size_t invalid = 0, on_target = 0, mapped = 0;
  std::vector<seedext::ReadMapping> sample(std::min(w.oracle_reads, w.reads));
  const PassResult warm = run_pass(
      [&](std::size_t i, const seedext::ReadMapping& mapping, const seq::SamRecord& rec) {
        bool hit = false;
        if (!validate_record(mapper, truth[i], mapping, rec, &hit)) ++invalid;
        on_target += hit;
        mapped += !rec.unmapped();
        if (i < sample.size()) sample[i] = mapping;
      },
      /*probed=*/false);
  if (warm.records != w.reads) invalid += w.reads;

  // The per-read CPU path (per-job Smith-Waterman, no batching, no SIMD) is
  // the oracle for the batched, scheduled, streamed mappings.
  std::size_t oracle_mismatch = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const seedext::ReadMapping ref = mapper.map(truth[i].read.bases);
    const seedext::ReadMapping& got = sample[i];
    if (ref.mapped != got.mapped || ref.ref_pos != got.ref_pos ||
        ref.reverse_strand != got.reverse_strand || ref.score != got.score) {
      ++oracle_mismatch;
    }
  }

  // --- Timed passes ----------------------------------------------------------
  std::vector<PassResult> passes;
  std::size_t diverged = 0;
  const auto epoch = Clock::now();
  do {
    passes.push_back(run_pass(nullptr, traced));
    if (passes.back().digest != warm.digest) ++diverged;
  } while (ms_between(epoch, Clock::now()) < seconds * 1e3);

  const std::size_t attempted = w.reads * (passes.size() + 1);
  const std::size_t failed = invalid + oracle_mismatch + diverged * w.reads;
  const double correct_pct = 100.0 * static_cast<double>(on_target) / static_cast<double>(w.reads);
  const bool correct = failed == 0 && correct_pct >= kMinOnTargetPct;

  auto median_of = [&](auto field) {
    std::vector<double> xs;
    for (const PassResult& p : passes) xs.push_back(field(p));
    return util::median(xs);
  };
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  };

  if (!traced) {
    add("mbases_per_s", median_of([&](const PassResult& p) { return bases / p.ms / 1e3; }),
        "Mbp/s");
    add("setup_s", util::median(setup_s), "s");
    add("map_peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    auto layer = [&](double LayerTimes::*f) {
      return median_of([&](const PassResult& p) { return p.layers.*f; });
    };
    auto share = [&](double LayerTimes::*f) {
      return median_of([&](const PassResult& p) { return 100.0 * p.layers.*f / p.layers.pass; });
    };
    const double pass_ms = layer(&LayerTimes::pass);
    add("pass_ms", pass_ms, "ms");
    add("ingest_ms", layer(&LayerTimes::ingest), "ms");
    add("queue_wait_ms", layer(&LayerTimes::wait), "ms");
    add("seeding_ms", layer(&LayerTimes::seeding), "ms");
    add("chaining_ms", layer(&LayerTimes::chaining), "ms");
    add("extension_ms", layer(&LayerTimes::extension), "ms");
    add("traceback_ms", layer(&LayerTimes::traceback), "ms");
    add("emit_ms", layer(&LayerTimes::emit), "ms");
    add("queue_wait_pct", share(&LayerTimes::wait), "%");
    add("seeding_pct", share(&LayerTimes::seeding), "%");
    add("chaining_pct", share(&LayerTimes::chaining), "%");
    add("extension_pct", share(&LayerTimes::extension), "%");
    add("traceback_pct", share(&LayerTimes::traceback), "%");
    add("emit_pct", share(&LayerTimes::emit), "%");
    add("covered_pct", median_of([&](const PassResult& p) {
          const LayerTimes& t = p.layers;
          return 100.0 * (t.wait + t.seeding + t.chaining + t.extension + t.traceback + t.emit) /
                 t.pass;
        }),
        "%");
    // Per-pass work counts (identical every pass: the inputs do not change).
    add("chain_anchors", probe.counts.anchors, "count");
    add("chain_updates", probe.counts.updates, "count");
    add("ext_jobs", probe.counts.ext_jobs, "count");
    add("ext_cells", probe.counts.ext_cells, "count");
    add("tb_score_cells", probe.counts.tb_score_cells, "count");
    add("tb_engine_cells", probe.counts.tb_engine_cells, "count");
    add("mapped_pct", 100.0 * static_cast<double>(mapped) / static_cast<double>(w.reads), "%");
    add("on_target_pct", correct_pct, "%");
    if (!args.get_string("trace-out").empty()) {
      write_chrome_trace(args.get_string("trace-out"), spans, epoch);
    }
  }

  std::printf("workload %s seed %llu: %zu reads, %.0f bases, %zu timed passes, "
              "%zu invalid, %zu oracle mismatches, %zu diverged passes, %.2f%% on target\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), w.reads, bases,
              passes.size(), invalid, oracle_mismatch, diverged, correct_pct);
  std::printf("  pass ms:");
  for (const PassResult& p : passes) std::printf(" %.1f", p.ms);
  std::printf("\n  setup s:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-20s %14.4f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].first + "\": {\"value\": " + fmt(metrics[i].second.first) +
            ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
