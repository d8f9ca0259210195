#include "core/aligner.hpp"

#include <stdexcept>

#include "gpusim/device_registry.hpp"

namespace saloba::core {

Aligner::Aligner(AlignerOptions options) : options_(std::move(options)) {
  backend_ = make_backend(options_);
  SchedulerOptions sched;  // uncapped: one shard per lane
  sched.policy = options_.split_policy;
  sched.longread = options_.longread_policy();
  sched.traceback = options_.traceback;
  scheduler_ = std::make_unique<BatchScheduler>(backend_.get(), sched);
}

Aligner::~Aligner() = default;
Aligner::Aligner(Aligner&&) noexcept = default;
Aligner& Aligner::operator=(Aligner&&) noexcept = default;

AlignOutput Aligner::align(const seq::PairBatch& batch) { return scheduler_->run(batch); }

std::function<std::vector<align::AlignmentResult>(const seq::PairBatch&)>
Aligner::batch_extender() {
  return [this](const seq::PairBatch& batch) { return align(batch).results; };
}

std::function<std::vector<align::TracedAlignment>(const seq::PairBatch&)>
Aligner::traced_extender() {
  if (!options_.traceback) {
    throw std::invalid_argument(
        "Aligner::traced_extender needs AlignerOptions::traceback = true");
  }
  return [this](const seq::PairBatch& batch) { return align(batch).traced; };
}

seedext::BatchChainer Aligner::batch_chainer() {
  return [this](const seedext::ChainBatch& batch) {
    ChainPhaseOutput out = scheduler_->chain(batch);
    seedext::ChainStageResult res;
    res.chains = std::move(out.items);
    res.chaining_ms = out.time_ms;
    res.anchors = batch.anchors();  // every task runs exactly once
    res.updates = out.work;
    return res;
  };
}

gpusim::DeviceSpec Aligner::device_by_name(const std::string& name) {
  return gpusim::device_by_name(name);
}

}  // namespace saloba::core
