// In-order emission of out-of-order completions — the reorder stage of
// core::AlignService's per-session result channels. Completions arrive
// tagged with a dense index (the session's segment sequence: align workers
// finish merged batches out of order); push() buffers out-of-order arrivals
// and hands every maximal ready prefix to the sink in index order. The
// ordering invariant behind streamed == one-shot is locked at the unit
// level (tests/core/ordered_emitter_test.cpp), not just end to end.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <utility>

#include "util/check.hpp"

namespace saloba::core {

/// Not thread-safe: callers serialize push() themselves (AlignService
/// pushes under the service lock).
/// The sink must not reenter push().
template <typename T>
class OrderedEmitter {
 public:
  using Sink = std::function<void(std::size_t index, T&& item)>;

  explicit OrderedEmitter(Sink sink) : sink_(std::move(sink)) {}

  /// Accepts completion `index` (each index exactly once, indices dense
  /// from 0) and flushes the ready prefix: the sink sees 0, 1, 2, ... with
  /// no gaps, regardless of arrival order.
  void push(std::size_t index, T item) {
    SALOBA_CHECK_MSG(index >= next_ && pending_.find(index) == pending_.end(),
                     "duplicate completion index " << index);
    pending_.emplace(index, std::move(item));
    for (auto it = pending_.find(next_); it != pending_.end();
         it = pending_.find(next_)) {
      T ready = std::move(it->second);
      pending_.erase(it);
      sink_(next_++, std::move(ready));
    }
  }

  /// The next index the sink will see — equivalently, how many items have
  /// been emitted so far.
  std::size_t next_index() const { return next_; }
  /// Out-of-order arrivals currently buffered (0 = fully drained).
  std::size_t pending() const { return pending_.size(); }

 private:
  Sink sink_;
  std::map<std::size_t, T> pending_;
  std::size_t next_ = 0;
};

}  // namespace saloba::core
