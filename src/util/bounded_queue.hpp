// Blocking bounded MPMC queue with close semantics. push() blocks while the
// queue is full, pop() blocks while it is empty; close() wakes every
// waiter: pending and future pushes fail, pops drain the remaining items
// and then report exhaustion. Threads blocked on a queue therefore always
// join cleanly once it closes. Users: AlignService's in-flight merged
// batches, StreamAligner's residency tickets and ReadMapper::map_stream's
// chunk queue.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace saloba::util {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` >= 1 items may be queued before push() blocks.
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room or the queue is closed. Returns false (and
  /// drops `item`) iff the queue was closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained;
  /// std::nullopt means "no more items, ever".
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Idempotent. Already-queued items remain poppable; every blocked or
  /// future push fails, every blocked pop past the drain returns nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace saloba::util
