// BoundedQueue semantics: FIFO order, capacity backpressure, MPMC safety,
// and — the property the streaming pipeline leans on — close() waking every
// blocked producer and consumer so threads always join cleanly.
#include "util/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace saloba::util {
namespace {

TEST(BoundedQueue, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(*q.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(*q.pop(), 2);
}

TEST(BoundedQueue, CloseDrainsRemainingItemsThenStops) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(3));  // closed: push fails
  EXPECT_EQ(*q.pop(), 1);   // already-queued items still drain
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained: end of stream
}

TEST(BoundedQueue, CloseWakesBlockedProducerAndConsumer) {
  // The shutdown property: a producer blocked on a full queue and a
  // consumer blocked on an empty one must both return promptly on close —
  // no deadlock, clean joins.
  BoundedQueue<int> full(1);
  ASSERT_TRUE(full.push(0));
  std::thread producer([&] { EXPECT_FALSE(full.push(1)); });

  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.pop().has_value()); });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.close();
  empty.close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueue, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }

  std::atomic<long long> total{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        total += *v;
        ++count;
      }
    });
  }

  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  const int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(total.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(BoundedQueue, MoveOnlyPayloads) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.push(std::make_unique<int>(42)));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 42);
}

}  // namespace
}  // namespace saloba::util
