// OrderedEmitter: the reorder stage of AlignService's per-session channels
// (and so of StreamAligner, one session of a service). Locks the invariant
// both lean on — the sink sees indices 0, 1, 2, ... with no gaps or
// duplicates, for every arrival order — at the unit level.
#include "core/ordered_emitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace saloba::core {
namespace {

TEST(OrderedEmitter, InOrderArrivalsFlushImmediately) {
  std::vector<std::string> seen;
  OrderedEmitter<std::string> emitter(
      [&](std::size_t, std::string&& s) { seen.push_back(std::move(s)); });
  for (int i = 0; i < 4; ++i) {
    emitter.push(static_cast<std::size_t>(i), "item" + std::to_string(i));
    EXPECT_EQ(emitter.pending(), 0u);  // nothing ever buffers
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"item0", "item1", "item2", "item3"}));
  EXPECT_EQ(emitter.next_index(), 4u);
}

TEST(OrderedEmitter, OutOfOrderArrivalsBufferUntilTheGapCloses) {
  std::vector<int> seen;
  OrderedEmitter<int> emitter([&](std::size_t, int&& v) { seen.push_back(v); });
  emitter.push(2, 20);
  emitter.push(1, 10);
  EXPECT_TRUE(seen.empty());  // index 0 is still missing
  EXPECT_EQ(emitter.pending(), 2u);
  emitter.push(0, 0);  // closes the gap: flushes 0, 1, 2 at once
  EXPECT_EQ(seen, (std::vector<int>{0, 10, 20}));
  EXPECT_EQ(emitter.pending(), 0u);
  EXPECT_EQ(emitter.next_index(), 3u);
}

TEST(OrderedEmitter, SinkReceivesTheEmissionIndex) {
  std::vector<std::size_t> indices;
  OrderedEmitter<int> emitter([&](std::size_t i, int&&) { indices.push_back(i); });
  emitter.push(1, 0);
  emitter.push(0, 0);
  emitter.push(2, 0);
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(OrderedEmitter, EveryPermutationEmitsInOrder) {
  std::vector<std::size_t> order{0, 1, 2, 3, 4};
  do {
    std::vector<int> seen;
    OrderedEmitter<int> emitter([&](std::size_t, int&& v) { seen.push_back(v); });
    for (std::size_t index : order) {
      emitter.push(index, static_cast<int>(index) * 10);
    }
    EXPECT_EQ(seen, (std::vector<int>{0, 10, 20, 30, 40}));
    EXPECT_EQ(emitter.pending(), 0u);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(OrderedEmitter, RandomizedLargeStreamDrainsInOrder) {
  util::Xoshiro256 rng(7);
  constexpr std::size_t kItems = 500;
  std::vector<std::size_t> order(kItems);
  std::iota(order.begin(), order.end(), 0u);
  // Fisher-Yates with the repo RNG (the emitter itself is deterministic;
  // only the arrival order is shuffled).
  for (std::size_t i = kItems - 1; i > 0; --i) {
    std::size_t j = static_cast<std::size_t>(rng.uniform() * static_cast<double>(i + 1));
    std::swap(order[i], order[std::min(j, i)]);
  }
  std::vector<std::size_t> seen;
  OrderedEmitter<std::size_t> emitter(
      [&](std::size_t, std::size_t&& v) { seen.push_back(v); });
  for (std::size_t index : order) emitter.push(index, std::size_t{index});
  ASSERT_EQ(seen.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(emitter.next_index(), kItems);
  EXPECT_EQ(emitter.pending(), 0u);
}

TEST(OrderedEmitter, MoveOnlyPayloads) {
  std::vector<int> seen;
  OrderedEmitter<std::unique_ptr<int>> emitter(
      [&](std::size_t, std::unique_ptr<int>&& p) { seen.push_back(*p); });
  emitter.push(1, std::make_unique<int>(11));
  emitter.push(0, std::make_unique<int>(10));
  EXPECT_EQ(seen, (std::vector<int>{10, 11}));
}

TEST(OrderedEmitterDeath, DuplicateIndexIsRejected) {
  OrderedEmitter<int> buffered([](std::size_t, int&&) {});
  buffered.push(1, 0);  // still pending
  EXPECT_DEATH(buffered.push(1, 0), "duplicate completion index");

  OrderedEmitter<int> emitted([](std::size_t, int&&) {});
  emitted.push(0, 0);  // already emitted
  EXPECT_DEATH(emitted.push(0, 0), "duplicate completion index");
}

}  // namespace
}  // namespace saloba::core
