#include "util/parallel.hpp"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace saloba::util {
namespace {

TEST(ParallelFor, IndexedCoversRange) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for_indexed(500, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, DeterministicOutputSlots) {
  std::vector<int> out(2000, -1);
  parallel_for_indexed(2000, [&](std::size_t i) { out[i] = static_cast<int>(i * 3); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i * 3));
}

}  // namespace
}  // namespace saloba::util
