#include "src/sim/stream_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/util/rng.h"

namespace vodrep {
namespace {

TEST(StreamTable, IdsAreAdmissionNumbers) {
  StreamTable<int> table;
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(table.open(static_cast<int>(i)), i);
  }
  // Closing, even the whole table, never hands an id out again.
  for (std::size_t i = 0; i < 40; ++i) table.close(i);
  EXPECT_TRUE(table.empty());
  for (std::size_t i = 40; i < 50; ++i) {
    EXPECT_EQ(table.open(static_cast<int>(i)), i);
    EXPECT_EQ(table[i], static_cast<int>(i));
  }
  EXPECT_FALSE(table.is_open(0));
  EXPECT_FALSE(table.is_open(39));
  EXPECT_FALSE(table.is_open(50));
  EXPECT_EQ(table.live(), 10u);
  EXPECT_EQ(table.front(), 40u);
}

TEST(StreamTable, VisitsOpenRecordsInAdmissionOrder) {
  StreamTable<int> table;
  for (int i = 0; i < 20; ++i) (void)table.open(100 + i);
  for (const std::size_t id : {0u, 3u, 4u, 11u, 19u}) table.close(id);
  EXPECT_EQ(table.front(), 1u);

  std::vector<std::size_t> visited;
  table.for_each_open([&](std::size_t id, int& record) {
    EXPECT_EQ(record, 100 + static_cast<int>(id));
    visited.push_back(id);
    // Closing the visited record is allowed mid-walk.
    if (id % 2 == 0) table.close(id);
  });
  EXPECT_EQ(visited, (std::vector<std::size_t>{1, 2, 5, 6, 7, 8, 9, 10, 12,
                                               13, 14, 15, 16, 17, 18}));
  visited.clear();
  table.for_each_open(
      [&](std::size_t id, const int&) { visited.push_back(id); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{1, 5, 7, 9, 13, 15, 17}));
  EXPECT_EQ(table.live(), visited.size());
  EXPECT_EQ(table.front(), 1u);
  table.close(1);
  EXPECT_EQ(table.front(), 5u);
}

// Records close in random order but each within `kMaxHold` admissions of
// opening (a departure at most one video length away), so at most
// kMaxHold records are live and the span from the oldest open id to the
// newest never exceeds it: the ring stops growing at the next power of
// two no matter how many streams pass through.
TEST(StreamTable, StorageBoundedByLiveSpan) {
  constexpr std::size_t kMaxHold = 100;
  constexpr std::size_t kCycles = 1'000'000;
  Rng rng(0x57AB1E);
  StreamTable<std::size_t> table;
  // closes[t % (kMaxHold + 1)] holds the ids due to close at cycle t.
  std::vector<std::vector<std::size_t>> closes(kMaxHold + 1);
  std::size_t max_live = 0;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    for (const std::size_t id : closes[cycle % (kMaxHold + 1)]) {
      ASSERT_TRUE(table.is_open(id));
      ASSERT_EQ(table[id], 3 * id);
      table.close(id);
    }
    closes[cycle % (kMaxHold + 1)].clear();
    const std::size_t id = table.open(3 * cycle);
    ASSERT_EQ(id, cycle);
    const std::size_t hold = 1 + rng.uniform_index(kMaxHold);
    closes[(cycle + hold) % (kMaxHold + 1)].push_back(id);
    max_live = std::max(max_live, table.live());
  }
  EXPECT_LE(max_live, kMaxHold);
  EXPECT_LE(table.capacity(), 128u);
}

}  // namespace
}  // namespace vodrep
