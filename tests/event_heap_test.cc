#include "src/sim/event_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/error.h"
#include "src/util/rng.h"

namespace vodrep {
namespace {

TEST(EventHeap, PopsInTimeOrder) {
  EventHeap heap;
  (void)heap.push(3.0, 30);
  (void)heap.push(1.0, 10);
  (void)heap.push(2.0, 20);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_DOUBLE_EQ(heap.min_time(), 1.0);
  EXPECT_EQ(heap.pop_min().payload, 10u);
  EXPECT_EQ(heap.pop_min().payload, 20u);
  EXPECT_EQ(heap.pop_min().payload, 30u);
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, EqualTimesPopInInsertionOrder) {
  EventHeap heap;
  for (std::size_t i = 0; i < 20; ++i) (void)heap.push(5.0, i);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(heap.pop_min().payload, i);
  }
}

TEST(EventHeap, CancelRemovesPendingEvent) {
  EventHeap heap;
  const EventHeap::Id a = heap.push(1.0, 1);
  const EventHeap::Id b = heap.push(2.0, 2);
  (void)heap.push(3.0, 3);
  EXPECT_TRUE(heap.active(b));
  heap.cancel(b);
  EXPECT_FALSE(heap.active(b));
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.pop_min().payload, 1u);
  EXPECT_EQ(heap.pop_min().payload, 3u);
  EXPECT_FALSE(heap.active(a));  // popped ids go inactive too
}

TEST(EventHeap, CancelMinRetargetsMinTime) {
  EventHeap heap;
  const EventHeap::Id a = heap.push(1.0, 1);
  (void)heap.push(2.0, 2);
  heap.cancel(a);
  EXPECT_DOUBLE_EQ(heap.min_time(), 2.0);
}

TEST(EventHeap, CancelTwiceThrows) {
  EventHeap heap;
  const EventHeap::Id a = heap.push(1.0, 1);
  heap.cancel(a);
  EXPECT_THROW(heap.cancel(a), InvalidArgumentError);
}

TEST(EventHeap, CancelPoppedThrows) {
  EventHeap heap;
  const EventHeap::Id a = heap.push(1.0, 1);
  (void)heap.pop_min();
  EXPECT_THROW(heap.cancel(a), InvalidArgumentError);
}

TEST(EventHeap, IdsAreRecycledSafely) {
  EventHeap heap;
  const EventHeap::Id a = heap.push(1.0, 1);
  heap.cancel(a);
  const EventHeap::Id b = heap.push(2.0, 2);
  // Whether or not the id value is reused, the new handle must refer to the
  // new event only.
  EXPECT_TRUE(heap.active(b));
  EXPECT_EQ(heap.pop_min().payload, 2u);
}

// A cancelled lane head, interior entry and tail stay cancelled (their
// handles go stale at once), size() counts only live events, and a push at
// the cancelled tail's time still joins the lane behind it.  An earlier
// push takes the heap and pops in (time, insertion order) among the lane's
// events, ties included.
TEST(EventHeap, LaneTombstonesKeepOrderAndSize) {
  EventHeap heap;
  std::vector<EventHeap::Id> lane;
  for (std::size_t i = 0; i < 5; ++i) {
    lane.push_back(heap.push(static_cast<double>(i + 1), i));
  }
  const EventHeap::Id early = heap.push(2.5, 5);  // before the tail: heap
  heap.cancel(lane[0]);                           // lane head
  heap.cancel(lane[2]);                           // interior
  heap.cancel(lane[4]);                           // tail
  const std::vector<EventHeap::Id> stale = {lane[0], lane[2], lane[4]};
  for (const EventHeap::Id id : stale) EXPECT_FALSE(heap.active(id));
  EXPECT_TRUE(heap.active(lane[1]));
  EXPECT_TRUE(heap.active(lane[3]));
  EXPECT_TRUE(heap.active(early));
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_DOUBLE_EQ(heap.min_time(), 2.0);

  const EventHeap::Id at_tail = heap.push(5.0, 6);  // equals the cancelled tail
  const EventHeap::Id tie = heap.push(4.0, 7);      // ties lane entry 3
  EXPECT_EQ(heap.size(), 5u);
  for (const EventHeap::Id id : stale) EXPECT_FALSE(heap.active(id));
  EXPECT_TRUE(heap.active(at_tail));
  EXPECT_TRUE(heap.active(tie));

  const std::vector<std::pair<double, std::size_t>> expected = {
      {2.0, 1}, {2.5, 5}, {4.0, 3}, {4.0, 7}, {5.0, 6}};
  for (const auto& [time, payload] : expected) {
    EXPECT_DOUBLE_EQ(heap.min_time(), time);
    const EventHeap::Event event = heap.pop_min();
    EXPECT_DOUBLE_EQ(event.time, time);
    EXPECT_EQ(event.payload, payload);
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  for (const EventHeap::Id id : {lane[0], lane[1], lane[2], lane[3], lane[4],
                                 early, at_tail, tie}) {
    EXPECT_FALSE(heap.active(id));
    EXPECT_THROW(heap.cancel(id), InvalidArgumentError);
  }
}

// Differential check against a sorted-reference scheduler: random pushes,
// cancels, and pops must pop the exact same (time, payload) sequence as a
// stable sort by (time, insertion order).  The uniform mode draws coarse
// times in any order; the monotone-heavy mode pushes about 90% of events
// in non-decreasing time (the FIFO lane) and the rest earlier (the heap),
// with cancels landing in both lanes and pops interleaved with the pushes.
TEST(EventHeap, MatchesSortedReferenceUnderRandomOps) {
  struct Ref {
    double time;
    std::uint64_t seq;
    std::size_t payload;
    EventHeap::Id id;
  };
  const auto earlier = [](const Ref& a, const Ref& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  };
  Rng rng(0xE4EA9);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const bool monotone_heavy = trial % 2 == 1;
    EventHeap heap;
    std::vector<Ref> live;  // pending in the reference, any order
    std::uint64_t seq = 0;
    double clock = 0.0;
    const auto pop_and_compare = [&] {
      const auto min = std::min_element(live.begin(), live.end(), earlier);
      ASSERT_DOUBLE_EQ(heap.min_time(), min->time);
      const EventHeap::Event event = heap.pop_min();
      EXPECT_DOUBLE_EQ(event.time, min->time);
      EXPECT_EQ(event.payload, min->payload);
      EXPECT_FALSE(heap.active(min->id));
      live.erase(min);
    };
    const std::size_t ops = 200 + rng.uniform_index(400);
    for (std::size_t op = 0; op < ops; ++op) {
      double time = 0.0;
      if (!monotone_heavy) {
        // Coarse times force plenty of exact ties.
        time = static_cast<double>(rng.uniform_index(50));
      } else if (rng.bernoulli(0.9)) {
        clock += static_cast<double>(rng.uniform_index(3));
        time = clock;
      } else {
        time = clock - 1.0 - static_cast<double>(rng.uniform_index(20));
      }
      const EventHeap::Id id = heap.push(time, op);
      EXPECT_TRUE(heap.active(id));
      live.push_back(Ref{time, seq++, op, id});
      if (rng.bernoulli(0.3)) {
        const std::size_t pick = rng.uniform_index(live.size());
        heap.cancel(live[pick].id);
        EXPECT_FALSE(heap.active(live[pick].id));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      if (monotone_heavy && !live.empty() && rng.bernoulli(0.4)) {
        pop_and_compare();
      }
      ASSERT_EQ(heap.size(), live.size());
    }
    while (!live.empty()) {
      pop_and_compare();
      ASSERT_EQ(heap.size(), live.size());
    }
    EXPECT_TRUE(heap.empty());
  }
}

}  // namespace
}  // namespace vodrep
