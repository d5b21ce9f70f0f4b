#include "src/sim/event_heap.h"

#include <algorithm>

#include "src/util/error.h"

namespace vodrep {

double EventHeap::min_time() const {
  require(!empty(), "EventHeap::min_time: empty heap");
  if (lane_.empty()) return nodes_[heap_.front()].time;
  const double lane_time = lane_[lane_.front()].time;
  return heap_.empty() ? lane_time
                       : std::min(lane_time, nodes_[heap_.front()].time);
}

EventHeap::Id EventHeap::push(double time, std::size_t payload) {
  const std::uint64_t seq = next_seq_++;
  if (lane_.empty() || time >= lane_tail_time_) {
    lane_tail_time_ = time;
    return kLaneBit | lane_.open(LaneEvent{time, seq, payload});
  }
  Id id;
  if (free_ids_.empty()) {
    id = nodes_.size();
    nodes_.emplace_back();
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  Node& node = nodes_[id];
  node.time = time;
  node.seq = seq;
  node.payload = payload;
  heap_.push_back(id);
  node.pos = heap_.size() - 1;
  sift_up(node.pos);
  return id;
}

EventHeap::Event EventHeap::pop_min() {
  require(!empty(), "EventHeap::pop_min: empty heap");
  if (!lane_.empty() && (heap_.empty() || lane_pops_first())) {
    const StreamTable<LaneEvent>::Id head = lane_.front();
    const LaneEvent& event = lane_[head];
    const Event out{event.time, event.payload};
    lane_.close(head);
    return out;
  }
  const std::size_t top = heap_.front();
  const Event event{nodes_[top].time, nodes_[top].payload};
  remove_at(0);
  return event;
}

void EventHeap::cancel(Id id) {
  require(active(id), "EventHeap::cancel: event is not scheduled");
  if ((id & kLaneBit) != 0) {
    lane_.close(id & ~kLaneBit);
  } else {
    remove_at(nodes_[id].pos);
  }
}

bool EventHeap::active(Id id) const {
  if ((id & kLaneBit) != 0) return lane_.is_open(id & ~kLaneBit);
  return id < nodes_.size() && nodes_[id].pos != kUnplaced;
}

bool EventHeap::lane_pops_first() const {
  const LaneEvent& lane = lane_[lane_.front()];
  const Node& top = nodes_[heap_.front()];
  if (lane.time != top.time) return lane.time < top.time;
  return lane.seq < top.seq;
}

bool EventHeap::before(std::size_t node_a, std::size_t node_b) const {
  const Node& a = nodes_[node_a];
  const Node& b = nodes_[node_b];
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

void EventHeap::place(std::size_t pos, std::size_t node) {
  heap_[pos] = node;
  nodes_[node].pos = pos;
}

void EventHeap::remove_at(std::size_t pos) {
  const std::size_t id = heap_[pos];
  nodes_[id].pos = kUnplaced;
  free_ids_.push_back(id);
  const std::size_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    // The replacement may violate the heap property in either direction.
    sift_up(pos);
    sift_down(pos);
  }
}

void EventHeap::sift_up(std::size_t pos) {
  const std::size_t node = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(node, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, node);
}

void EventHeap::sift_down(std::size_t pos) {
  const std::size_t node = heap_[pos];
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!before(heap_[child], node)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, node);
}

}  // namespace vodrep
