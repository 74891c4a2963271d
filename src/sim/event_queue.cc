#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace lazyrep::sim {

namespace {
/// Heap arity. 4 keeps the tree shallow (half the levels of a binary heap)
/// while a node's children share one or two cache lines; measured best on
/// the cancel-heavy and schedule/fire microbenches.
constexpr size_t kArity = 4;
static_assert(kArity == 4, "RemoveAt's child tournament is written for four");
}  // namespace

uint32_t EventQueue::AllocateSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  links_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;
  if (s.generation == 0) ++s.generation;  // generation 0 means "invalid id"
  s.handle = nullptr;
  s.callback.Reset();
  free_slots_.push_back(slot);
}

void EventQueue::PlaceNode(size_t pos, const HeapNode& node) {
  heap_[pos] = node;
  links_[node.slot].pos = static_cast<uint32_t>(pos);
}

void EventQueue::SiftUp(size_t pos, HeapNode node) {
  while (pos > 0) {
    size_t parent = (pos - 1) / kArity;
    if (!Before(node, heap_[parent])) break;
    PlaceNode(pos, heap_[parent]);
    pos = parent;
  }
  PlaceNode(pos, node);
}

void EventQueue::EnterHeap(HeapNode node) {
  ++heap_entries_;
  heap_.emplace_back();  // grow; SiftUp writes every vacated position
  SiftUp(heap_.size() - 1, node);
}

EventId EventQueue::PushToHeap(uint64_t key, uint64_t seq, uint32_t slot) {
  ++heap_events_;
  if (key == open_key_ && open_tail_ != kNoSlot) {
    // Same instant as the previous heap push, whose run is still queued:
    // every heap push since the run opened has joined it, and lane pushes
    // for this instant cannot be live (the lane holds only lane_key_), so
    // the run's seqs stay an interval no other event for this time is in.
    slots_[open_tail_].next = slot;
    slots_[slot].next = kNoSlot;
    links_[slot] = Link{kInRun, open_tail_};
    open_tail_ = slot;
  } else {
    ++heap_nodes_opened_;
    slots_[slot].next = kNoSlot;
    const HeapNode node{key, seq, slot};
    // The new earliest node takes the top slot. An occupied slot's node
    // sorts before every heap node, so beating it beats them all, and it is
    // second now: it enters the heap.
    const HeapNode* first = Earliest();
    if (first == nullptr || Before(node, *first)) {
      if (first == &top_) EnterHeap(top_);
      top_ = node;
      links_[slot].pos = kInTop;
    } else {
      EnterHeap(node);
    }
    open_key_ = key;
    open_tail_ = slot;
  }
  return EventId{slot, slots_[slot].generation};
}

void EventQueue::AppendToLane(uint64_t seq, uintptr_t ref) {
  // When full, drop the fired prefix if it is at least half the array, so
  // capacity tracks the live lane length, not the events per instant.
  if (lane_.size() == lane_.capacity() && 2 * lane_head_ >= lane_.size()) {
    lane_.erase(lane_.begin(), lane_.begin() + lane_head_);
    lane_head_ = 0;
  }
  lane_.push_back(LaneNode{seq, ref});
}

void EventQueue::RemoveFromLane(uint32_t slot) {
  const uintptr_t ref = CallbackRef(slot);
  auto it = std::find_if(lane_.begin() + lane_head_, lane_.end(),
                         [ref](const LaneNode& n) { return n.ref == ref; });
  LAZYREP_CHECK(it != lane_.end());
  lane_.erase(it);
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
}

EventId EventQueue::ScheduleResume(SimTime t, std::coroutine_handle<> handle) {
  const auto frame = reinterpret_cast<uintptr_t>(handle.address());
  LAZYREP_CHECK(frame != 0 && (frame & kCallbackTag) == 0);
  const uint64_t seq = next_seq_++;
  const uint64_t key = TimeKey(t);
  if (key == lane_key_) {
    // Same instant as the lane: appending keeps it sorted by (time, seq).
    // Nothing cancels a wake-up, so it takes no slot and gets no id.
    AppendToLane(seq, frame);
    return EventId{};
  }
  const uint32_t slot = AllocateSlot();
  slots_[slot].handle = handle;
  return PushToHeap(key, seq, slot);
}

EventId EventQueue::ScheduleCallback(SimTime t, Callback fn) {
  LAZYREP_CHECK(fn);
  const uint64_t seq = next_seq_++;
  const uint64_t key = TimeKey(t);
  const uint32_t slot = AllocateSlot();
  slots_[slot].callback = std::move(fn);
  if (key == lane_key_) {
    AppendToLane(seq, CallbackRef(slot));
    links_[slot].pos = kInLane;
    return EventId{slot, slots_[slot].generation};
  }
  return PushToHeap(key, seq, slot);
}

void EventQueue::RemoveAt(size_t pos) {
  HeapNode last = heap_.back();
  heap_.pop_back();
  const size_t size = heap_.size();
  if (pos == size) return;  // removed the tail entry
  // Re-seat the former tail at `pos`: it may need to move either direction.
  if (pos > 0 && Before(last, heap_[(pos - 1) / kArity])) {
    SiftUp(pos, last);
    return;
  }
  // Bottom-up descent (the Pop hot path, pos == 0): walk the hole down to a
  // leaf taking the best child each level — no compare against `last` on the
  // way — then sift `last` up from the leaf. The tail of a heap is leaf-grade
  // almost always, so the sift-up ends immediately and each level costs
  // kArity - 1 compares instead of kArity. The climb cannot pass `pos`: we
  // just checked `last` is not before pos's parent.
  const HeapNode* h = heap_.data();
  size_t hole = pos;
  size_t c = hole * kArity + 1;
  // A full group of four children: a two-round tournament whose winners are
  // picked by index arithmetic, so no branch depends on the keys.
  for (; c + kArity <= size; c = hole * kArity + 1) {
    const size_t b01 = c + Before(h[c + 1], h[c]);
    const size_t b23 = c + 2 + Before(h[c + 3], h[c + 2]);
    // Before(h[b23], h[b01]) ? b23 : b01, as a mask select (a plain ternary
    // compiles to a branch here).
    const size_t take23 = 0 - size_t{Before(h[b23], h[b01])};
    const size_t best = b01 ^ ((b01 ^ b23) & take23);
    PlaceNode(hole, h[best]);
    hole = best;
  }
  // The short last group (one to three children); its winner is a leaf.
  if (c < size) {
    size_t best = c;
    for (size_t k = c + 1; k < size; ++k) {
      if (Before(h[k], h[best])) best = k;
    }
    PlaceNode(hole, h[best]);
    hole = best;
  }
  SiftUp(hole, last);
}

void EventQueue::RemoveHead(uint32_t pos, uint32_t slot) {
  const uint32_t next = slots_[slot].next;
  if (next != kNoSlot) {
    // The node keeps its key and seq: the successor's seq lies in the same
    // interval, so the node orders exactly as before.
    (pos == kInTop ? top_ : heap_[pos]).slot = next;
    links_[next].pos = pos;
  } else {
    if (pos == kInTop) {
      top_.slot = kNoSlot;
    } else {
      RemoveAt(pos);
    }
    if (slot == open_tail_) open_tail_ = kNoSlot;  // its run left the heap
  }
  --heap_events_;
}

bool EventQueue::Cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.generation != id.generation || (!s.handle && !s.callback)) {
    return false;
  }
  const Link link = links_[id.slot];
  if (link.pos == kInLane) {
    RemoveFromLane(id.slot);
  } else if (link.pos == kInRun) {
    slots_[link.prev].next = s.next;
    if (s.next != kNoSlot) links_[s.next].prev = link.prev;
    // The open run's last member leaves: its predecessor is last now.
    if (id.slot == open_tail_) open_tail_ = link.prev;
    --heap_events_;
  } else {
    RemoveHead(link.pos, id.slot);
  }
  ReleaseSlot(id.slot);
  return true;
}

EventQueue::Fired EventQueue::Pop() {
  LAZYREP_CHECK(!Empty());
  Fired fired;
  uint32_t slot;
  // Merge on the (time, seq) key: the lane front fires unless the heap
  // side's earliest node comes first, so the pop order is the heap-only
  // order.
  const HeapNode* first = Earliest();
  if (!lane_.empty() &&
      (first == nullptr ||
       Before(HeapNode{lane_key_, lane_[lane_head_].seq, 0}, *first))) {
    const uintptr_t ref = lane_[lane_head_].ref;
    fired.time = KeyTime(lane_key_);
    if (++lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    if ((ref & kCallbackTag) == 0) {
      // A lane resume: its address is the whole event.
      fired.handle =
          std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ref));
      return fired;
    }
    slot = static_cast<uint32_t>(ref >> 1);
  } else {
    const uint64_t key = first->key;
    slot = first->slot;
    fired.time = KeyTime(key);
    RemoveHead(first == &top_ ? kInTop : 0, slot);
    // The lane follows the clock: events scheduled at this instant join it.
    if (lane_.empty()) lane_key_ = key;
  }
  Slot& s = slots_[slot];
  if (s.handle) {
    fired.handle = s.handle;
  } else {
    fired.callback = std::move(s.callback);
  }
  ReleaseSlot(slot);
  return fired;
}

}  // namespace lazyrep::sim
