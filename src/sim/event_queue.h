#ifndef LAZYREP_SIM_EVENT_QUEUE_H_
#define LAZYREP_SIM_EVENT_QUEUE_H_

#include <bit>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_function.h"

namespace lazyrep::sim {

/// Simulated time, in seconds.
using SimTime = double;

/// Sentinel "never" time.
inline constexpr SimTime kTimeInfinity =
    std::numeric_limits<SimTime>::infinity();

/// Handle to a scheduled event; can be used to cancel it before it fires.
/// A default-constructed EventId is invalid and safe to cancel (no-op). A
/// resume that joins the same-instant lane gets an invalid id: it cannot be
/// cancelled (EventQueue::ScheduleResume).
struct EventId {
  uint32_t slot = 0;
  uint32_t generation = 0;

  bool valid() const { return generation != 0; }
};

/// Priority queue of simulation events ordered by (time, insertion sequence).
///
/// Events are either a coroutine handle to resume or an arbitrary callback.
/// The queue is an **indexed 4-ary min-heap of runs** beside a **same-instant
/// lane**:
///
///   * The lane is a FIFO of events scheduled at exactly the instant being
///     fired — the zero-delay wake-ups (OneShot::Fire, Simulation::Spawn)
///     that make up about half of all events. They skip the heap's
///     O(log n) push and pop. Every lane entry has the same time and they
///     arrive in sequence order, so the lane is sorted by (time, seq), and
///     Pop() merges it with the heap under that key: the pop order is
///     exactly that of the heap alone. A lane resume is its coroutine's
///     frame address and nothing else: no slot, so it cannot be cancelled
///     and costs no slot bookkeeping. A lane callback keeps a slot, as every
///     callback does, because callbacks are what callers cancel.
///   * Every other event goes to the heap, whose node is a *run*: a FIFO of
///     events for one time. A heap push for the same time as the previous
///     heap push joins that push's run in O(1), with no sift, as long as the
///     run is still queued — the legs of one multicast, for instance. A node
///     is ordered by its time and its first member's seq; the members' seqs
///     form an interval no other event for that time falls into, so the
///     node order is the (time, seq) order of its members (DESIGN.md
///     §4.1.1, runs). Popping or cancelling a run's head hands the node to
///     the next member in place; only a run's last member leaves the heap.
///     Each head records its heap position, so Cancel() removes an event in
///     O(1) within a run and O(log n) otherwise, instead of leaving a dead
///     entry behind; cancelling a lane callback shifts the lane (linear in
///     its length; zero-delay callbacks are not cancelled in practice). A heap
///     node stores its time as an integer key that orders exactly like the
///     double (TimeKey), so (time, seq) compares as one unsigned 128-bit
///     integer, without a data-dependent branch.
///   * The heap's earliest node may wait outside it, in the *top slot*: a
///     push that opens a node sorting before every queued node takes the
///     slot (displacing the node there into the heap), so it pops with no
///     sift in and no RemoveAt out. While the slot is occupied its node
///     sorts before every node in the 4-ary heap, so the slot, else the heap
///     root, is the heap side's earliest node; the nodes and their keys are
///     those of the heap alone, and so is the pop order (DESIGN.md §4.1.1,
///     top slot).
///
/// Heap plus lane therefore hold exactly the live events at all times —
/// cancel-heavy workloads (condition timeouts, retransmission timers) cannot
/// bloat them, and PeekTime()/Empty() are const.
///
/// Every heap event and every callback owns a slot; a lane resume does not.
/// Slots are recycled through a free list; generation counters make stale
/// EventIds (including ids of already-fired events) harmless to cancel.
/// Callbacks are stored inline in the slot (InlineFunction): scheduling an
/// event performs no heap allocation once the slot, heap and lane arrays
/// have reached steady-state capacity.
class EventQueue {
 public:
  using Callback = InlineFunction<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `handle` to be resumed at absolute time `t`. A resume for
  /// the lane's instant (the zero-delay wake-up) joins the lane as its frame
  /// address and returns an invalid EventId: cancelling it is a no-op that
  /// returns false, and the resume still fires. A resume for any other time
  /// returns a cancellable id.
  EventId ScheduleResume(SimTime t, std::coroutine_handle<> handle);

  /// Schedules `fn` to run at absolute time `t`.
  EventId ScheduleCallback(SimTime t, Callback fn);

  /// Cancels a pending event. Safe to call with invalid or stale ids.
  /// Returns true if the event was pending and is now cancelled.
  bool Cancel(EventId id);

  /// True when no live event is pending.
  bool Empty() const { return heap_events_ == 0 && lane_.empty(); }

  /// Number of live pending events.
  size_t Size() const { return heap_events_ + lane_size(); }

  /// Time of the earliest live event, or kTimeInfinity when empty.
  SimTime PeekTime() const {
    const HeapNode* first = Earliest();
    uint64_t key = first != nullptr ? first->key : TimeKey(kTimeInfinity);
    if (!lane_.empty() && lane_key_ < key) key = lane_key_;
    return KeyTime(key);
  }

  /// Fired event returned by Pop. Move-only: the callback is moved out of
  /// its slot exactly once, never copied.
  struct Fired {
    SimTime time = 0;
    // Set when the event resumes a coroutine or ends a service (the tagged
    // address of Simulation::ScheduleServiceEnd, which Step decodes).
    std::coroutine_handle<> handle;
    Callback callback;  // set when the event runs a callback
  };

  /// Removes and returns the earliest live event. Requires !Empty().
  Fired Pop();

  /// Number of events in the heap's runs, the top slot's included.
  /// heap_size() + lane_size() is always Size(): neither keeps dead entries
  /// (the O(live) invariant the fuzz test pins down).
  size_t heap_size() const { return heap_events_; }

  /// Heap nodes opened so far: the heap pushes that did not join a run.
  uint64_t heap_nodes_opened() const { return heap_nodes_opened_; }

  /// Nodes sifted into the 4-ary heap so far: the opened nodes that did not
  /// take the top slot, and the top nodes they displaced.
  uint64_t heap_entries() const { return heap_entries_; }

  /// Number of same-instant lane entries.
  size_t lane_size() const { return lane_.size() - lane_head_; }

  /// Slot array length (live + free-listed): the most slots ever in use,
  /// that is, heap events plus lane callbacks. Lane resumes take none.
  size_t slot_count() const { return slots_.size(); }

 private:
  /// Heap node (24 bytes), kept small so sift compares stay within few cache
  /// lines: one run, its time stored as its TimeKey, the seq of the run's
  /// first member and the slot of its current head. Ordering key is (time,
  /// seq); seq is unique, so the order is total and pop order is
  /// independent of the heap arity or cancellation history.
  struct HeapNode {
    uint64_t key;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(HeapNode) == 24);

  /// Lane entry (16 bytes); its time is the one lane_key_ encodes. `ref` is
  /// a resume's address, or a callback's slot shifted left with the low bit
  /// set (kCallbackTag): a frame holds pointers, so its address is aligned,
  /// and the bit tells the two apart. The queue does not look further into a
  /// resume's address; a service end (Simulation::ScheduleServiceEnd) is
  /// one too, its FacilityRequest's address with bit 1 set.
  struct LaneNode {
    uint64_t seq;
    uintptr_t ref;
  };
  static_assert(sizeof(LaneNode) == 16);
  static constexpr uintptr_t kCallbackTag = 1;
  static uintptr_t CallbackRef(uint32_t slot) {
    return (uintptr_t{slot} << 1) | kCallbackTag;
  }

  /// A heap event or a callback. It resumes `handle` when it is set (a
  /// frame, or a tagged service end) and otherwise runs `callback`; a free
  /// slot has neither. `next` links a run's members, so a pop finds the
  /// successor on the line it reads anyway, and the slot stays 80 bytes.
  struct Slot {
    uint32_t generation = 1;
    uint32_t next = 0;  ///< next member of its run; kNoSlot for the last
    std::coroutine_handle<> handle;
    Callback callback;
  };
  static_assert(sizeof(Slot) == 80);

  /// Where a scheduled slot waits, parallel to slots_. Kept out of Slot on
  /// purpose: every sift step writes the moved node's `pos`, and a dense
  /// 8-byte array keeps those scattered writes far more cache-friendly than
  /// striding through the full Slot records.
  struct Link {
    /// Heap position of a run head; kInTop for the top node's head, kInRun
    /// for a later member of a run, kInLane for a lane callback.
    uint32_t pos;
    uint32_t prev;  ///< previous member of its run (for kInRun only)
  };

  /// Link::pos of a callback that waits in the same-instant lane.
  static constexpr uint32_t kInLane = std::numeric_limits<uint32_t>::max();
  /// Link::pos of a run member behind its head.
  static constexpr uint32_t kInRun = kInLane - 1;
  /// Link::pos of the head of the node in the top slot.
  static constexpr uint32_t kInTop = kInLane - 2;
  /// No slot: the end of a run, or no open run.
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  static constexpr uint64_t kSignBit = uint64_t{1} << 63;

  /// Order-preserving integer image of a time: for any two non-NaN times,
  /// a < b exactly when TimeKey(a) < TimeKey(b), and a == b exactly when the
  /// keys are equal. Sign-flip encoding: a non-negative double's bits gain
  /// the sign bit, a negative one's are inverted, so the ≤1e-12-past times
  /// Simulation::Step tolerates still sort first. −0.0 encodes as +0.0, so
  /// the two tie as they do under the double compare.
  static uint64_t TimeKey(SimTime t) {
    uint64_t bits = std::bit_cast<uint64_t>(t);
    if (bits == kSignBit) bits = 0;  // −0.0
    return bits ^ ((0 - (bits >> 63)) | kSignBit);
  }

  /// Inverse of TimeKey (−0.0 comes back as +0.0, which compares equal).
  static SimTime KeyTime(uint64_t key) {
    return std::bit_cast<SimTime>(key ^ (((key >> 63) - 1) | kSignBit));
  }

  /// (key, seq) as one unsigned 128-bit compare: no data-dependent branch.
  static bool Before(const HeapNode& a, const HeapNode& b) {
    using U128 = unsigned __int128;
    return ((U128{a.key} << 64) | a.seq) < ((U128{b.key} << 64) | b.seq);
  }

  /// The heap side's earliest node: the top slot's, else the heap root;
  /// null when no heap event is pending.
  const HeapNode* Earliest() const {
    if (top_.slot != kNoSlot) return &top_;
    return heap_.empty() ? nullptr : heap_.data();
  }

  uint32_t AllocateSlot();
  void ReleaseSlot(uint32_t slot);
  /// Pushes heap event `slot`, whose time is `key`, onto the heap: it joins
  /// the open run or opens a node, which takes the top slot when it sorts
  /// before every queued node. This and AppendToLane are inline (both are
  /// defined in event_queue.cc, their one user): each Schedule* entry point
  /// then runs its event's whole push without a call.
  inline EventId PushToHeap(uint64_t key, uint64_t seq, uint32_t slot);
  /// Appends a lane entry (LaneNode::ref).
  inline void AppendToLane(uint64_t seq, uintptr_t ref);
  /// Removes lane callback `slot` (linear in the lane length).
  void RemoveFromLane(uint32_t slot);
  /// Writes `node` at heap position `pos` and updates its head's Link::pos.
  void PlaceNode(size_t pos, const HeapNode& node);
  void SiftUp(size_t pos, HeapNode node);
  /// Sifts `node` into the 4-ary heap (counted in heap_entries_).
  void EnterHeap(HeapNode node);
  /// Removes the heap node at `pos`, restoring the heap property (bottom-up
  /// hole descent; see the definition).
  void RemoveAt(size_t pos);
  /// Takes run head `slot`, at heap position `pos` or kInTop, out of the
  /// heap: it hands the node to its successor, or a lone member's node is
  /// removed (the top slot is emptied).
  void RemoveHead(uint32_t pos, uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<Link> links_;
  std::vector<uint32_t> free_slots_;
  std::vector<HeapNode> heap_;
  /// The top slot: a node that sorts before every node in heap_, or none
  /// (slot kNoSlot).
  HeapNode top_{0, 0, kNoSlot};
  /// Events in the heap's runs, the top node's included (heap_ and top_
  /// hold one node per run).
  size_t heap_events_ = 0;
  uint64_t heap_nodes_opened_ = 0;
  uint64_t heap_entries_ = 0;
  /// The open run: the run of the most recent heap push, while it is still
  /// in the heap. A heap push for open_key_ appends to it after open_tail_,
  /// its last member (kNoSlot: no run is open).
  uint32_t open_tail_ = kNoSlot;
  uint64_t open_key_ = 0;
  /// Same-instant lane: live entries are lane_[lane_head_..], in seq order.
  /// An empty lane is always cleared, so lane_.empty() means "no entries".
  std::vector<LaneNode> lane_;
  size_t lane_head_ = 0;
  /// TimeKey of the time shared by every lane entry. Pop sets it to the
  /// fired time's key while the lane is empty, so events scheduled at the
  /// current instant join the lane. Any event at exactly this time may join:
  /// all entries then share one time and arrive in seq order, which keeps
  /// the lane sorted.
  uint64_t lane_key_ = TimeKey(0);
  uint64_t next_seq_ = 0;
};

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_EVENT_QUEUE_H_
