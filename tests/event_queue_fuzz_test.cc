// Randomized differential tests for the event queue (indexed heap of runs
// plus same-instant lane): long random interleavings of schedule / cancel /
// pop are checked move-for-move against a naive sorted-vector model that
// orders by the double time and then seq, including stale-id and
// double-cancel abuse. The first draws uniform random times, so it exercises
// the heap; the second draws from a coarse grid with signed zeros and tiny
// negative times, the edges of the heap's integer time key; the third
// schedules mostly at the current instant, so it exercises the lane and its
// merge with the heap; the fourth schedules bursts for one instant, so it
// exercises the heap's runs; the fifth schedules coroutine resumes beside
// the callbacks, so it exercises the lane's slotless resumes; the sixth
// schedules mostly around the earliest queued node, so it exercises the top
// slot. All pin down the O(live) invariant: cancelled events leave no dead
// entries behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

namespace lazyrep::sim {
namespace {

// Reference model: every live event as (time, seq, tag), popped by scanning
// for the (time, seq) minimum. Quadratic and obviously correct.
class ModelQueue {
 public:
  struct Entry {
    SimTime time;
    uint64_t seq;
    int tag;
  };

  uint64_t Schedule(SimTime t, int tag) {
    entries_.push_back({t, next_seq_, tag});
    return next_seq_++;
  }

  bool Cancel(uint64_t seq) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.seq == seq; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  bool Empty() const { return entries_.empty(); }
  size_t Size() const { return entries_.size(); }

  SimTime PeekTime() const {
    SimTime best = kTimeInfinity;
    for (const Entry& e : entries_) best = std::min(best, e.time);
    return best;
  }

  Entry Pop() {
    auto it = std::min_element(entries_.begin(), entries_.end(),
                               [](const Entry& a, const Entry& b) {
                                 if (a.time != b.time) return a.time < b.time;
                                 return a.seq < b.seq;
                               });
    Entry e = *it;
    entries_.erase(it);
    return e;
  }

 private:
  std::vector<Entry> entries_;
  uint64_t next_seq_ = 0;
};

struct LiveEvent {
  EventId id;
  uint64_t model_seq;
  SimTime time;
};

/// One long random interleaving of schedule / cancel / stale cancel / pop,
/// checked move for move against the model, with event times drawn by
/// `draw_time(rng)`. Counts in *ties the pops whose time equals the previous
/// pop's.
template <typename DrawTime>
void FuzzAgainstModel(uint64_t seed, DrawTime draw_time, int* ties) {
  EventQueue q;
  ModelQueue model;
  RandomStream rng(seed);
  std::vector<LiveEvent> live;
  // Ids already fired or cancelled; cancelling them must be a no-op in
  // both worlds (generation counters make stale ids harmless).
  std::vector<EventId> stale;
  int next_tag = 0;
  int popped_tag = -1;
  SimTime last_popped = kTimeInfinity;

  for (int step = 0; step < 20000; ++step) {
    double roll = rng.Uniform(0, 1);
    if (roll < 0.45 || live.empty()) {
      SimTime t = draw_time(rng);
      int tag = next_tag++;
      uint64_t seq = model.Schedule(t, tag);
      EventId id =
          q.ScheduleCallback(t, [tag, &popped_tag] { popped_tag = tag; });
      live.push_back({id, seq, t});
    } else if (roll < 0.70) {
      size_t pick =
          static_cast<size_t>(rng.Uniform(0, 1) * live.size()) % live.size();
      ASSERT_TRUE(q.Cancel(live[pick].id));
      ASSERT_TRUE(model.Cancel(live[pick].model_seq));
      stale.push_back(live[pick].id);
      live.erase(live.begin() + pick);
    } else if (roll < 0.78 && !stale.empty()) {
      // Stale-id abuse: double-cancel and cancel-after-fire must both
      // report false and change nothing.
      size_t pick =
          static_cast<size_t>(rng.Uniform(0, 1) * stale.size()) % stale.size();
      ASSERT_FALSE(q.Cancel(stale[pick]));
      ASSERT_FALSE(q.Cancel(EventId{}));  // invalid id is a no-op too
    } else {
      ASSERT_FALSE(q.Empty());
      ModelQueue::Entry expect = model.Pop();
      ASSERT_EQ(q.PeekTime(), expect.time);
      EventQueue::Fired fired = q.Pop();
      ASSERT_EQ(fired.time, expect.time);
      ASSERT_TRUE(fired.callback);
      popped_tag = -1;
      fired.callback();
      ASSERT_EQ(popped_tag, expect.tag);
      auto it = std::find_if(
          live.begin(), live.end(),
          [&](const LiveEvent& e) { return e.model_seq == expect.seq; });
      ASSERT_NE(it, live.end());
      stale.push_back(it->id);
      live.erase(it);
      if (fired.time == last_popped) ++*ties;
      last_popped = fired.time;
    }
    ASSERT_EQ(q.Size(), model.Size());
    ASSERT_EQ(q.Empty(), model.Empty());
    ASSERT_EQ(q.PeekTime(), model.PeekTime());
    // The O(live) invariant: no dead entries, ever.
    ASSERT_EQ(q.heap_size() + q.lane_size(), model.Size());
  }

  // Drain: remaining pops must come out in exact model order.
  while (!model.Empty()) {
    ModelQueue::Entry expect = model.Pop();
    EventQueue::Fired fired = q.Pop();
    ASSERT_EQ(fired.time, expect.time);
    popped_tag = -1;
    fired.callback();
    ASSERT_EQ(popped_tag, expect.tag);
  }
  ASSERT_TRUE(q.Empty());
}

TEST(EventQueueFuzz, MatchesSortedVectorModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    int ties = 0;
    ASSERT_NO_FATAL_FAILURE(FuzzAgainstModel(
        seed, [](RandomStream& rng) { return rng.Uniform(0, 100); }, &ties));
  }
}

// The edges of the heap's integer time key, heap-heavy: times on a coarse
// grid, so that most heap entries tie exactly and order by seq alone;
// negative times within 1e-12 of zero (the lateness Simulation::Step
// tolerates), which must sort before zero; and -0.0 beside +0.0, which must
// tie. A key made of the raw bit pattern, a key without the -0.0 fold, or a
// compare that drops seq fails here.
TEST(EventQueueFuzz, TiedAndSignedTimesMatchModel) {
  constexpr SimTime kTinyPast[] = {-1e-12, -5e-13, -1e-300,
                                   -std::numeric_limits<double>::denorm_min()};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    int ties = 0;
    ASSERT_NO_FATAL_FAILURE(FuzzAgainstModel(
        seed,
        [&](RandomStream& rng) -> SimTime {
          double roll = rng.Uniform01();
          if (roll < 0.15) return -0.0;
          if (roll < 0.30) return 0.0;
          if (roll < 0.40) return -rng.Uniform(0, 1e-12);
          if (roll < 0.45) return kTinyPast[rng.UniformInt(0, 3)];
          return 0.25 * static_cast<double>(rng.UniformInt(0, 8));
        },
        &ties));
    // Over a thousand pops tie with the one before (uniform draws give
    // almost none).
    ASSERT_GT(ties, 1000);
  }
}

// Drives the queue and the model in lockstep the way Simulation does: `now`
// is the time of the event fired last, and a firing event may schedule more
// events at `now` (a nested zero-delay chain, like OneShot::Fire resuming a
// waiter that spawns a process).
struct SameInstantHarness {
  EventQueue q;
  ModelQueue model;
  RandomStream rng;
  std::vector<LiveEvent> live;
  std::vector<EventId> stale;
  SimTime now = 0;
  int next_tag = 0;
  int fired_tag = -1;
  /// Set by the test loop after a pop that left the lane empty: until the
  /// next pop, the lane holds the popped instant, so an event scheduled at
  /// `now` must join it. Schedules at `now` that did not are counted in
  /// lane_misses.
  bool now_joins_lane = false;
  int lane_misses = 0;

  explicit SameInstantHarness(uint64_t seed) : rng(seed) {}

  void Schedule(SimTime t) {
    int tag = next_tag++;
    uint64_t seq = model.Schedule(t, tag);
    const size_t lane0 = q.lane_size();
    EventId id = q.ScheduleCallback(t, [this, tag] { Fire(tag); });
    live.push_back({id, seq, t});
    if (now_joins_lane && t == now && q.lane_size() != lane0 + 1) {
      ++lane_misses;
    }
  }

  void Fire(int tag) {
    fired_tag = tag;
    if (rng.Chance(0.3)) {
      for (int64_t n = rng.UniformInt(1, 2); n > 0; --n) Schedule(now);
    }
  }
};

TEST(EventQueueFuzz, SameInstantLaneMatchesModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SameInstantHarness d(seed);
    size_t max_lane = 0;

    for (int step = 0; step < 20000; ++step) {
      double roll = d.rng.Uniform(0, 1);
      if (roll < 0.30 || d.live.empty()) {
        d.Schedule(d.now);  // zero-delay: the lane's own traffic
      } else if (roll < 0.40) {
        // On a coarse grid, so heap events land on instants that later fire
        // with lane entries beside them.
        d.Schedule(d.now + 0.25 * static_cast<double>(d.rng.UniformInt(1, 4)));
      } else if (roll < 0.43) {
        // Up to 1e-12 in the past: the tolerance Simulation::Step allows.
        d.Schedule(d.now - d.rng.Uniform(0, 1e-12));
      } else if (roll < 0.53) {
        // Cancel, half the time an event at the current instant, which
        // usually waits in the lane.
        std::vector<size_t> candidates;
        if (d.rng.Chance(0.5)) {
          for (size_t i = 0; i < d.live.size(); ++i) {
            if (d.live[i].time == d.now) candidates.push_back(i);
          }
        }
        if (candidates.empty()) {
          for (size_t i = 0; i < d.live.size(); ++i) candidates.push_back(i);
        }
        size_t pick = candidates[static_cast<size_t>(d.rng.UniformInt(
            0, static_cast<int64_t>(candidates.size()) - 1))];
        ASSERT_TRUE(d.q.Cancel(d.live[pick].id));
        ASSERT_TRUE(d.model.Cancel(d.live[pick].model_seq));
        d.stale.push_back(d.live[pick].id);
        d.live.erase(d.live.begin() + pick);
      } else if (roll < 0.58 && !d.stale.empty()) {
        size_t pick = static_cast<size_t>(d.rng.UniformInt(
            0, static_cast<int64_t>(d.stale.size()) - 1));
        ASSERT_FALSE(d.q.Cancel(d.stale[pick]));
        ASSERT_FALSE(d.q.Cancel(d.stale[pick]));  // double cancel
        ASSERT_FALSE(d.q.Cancel(EventId{}));
      } else {
        ASSERT_FALSE(d.q.Empty());
        ModelQueue::Entry expect = d.model.Pop();
        ASSERT_EQ(d.q.PeekTime(), expect.time);
        EventQueue::Fired fired = d.q.Pop();
        ASSERT_EQ(fired.time, expect.time);
        ASSERT_TRUE(fired.callback);
        auto it = std::find_if(
            d.live.begin(), d.live.end(),
            [&](const LiveEvent& e) { return e.model_seq == expect.seq; });
        ASSERT_NE(it, d.live.end());
        d.stale.push_back(it->id);
        d.live.erase(it);
        d.now = fired.time;
        d.fired_tag = -1;
        fired.callback();
        ASSERT_EQ(d.fired_tag, expect.tag);
      }
      max_lane = std::max(max_lane, d.q.lane_size());
      ASSERT_EQ(d.q.Size(), d.model.Size());
      ASSERT_EQ(d.q.Empty(), d.model.Empty());
      ASSERT_EQ(d.q.PeekTime(), d.model.PeekTime());
      // The O(live) invariant over heap plus lane.
      ASSERT_EQ(d.q.heap_size() + d.q.lane_size(), d.model.Size());
    }
    // The schedule above must actually reach the lane.
    ASSERT_GE(max_lane, 8u);

    while (!d.model.Empty()) {
      ModelQueue::Entry expect = d.model.Pop();
      EventQueue::Fired fired = d.q.Pop();
      ASSERT_EQ(fired.time, expect.time);
      d.now = fired.time;
      d.fired_tag = -1;
      fired.callback();
      ASSERT_EQ(d.fired_tag, expect.tag);
    }
    ASSERT_TRUE(d.q.Empty());
  }
}

// Runs: bursts of 2-120 schedules for one instant, a few instants apart (the
// grid's -0.0 and +0.0, which share a key, and times up to 1e-12 in the
// past among them), with lane schedules interleaved inside a burst and
// between bursts, and cancels aimed at run heads, middle members and the
// open run's last member, the last also inside a burst so that the next
// member appends after its predecessor. Besides the model's order, the lane
// admission is checked from outside: after a pop at T that leaves the lane
// empty, a schedule at T joins the lane even when T's run is still queued
// and open (checking the open run first puts it in the run and fails here).
TEST(EventQueueFuzz, RunsOfOneInstantMatchModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SameInstantHarness d(seed);
    // Model seqs of each burst's live members, in schedule order; the last
    // burst's last member is the open run's tail while the run is queued.
    std::vector<std::vector<uint64_t>> bursts;
    size_t heap_pushes = 0;
    int head_cancels = 0, middle_cancels = 0, tail_cancels = 0;

    auto forget = [&](uint64_t seq) {
      for (std::vector<uint64_t>& b : bursts) {
        auto it = std::find(b.begin(), b.end(), seq);
        if (it != b.end()) {
          b.erase(it);
          return;
        }
      }
    };
    auto cancel = [&](uint64_t seq) {
      auto it = std::find_if(
          d.live.begin(), d.live.end(),
          [&](const LiveEvent& e) { return e.model_seq == seq; });
      ASSERT_NE(it, d.live.end());
      ASSERT_TRUE(d.q.Cancel(it->id));
      ASSERT_TRUE(d.model.Cancel(seq));
      d.stale.push_back(it->id);
      d.live.erase(it);
      forget(seq);
    };
    auto schedule = [&](SimTime t) {
      const size_t heap0 = d.q.heap_size();
      d.Schedule(t);
      heap_pushes += d.q.heap_size() - heap0;
    };

    for (int step = 0; step < 4000; ++step) {
      double roll = d.rng.Uniform01();
      if (roll < 0.05 || d.live.empty()) {
        SimTime t;
        double pick = d.rng.Uniform01();
        if (pick < 0.15) {
          t = -0.0;
        } else if (pick < 0.30) {
          t = 0.0;
        } else if (pick < 0.45) {
          t = d.now - d.rng.Uniform(0, 1e-12);
        } else {
          t = d.now + 0.25 * static_cast<double>(d.rng.UniformInt(1, 3));
        }
        bursts.emplace_back();
        for (int64_t n = d.rng.UniformInt(2, 120); n > 0; --n) {
          if (d.rng.Chance(0.1)) schedule(d.now);
          if (bursts.back().size() >= 2 && d.rng.Chance(0.05)) {
            ASSERT_NO_FATAL_FAILURE(cancel(bursts.back().back()));
            ++tail_cancels;
          }
          schedule(t);
          bursts.back().push_back(d.live.back().model_seq);
        }
      } else if (roll < 0.25) {
        schedule(d.now);
      } else if (roll < 0.40) {
        // A head, a middle member or the last member of a random burst's
        // run, or of the latest burst's, whose last member is the open tail.
        const int kind = static_cast<int>(d.rng.UniformInt(0, 3));
        std::vector<uint64_t>* b = &bursts.back();
        if (kind != 2 || b->empty()) {
          std::vector<size_t> queued;
          for (size_t i = 0; i < bursts.size(); ++i) {
            if (!bursts[i].empty()) queued.push_back(i);
          }
          if (!queued.empty()) {
            b = &bursts[queued[static_cast<size_t>(d.rng.UniformInt(
                0, static_cast<int64_t>(queued.size()) - 1))]];
          }
        }
        if (b->empty()) {
          // Any live event: a lane entry, or a member of some run.
          const LiveEvent& e = d.live[static_cast<size_t>(d.rng.UniformInt(
              0, static_cast<int64_t>(d.live.size()) - 1))];
          ASSERT_NO_FATAL_FAILURE(cancel(e.model_seq));
        } else if (kind == 0 || b->size() == 1) {
          ASSERT_NO_FATAL_FAILURE(cancel(b->front()));
          ++head_cancels;
        } else if (kind == 1 && b->size() >= 3) {
          ASSERT_NO_FATAL_FAILURE(cancel((*b)[static_cast<size_t>(
              d.rng.UniformInt(1, static_cast<int64_t>(b->size()) - 2))]));
          ++middle_cancels;
        } else {
          ASSERT_NO_FATAL_FAILURE(cancel(b->back()));
          ++tail_cancels;
        }
      } else if (roll < 0.43 && !d.stale.empty()) {
        size_t pick = static_cast<size_t>(d.rng.UniformInt(
            0, static_cast<int64_t>(d.stale.size()) - 1));
        ASSERT_FALSE(d.q.Cancel(d.stale[pick]));
        ASSERT_FALSE(d.q.Cancel(EventId{}));
      } else {
        for (int64_t n = d.rng.UniformInt(1, 16); n > 0 && !d.model.Empty();
             --n) {
          ModelQueue::Entry expect = d.model.Pop();
          ASSERT_EQ(d.q.PeekTime(), expect.time);
          EventQueue::Fired fired = d.q.Pop();
          ASSERT_EQ(fired.time, expect.time);
          ASSERT_TRUE(fired.callback);
          auto it = std::find_if(
              d.live.begin(), d.live.end(),
              [&](const LiveEvent& e) { return e.model_seq == expect.seq; });
          ASSERT_NE(it, d.live.end());
          d.stale.push_back(it->id);
          d.live.erase(it);
          forget(expect.seq);
          d.now = fired.time;
          d.now_joins_lane = d.q.lane_size() == 0;
          d.fired_tag = -1;
          fired.callback();
          ASSERT_EQ(d.fired_tag, expect.tag);
        }
      }
      ASSERT_EQ(d.lane_misses, 0) << "a schedule at the instant just fired "
                                     "missed the lane, step "
                                  << step;
      ASSERT_EQ(d.q.Size(), d.model.Size());
      ASSERT_EQ(d.q.Empty(), d.model.Empty());
      ASSERT_EQ(d.q.PeekTime(), d.model.PeekTime());
      ASSERT_EQ(d.q.heap_size() + d.q.lane_size(), d.model.Size());
    }
    // The bursts must actually share nodes, and every cancel kind must run.
    ASSERT_LT(d.q.heap_nodes_opened() * 4, heap_pushes);
    ASSERT_GT(head_cancels, 50);
    ASSERT_GT(middle_cancels, 50);
    ASSERT_GT(tail_cancels, 50);

    d.now_joins_lane = false;
    while (!d.model.Empty()) {
      ModelQueue::Entry expect = d.model.Pop();
      EventQueue::Fired fired = d.q.Pop();
      ASSERT_EQ(fired.time, expect.time);
      d.now = fired.time;
      d.fired_tag = -1;
      fired.callback();
      ASSERT_EQ(d.fired_tag, expect.tag);
    }
    ASSERT_TRUE(d.q.Empty());
  }
}

// Resumes beside callbacks, at the current instant and later ones. A resume
// is identified by a distinct fake frame address, which its pop must hand
// back (it is popped, never resumed). A resume that joins the lane takes no
// slot and gets an invalid id, and cancelling that id changes nothing; a
// heap resume keeps a slot and a valid id, and some are cancelled. A fired
// event may schedule more at its instant (a resumed process that wakes
// another), so zero-delay chains mix both kinds.
TEST(EventQueueFuzz, ResumesBesideCallbacksMatchModel) {
  // A frame holds pointers, so its address is aligned; tag k's is 16 (k + 1).
  auto frame_of = [](int tag) {
    return std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(static_cast<uintptr_t>(tag + 1) * 16));
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EventQueue q;
    ModelQueue model;
    RandomStream rng(seed);
    std::vector<LiveEvent> live;  // the cancellable events
    std::vector<EventId> stale;
    std::vector<bool> is_resume;  // by tag, which is also the model seq
    SimTime now = 0;
    int fired_tag = -1;
    int lane_resumes = 0, heap_resumes = 0, resume_cancels = 0;

    auto schedule = [&](SimTime t) {
      const int tag = static_cast<int>(is_resume.size());
      const bool resume = rng.Chance(0.5);
      is_resume.push_back(resume);
      const uint64_t seq = model.Schedule(t, tag);
      const size_t lane0 = q.lane_size();
      const size_t slots0 = q.slot_count();
      const EventId id =
          resume ? q.ScheduleResume(t, frame_of(tag))
                 : q.ScheduleCallback(t, [tag, &fired_tag] {
                     fired_tag = tag;
                   });
      if (resume && q.lane_size() == lane0 + 1) {
        ++lane_resumes;
        ASSERT_FALSE(id.valid());
        ASSERT_EQ(q.slot_count(), slots0);
        ASSERT_FALSE(q.Cancel(id));
        ASSERT_EQ(q.lane_size(), lane0 + 1);
        ASSERT_EQ(q.Size(), model.Size());
        return;
      }
      ASSERT_TRUE(id.valid());
      if (resume) ++heap_resumes;
      live.push_back({id, seq, t});
    };
    auto pop = [&] {
      const ModelQueue::Entry expect = model.Pop();
      ASSERT_EQ(q.PeekTime(), expect.time);
      EventQueue::Fired fired = q.Pop();
      ASSERT_EQ(fired.time, expect.time);
      now = fired.time;
      if (is_resume[expect.tag]) {
        ASSERT_EQ(fired.handle.address(), frame_of(expect.tag).address());
        ASSERT_FALSE(fired.callback);
      } else {
        ASSERT_FALSE(fired.handle);
        fired_tag = -1;
        fired.callback();
        ASSERT_EQ(fired_tag, expect.tag);
      }
      auto it = std::find_if(
          live.begin(), live.end(),
          [&](const LiveEvent& e) { return e.model_seq == expect.seq; });
      if (it != live.end()) {
        stale.push_back(it->id);
        live.erase(it);
      }
    };

    for (int step = 0; step < 20000; ++step) {
      const double roll = rng.Uniform01();
      if (roll < 0.30 || model.Empty()) {
        ASSERT_NO_FATAL_FAILURE(schedule(now));
      } else if (roll < 0.38) {
        ASSERT_NO_FATAL_FAILURE(
            schedule(now + 0.25 * static_cast<double>(rng.UniformInt(1, 4))));
      } else if (roll < 0.40) {
        ASSERT_NO_FATAL_FAILURE(schedule(now - rng.Uniform(0, 1e-12)));
      } else if (roll < 0.50 && !live.empty()) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        if (is_resume[static_cast<size_t>(live[pick].model_seq)]) {
          ++resume_cancels;
        }
        ASSERT_TRUE(q.Cancel(live[pick].id));
        ASSERT_TRUE(model.Cancel(live[pick].model_seq));
        stale.push_back(live[pick].id);
        live.erase(live.begin() + pick);
      } else if (roll < 0.53 && !stale.empty()) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(stale.size()) - 1));
        ASSERT_FALSE(q.Cancel(stale[pick]));
        ASSERT_FALSE(q.Cancel(EventId{}));
      } else {
        ASSERT_NO_FATAL_FAILURE(pop());
        if (rng.Chance(0.2)) {
          ASSERT_NO_FATAL_FAILURE(schedule(now));
        }
      }
      ASSERT_EQ(q.Size(), model.Size());
      ASSERT_EQ(q.Empty(), model.Empty());
      ASSERT_EQ(q.PeekTime(), model.PeekTime());
      ASSERT_EQ(q.heap_size() + q.lane_size(), model.Size());
    }
    // Both resume paths must run, and heap resumes must be cancelled.
    ASSERT_GT(lane_resumes, 1000);
    ASSERT_GT(heap_resumes, 1000);
    ASSERT_GT(resume_cancels, 100);

    while (!model.Empty()) ASSERT_NO_FATAL_FAILURE(pop());
    ASSERT_TRUE(q.Empty());
  }
}

// The top slot. A push that opens a node sorting before every queued node
// waits outside the 4-ary heap; it displaces the node that held the slot
// into the heap, and popping or cancelling its head hands the slot to the
// run's successor or empties it. The test keeps its own model of the heap
// side: the nodes (runs, ordered by time and first seq), the open run and
// which node holds the slot by the push rule. Every push's heap_entries()
// is checked against it (a node that takes an empty slot enters no heap),
// every pop against the model queue, and after a pop that leaves the lane
// empty a schedule at that instant must join the lane. Times are drawn
// mostly just after the earliest node, some before it (new earliest nodes,
// which displace an occupied slot), some far timers, in bursts that build
// runs in the slot; cancels aim at the top node's head with and without a
// successor, at later members of its run and at the open run's tail while
// that run holds the slot.
TEST(EventQueueFuzz, TopSlotMatchesModel) {
  struct Node {
    SimTime time;
    uint64_t first_seq;
    std::vector<uint64_t> members;  // model seqs, head first
  };
  auto before = [](const Node& a, const Node& b) {
    return a.time < b.time || (a.time == b.time && a.first_seq < b.first_seq);
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EventQueue q;
    ModelQueue model;
    RandomStream rng(seed);
    std::vector<LiveEvent> live;
    std::vector<EventId> stale;
    std::map<int, Node> nodes;        // the heap side's live nodes, by id
    std::map<uint64_t, int> node_of;  // a heap event's model seq -> node id
    int top = -1;                     // the node in the top slot
    int open = -1;                    // the node of the open run
    int next_node = 0;
    int next_tag = 0;  // the model seq of the next schedule
    size_t heap_events = 0;
    SimTime now = 0;
    int fired_tag = -1;
    bool now_joins_lane = false;
    int takes = 0, displacements = 0, head_cancels = 0, lone_head_cancels = 0,
        member_cancels = 0, open_tail_cancels = 0, top_pops = 0,
        lane_checks = 0;

    auto earliest = [&]() -> const Node* {
      const Node* best = nullptr;
      for (const auto& [id, n] : nodes) {
        if (best == nullptr || before(n, *best)) best = &n;
      }
      return best;
    };
    // A heap event left (fired or cancelled): its node loses it, and a node
    // left with no members leaves the slot and stops being the open run.
    auto leave = [&](uint64_t seq) {
      auto it = node_of.find(seq);
      if (it == node_of.end()) return;  // a lane entry
      const int id = it->second;
      node_of.erase(it);
      std::vector<uint64_t>& m = nodes.at(id).members;
      m.erase(std::find(m.begin(), m.end(), seq));
      --heap_events;
      if (m.empty()) {
        nodes.erase(id);
        if (top == id) top = -1;
        if (open == id) open = -1;
      }
    };
    auto schedule = [&](SimTime t) {
      const int tag = next_tag++;
      const uint64_t seq = model.Schedule(t, tag);
      const size_t lane0 = q.lane_size();
      const uint64_t opened0 = q.heap_nodes_opened();
      const uint64_t entries0 = q.heap_entries();
      const EventId id =
          q.ScheduleCallback(t, [tag, &fired_tag] { fired_tag = tag; });
      live.push_back({id, seq, t});
      if (q.lane_size() == lane0 + 1) {
        if (now_joins_lane && t == now) ++lane_checks;
        return;
      }
      ASSERT_FALSE(now_joins_lane && t == now)
          << "a schedule at the instant just fired missed the lane";
      ++heap_events;
      if (q.heap_nodes_opened() == opened0) {
        // Joined the open run: no node, no heap entry.
        ASSERT_NE(open, -1);
        ASSERT_EQ(nodes.at(open).time, t);
        nodes.at(open).members.push_back(seq);
        node_of[seq] = open;
        ASSERT_EQ(q.heap_entries(), entries0);
        return;
      }
      ASSERT_FALSE(open != -1 && nodes.at(open).time == t)
          << "a push for the open run's instant opened a node";
      const int node = next_node++;
      const Node& n = nodes[node] = Node{t, seq, {seq}};
      node_of[seq] = node;
      open = node;
      uint64_t entered = 1;  // the new node, or the top node it displaces
      if (top != -1) {
        if (before(n, nodes.at(top))) {
          top = node;
          ++displacements;
        }
      } else {
        bool first = true;
        for (const auto& [other, m] : nodes) {
          if (other != node && !before(n, m)) first = false;
        }
        if (first) {
          top = node;
          entered = 0;  // it took the empty slot
          ++takes;
        }
      }
      ASSERT_EQ(q.heap_entries() - entries0, entered);
    };
    auto cancel = [&](uint64_t seq) {
      auto it = std::find_if(
          live.begin(), live.end(),
          [&](const LiveEvent& e) { return e.model_seq == seq; });
      ASSERT_NE(it, live.end());
      ASSERT_TRUE(q.Cancel(it->id));
      ASSERT_TRUE(model.Cancel(seq));
      stale.push_back(it->id);
      live.erase(it);
      leave(seq);
    };
    auto pop = [&] {
      const ModelQueue::Entry expect = model.Pop();
      ASSERT_EQ(q.PeekTime(), expect.time);
      EventQueue::Fired fired = q.Pop();
      ASSERT_EQ(fired.time, expect.time);
      ASSERT_TRUE(fired.callback);
      fired_tag = -1;
      fired.callback();
      ASSERT_EQ(fired_tag, expect.tag);
      auto node = node_of.find(expect.seq);
      if (node != node_of.end() && node->second == top) ++top_pops;
      auto it = std::find_if(
          live.begin(), live.end(),
          [&](const LiveEvent& e) { return e.model_seq == expect.seq; });
      ASSERT_NE(it, live.end());
      stale.push_back(it->id);
      live.erase(it);
      leave(expect.seq);
      now = fired.time;
      now_joins_lane = q.lane_size() == 0;
    };

    for (int step = 0; step < 20000; ++step) {
      const double roll = rng.Uniform01();
      const Node* first = earliest();
      if (roll < 0.17 || model.Empty()) {
        ASSERT_NO_FATAL_FAILURE(schedule(now));
      } else if (roll < 0.55) {
        // Just after the earliest node, or before it: a new earliest node.
        SimTime t;
        if (first != nullptr && rng.Chance(0.6)) {
          t = first->time + rng.Uniform(0, 0.05);
        } else if (first != nullptr) {
          t = now + (first->time - now) * rng.Uniform01();
        } else {
          t = now + rng.Uniform(0, 0.05);
        }
        ASSERT_NO_FATAL_FAILURE(schedule(t));
        // A burst for that instant: the open run grows, in the slot or not.
        for (int64_t n = rng.Chance(0.5) ? rng.UniformInt(1, 4) : 0; n > 0;
             --n) {
          ASSERT_NO_FATAL_FAILURE(schedule(t));
        }
      } else if (roll < 0.60) {
        ASSERT_NO_FATAL_FAILURE(schedule(now + rng.Uniform(50, 100)));
      } else if (roll < 0.75) {
        const int kind = static_cast<int>(rng.UniformInt(0, 3));
        if (top != -1 && kind <= 2) {
          const std::vector<uint64_t> m = nodes.at(top).members;
          if (kind == 0 || m.size() == 1) {
            // The top head, handing the slot to its successor or emptying it.
            ++(m.size() > 1 ? head_cancels : lone_head_cancels);
            ASSERT_NO_FATAL_FAILURE(cancel(m.front()));
          } else if (kind == 1) {
            ++member_cancels;
            ASSERT_NO_FATAL_FAILURE(cancel(m[static_cast<size_t>(
                rng.UniformInt(1, static_cast<int64_t>(m.size()) - 1))]));
          } else if (open == top) {
            // The open tail while its run holds the slot: the next push for
            // that instant appends after its predecessor.
            ++open_tail_cancels;
            const SimTime t = nodes.at(top).time;
            ASSERT_NO_FATAL_FAILURE(cancel(m.back()));
            ASSERT_NO_FATAL_FAILURE(schedule(t));
          }
        } else if (!live.empty()) {
          ASSERT_NO_FATAL_FAILURE(cancel(live[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))]
                                             .model_seq));
        }
      } else if (roll < 0.78 && !stale.empty()) {
        ASSERT_FALSE(q.Cancel(stale[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(stale.size()) - 1))]));
        ASSERT_FALSE(q.Cancel(EventId{}));
      } else {
        for (int64_t n = rng.UniformInt(1, 10); n > 0 && !model.Empty(); --n) {
          ASSERT_NO_FATAL_FAILURE(pop());
        }
        // A zero-delay schedule after the pops: at an instant that left the
        // lane empty, it must join the lane.
        if (rng.Chance(0.5)) {
          ASSERT_NO_FATAL_FAILURE(schedule(now));
        }
      }
      ASSERT_EQ(q.Size(), model.Size());
      ASSERT_EQ(q.Empty(), model.Empty());
      ASSERT_EQ(q.PeekTime(), model.PeekTime());
      ASSERT_EQ(q.heap_size() + q.lane_size(), model.Size());
      ASSERT_EQ(q.heap_size(), heap_events);
    }
    // Every rule must run: both ways into the slot, and each cancel kind.
    ASSERT_GT(takes, 1000);
    ASSERT_GT(displacements, 500);
    ASSERT_GT(head_cancels, 50);
    ASSERT_GT(lone_head_cancels, 100);
    ASSERT_GT(member_cancels, 50);
    ASSERT_GT(open_tail_cancels, 40);
    ASSERT_GT(top_pops, 1000);
    ASSERT_GT(lane_checks, 1000);
    ASSERT_LT(q.heap_entries(), q.heap_nodes_opened());

    now_joins_lane = false;
    while (!model.Empty()) ASSERT_NO_FATAL_FAILURE(pop());
    ASSERT_TRUE(q.Empty());
  }
}

// Regression for the lazy-deletion pathology this queue replaced: a
// retry-timer loop (cancel + reschedule, repeated) must keep the heap at
// exactly the live count instead of accumulating dead entries.
TEST(EventQueueFuzz, HeapStaysLiveSizedUnderRetryChurn) {
  EventQueue q;
  RandomStream rng(7);
  constexpr int kLive = 1000;
  std::vector<EventId> ids;
  ids.reserve(kLive);
  for (int i = 0; i < kLive; ++i) {
    ids.push_back(q.ScheduleCallback(rng.Uniform(1, 2), [] {}));
  }
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < kLive; ++i) {
      ASSERT_TRUE(q.Cancel(ids[i]));
      ids[i] = q.ScheduleCallback(rng.Uniform(1, 2), [] {});
    }
    // With lazy deletion this grows by kLive per round (50k dead entries by
    // the end); the indexed heap must hold exactly the live set.
    ASSERT_EQ(q.heap_size(), static_cast<size_t>(kLive));
    ASSERT_EQ(q.Size(), static_cast<size_t>(kLive));
  }
  // Slot storage is likewise bounded by the historical peak of live events,
  // not by churn volume.
  ASSERT_LE(q.slot_count(), static_cast<size_t>(2 * kLive));
}

}  // namespace
}  // namespace lazyrep::sim
