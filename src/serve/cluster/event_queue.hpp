#pragma once
// The EventLoop's one clock: an indexed binary min-heap of pending
// events, popped in (time, kind, tie) order. It holds at most one arrival
// and one evaluation (each handler queues its successor), one tick per
// busy replica and the in-flight landings: O(replicas + landings), never
// the trace's length. A tick stays queued while its replica is busy and
// is re-keyed in place in O(log n); every other event is pushed and
// popped once.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

namespace marlin::serve::cluster {

/// The event kinds, in the order they run at one instant.
enum class EventKind : std::uint8_t { kEvaluation, kLanding, kArrival, kTick };

/// A queued event in 16 bytes: its instant, and the kind in the top two
/// bits of `order` above an id — a tick's replica, an arrival's request or
/// a landing's decision sequence — so one integer compare orders the
/// events of one instant.
struct Event {
  double time = 0;
  std::uint64_t order = 0;

  [[nodiscard]] EventKind kind() const {
    return static_cast<EventKind>(order >> 62);
  }
  [[nodiscard]] std::size_t id() const {
    return static_cast<std::size_t>(order & ~(std::uint64_t{3} << 62));
  }
};

class EventQueue {
 public:
  struct Landing {
    std::size_t request;
    std::size_t dest;
  };

  void push_evaluation(double t) { push({t, key(EventKind::kEvaluation, 0)}); }
  void push_arrival(double t, std::size_t request) {
    push({t, key(EventKind::kArrival, request)});
  }
  /// Landings at one instant land in push (decision) order.
  void push_landing(double t, std::size_t request, std::size_t dest) {
    landings_.emplace(next_landing_, Landing{request, dest});
    push({t, key(EventKind::kLanding, next_landing_++)});
  }
  /// Removes and returns the payload of the landing popped with id `id`.
  Landing take_landing(std::size_t id) {
    return landings_.extract(id).mapped();
  }

  /// Sets replica `id`'s tick: queued at `now` iff `busy`. Call wherever
  /// the replica's clock or busy state may have changed.
  void set_tick(std::size_t id, bool busy, double now) {
    if (id >= slot_.size()) slot_.resize(id + 1, kAbsent);
    const std::size_t i = slot_[id];
    if (!busy) {
      if (i != kAbsent) remove_at(i);
      return;
    }
    if (i == kAbsent) {
      push({now, key(EventKind::kTick, id)});
    } else {
      heap_[i].time = now;
      sift_down(sift_up(i));
    }
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// The earliest event; requires `!empty()`.
  [[nodiscard]] const Event& top() const { return heap_.front(); }
  /// Removes the earliest event; requires `!empty()`.
  void pop() { remove_at(0); }

 private:
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  static std::uint64_t key(EventKind kind, std::uint64_t id) {
    return static_cast<std::uint64_t>(kind) << 62 | id;
  }
  [[nodiscard]] static bool before(const Event& a, const Event& b) {
    return a.time < b.time || (a.time == b.time && a.order < b.order);
  }

  void push(const Event& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  // Sifts move the entry through a hole: one copy per level, and a tick
  // records its new index.
  void put(std::size_t i, const Event& e) {
    heap_[i] = e;
    if (e.kind() == EventKind::kTick) slot_[e.id()] = i;
  }

  std::size_t sift_up(std::size_t i) {
    const Event e = heap_[i];
    for (; i > 0; i = (i - 1) / 2) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      put(i, heap_[parent]);
    }
    put(i, e);
    return i;
  }

  void sift_down(std::size_t i) {
    const Event e = heap_[i];
    while (true) {
      const std::size_t left = 2 * i + 1;
      if (left >= heap_.size()) break;
      std::size_t child = left;
      if (left + 1 < heap_.size() && before(heap_[left + 1], heap_[left])) {
        child = left + 1;
      }
      if (!before(heap_[child], e)) break;
      put(i, heap_[child]);
      i = child;
    }
    put(i, e);
  }

  void remove_at(std::size_t i) {
    if (heap_[i].kind() == EventKind::kTick) slot_[heap_[i].id()] = kAbsent;
    const Event last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    heap_[i] = last;
    sift_down(sift_up(i));
  }

  std::vector<Event> heap_;
  std::vector<std::size_t> slot_;  // replica id -> its tick's heap index
  /// In-flight landings by decision sequence, and the next sequence.
  std::unordered_map<std::uint64_t, Landing> landings_;
  std::uint64_t next_landing_ = 0;
};

}  // namespace marlin::serve::cluster
