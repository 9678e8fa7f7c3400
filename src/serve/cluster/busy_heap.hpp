#pragma once
// Indexed binary min-heap of busy replicas, keyed by (clock, id): the
// EventLoop's frontier. `top()` is the replica the loop ticks next — the
// earliest clock, ties to the lowest id, exactly the order a linear scan
// over the fleet with a strict `<` produces. A replica sits in the heap
// iff it is busy; `update` inserts, re-keys or removes it in O(log R),
// so the loop never rescans the fleet. No allocation happens once
// `reserve` has covered every id the fleet will use.

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace marlin::serve::cluster {

class BusyHeap {
 public:
  /// Sizes the heap for replica ids [0, replicas).
  void reserve(std::size_t replicas) {
    heap_.reserve(replicas);
    if (slot_.size() < replicas) slot_.resize(replicas, kAbsent);
  }

  /// Sets replica `id`'s membership and key: present with clock `now`
  /// iff `busy`. Call wherever the replica's clock or busy state may
  /// have changed.
  void update(std::size_t id, bool busy, double now) {
    if (id >= slot_.size()) slot_.resize(id + 1, kAbsent);
    const std::size_t i = slot_[id];
    if (!busy) {
      if (i != kAbsent) remove_at(i);
      return;
    }
    if (i == kAbsent) {
      heap_.push_back(Entry{now, id});
      slot_[id] = heap_.size() - 1;
      sift_up(heap_.size() - 1);
    } else {
      heap_[i].now = now;
      sift_down(sift_up(i));
    }
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Id of the earliest busy replica (ties: lowest id); requires
  /// `!empty()`.
  [[nodiscard]] std::size_t top() const { return heap_.front().id; }

 private:
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  struct Entry {
    double now;
    std::size_t id;
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.now < b.now || (a.now == b.now && a.id < b.id);
  }

  void swap_at(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    slot_[heap_[a].id] = a;
    slot_[heap_[b].id] = b;
  }

  std::size_t sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      swap_at(i, parent);
      i = parent;
    }
    return i;
  }

  void sift_down(std::size_t i) {
    while (true) {
      const std::size_t left = 2 * i + 1;
      if (left >= heap_.size()) return;
      std::size_t child = left;
      if (left + 1 < heap_.size() && before(heap_[left + 1], heap_[left])) {
        child = left + 1;
      }
      if (!before(heap_[child], heap_[i])) return;
      swap_at(i, child);
      i = child;
    }
  }

  void remove_at(std::size_t i) {
    const std::size_t last = heap_.size() - 1;
    if (i != last) swap_at(i, last);
    slot_[heap_.back().id] = kAbsent;
    heap_.pop_back();
    if (i < heap_.size()) sift_down(sift_up(i));
  }

  std::vector<Entry> heap_;
  std::vector<std::size_t> slot_;  // replica id -> heap index, or kAbsent
};

}  // namespace marlin::serve::cluster
