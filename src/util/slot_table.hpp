#pragma once
// Memo tables of doubles that grow on demand and that readers use
// without a lock.
//
// `Slot` is one memo entry: an atomic double that holds NaN until it is
// filled. `Lazy<T>` is a T built on first use. `GrowArray<T, Base>` is an
// array over every index: its first `Base` elements live inline, and the
// rest live in segments of doubling size, [Base, 2 Base), [2 Base,
// 4 Base), ..., each allocated on its first touch. Nested, they make a
// dense table over indices with no fixed bound, which costs memory only
// where it is touched; a hit is one acquire load per level plus one
// relaxed load of the slot.
//
// A segment, object or slot that two threads fill at once is published
// by compare-exchange: the loser frees its copy and uses the winner's.
// So only memoise deterministic functions: a reader may see either
// thread's result, and both must have the same bits. A function that
// returns NaN is recomputed on every call.

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "util/error.hpp"

namespace marlin::util {

namespace detail {

/// Stores `fresh` in `ptr` if it is still null and returns what `ptr`
/// holds afterwards; a caller that loses the race frees `fresh`.
template <class T, class Owner>
T* publish(std::atomic<T*>& ptr, Owner fresh) {
  T* seen = nullptr;
  return ptr.compare_exchange_strong(seen, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)
             ? fresh.release()
             : seen;
}

}  // namespace detail

class Slot {
 public:
  /// The slot's value; on first use, `fn()` is computed and stored, and
  /// `*fills` (when given) counts the store once.
  template <class Fn>
  double get(Fn&& fn, std::atomic<std::int64_t>* fills = nullptr) {
    const double v = v_.load(std::memory_order_relaxed);
    if (!std::isnan(v)) return v;
    const double fresh = fn();
    double empty = kEmpty;
    if (v_.compare_exchange_strong(empty, fresh, std::memory_order_relaxed) &&
        fills != nullptr) {
      fills->fetch_add(1, std::memory_order_relaxed);
    }
    return fresh;
  }

 private:
  static constexpr double kEmpty = std::numeric_limits<double>::quiet_NaN();
  static_assert(std::atomic<double>::is_always_lock_free);
  std::atomic<double> v_{kEmpty};
};

template <class T>
class Lazy {
 public:
  Lazy() = default;
  ~Lazy() { delete p_.load(std::memory_order_relaxed); }
  Lazy(const Lazy&) = delete;
  Lazy& operator=(const Lazy&) = delete;

  /// The object, default-constructed on first use.
  T& get() {
    T* p = p_.load(std::memory_order_acquire);
    return *(p != nullptr ? p : detail::publish(p_, std::make_unique<T>()));
  }

 private:
  std::atomic<T*> p_{nullptr};
};

template <class T, std::size_t Base>
class GrowArray {
  static_assert(std::has_single_bit(Base));

 public:
  GrowArray() = default;
  ~GrowArray() {
    for (auto& s : tail_) delete[] s.load(std::memory_order_relaxed);
  }
  GrowArray(const GrowArray&) = delete;
  GrowArray& operator=(const GrowArray&) = delete;

  /// Element `i`, default-constructed with its segment on first touch.
  /// Throws past `Base << kSegments` elements.
  T& operator[](std::size_t i) {
    if (i < Base) return head_[i];
    // Segment s >= 1 holds [Base << (s - 1), Base << s).
    const auto s = static_cast<std::size_t>(std::bit_width(i / Base));
    MARLIN_CHECK(s <= kSegments, "memo index " << i << " is past the table");
    const std::size_t first = Base << (s - 1);
    T* seg = tail_[s - 1].load(std::memory_order_acquire);
    if (seg == nullptr) {
      seg = detail::publish(tail_[s - 1], std::make_unique<T[]>(first));
    }
    return seg[i - first];
  }

 private:
  static constexpr std::size_t kSegments = 26;
  std::array<T, Base> head_;
  std::array<std::atomic<T*>, kSegments> tail_{};
};

/// A row of slots, one per index.
using SlotRow = GrowArray<Slot, 64>;

}  // namespace marlin::util
