#pragma once
// Software IEEE 754 binary16 ("half") type.
//
// MARLIN's dequantisation trick (paper §3.4, "Dequantization and Tensor
// Cores") manipulates the *bit patterns* of FP16 values: it splices INT4
// payloads into the mantissa of a half with exponent 50 (bits 0110010) and
// subtracts a magic constant. Reproducing that bit-for-bit requires a half
// type with exact IEEE semantics, including round-to-nearest-even on
// conversion from float, subnormals, and +/-inf. GPU tensor cores accumulate
// in FP32, which we mirror by performing all Half arithmetic through float.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <type_traits>

namespace marlin {

/// Convert an IEEE binary32 value to binary16 bits with round-to-nearest-even.
std::uint16_t float_to_half_bits(float f) noexcept;

/// Convert IEEE binary16 bits to the exactly-representable binary32 value.
float half_bits_to_float(std::uint16_t h) noexcept;

/// IEEE 754 binary16 value type. Trivially copyable, 2 bytes, no padding.
class Half {
 public:
  constexpr Half() noexcept : bits_(0) {}
  explicit Half(float f) noexcept : bits_(float_to_half_bits(f)) {}
  explicit Half(double d) noexcept : Half(static_cast<float>(d)) {}
  explicit Half(int v) noexcept : Half(static_cast<float>(v)) {}

  /// Reinterpret raw binary16 bits as a Half (no conversion).
  static constexpr Half from_bits(std::uint16_t b) noexcept {
    Half h;
    h.bits_ = b;
    return h;
  }

  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }
  [[nodiscard]] float to_float() const noexcept {
    return half_bits_to_float(bits_);
  }
  explicit operator float() const noexcept { return to_float(); }

  [[nodiscard]] constexpr bool is_negative() const noexcept {
    return (bits_ & 0x8000u) != 0;
  }
  [[nodiscard]] constexpr bool is_inf() const noexcept {
    return (bits_ & 0x7fffu) == 0x7c00u;
  }
  [[nodiscard]] constexpr bool is_nan() const noexcept {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0;
  }

  friend Half operator+(Half a, Half b) noexcept {
    return Half(a.to_float() + b.to_float());
  }
  friend Half operator-(Half a, Half b) noexcept {
    return Half(a.to_float() - b.to_float());
  }
  friend Half operator*(Half a, Half b) noexcept {
    return Half(a.to_float() * b.to_float());
  }
  friend Half operator/(Half a, Half b) noexcept {
    return Half(a.to_float() / b.to_float());
  }
  friend Half operator-(Half a) noexcept {
    return Half::from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }
  Half& operator+=(Half o) noexcept { return *this = *this + o; }
  Half& operator-=(Half o) noexcept { return *this = *this - o; }
  Half& operator*=(Half o) noexcept { return *this = *this * o; }

  friend bool operator==(Half a, Half b) noexcept {
    return a.to_float() == b.to_float();  // IEEE: -0 == +0, NaN != NaN
  }
  friend bool operator<(Half a, Half b) noexcept {
    return a.to_float() < b.to_float();
  }
  friend bool operator<=(Half a, Half b) noexcept {
    return a.to_float() <= b.to_float();
  }
  friend bool operator>(Half a, Half b) noexcept { return b < a; }
  friend bool operator>=(Half a, Half b) noexcept { return b <= a; }

 private:
  std::uint16_t bits_;
};

static_assert(sizeof(Half) == 2);
static_assert(std::is_standard_layout_v<Half>);

/// View a contiguous run of Half values as their raw binary16 bits (Half is
/// standard-layout around a single uint16_t), for the simd::Ops FP16 kernels.
inline std::uint16_t* half_bits_ptr(Half* h) noexcept {
  return reinterpret_cast<std::uint16_t*>(h);
}
inline const std::uint16_t* half_bits_ptr(const Half* h) noexcept {
  return reinterpret_cast<const std::uint16_t*>(h);
}

std::ostream& operator<<(std::ostream& os, Half h);

}  // namespace marlin
