#include "util/half.hpp"

#include <ostream>

namespace marlin {

std::uint16_t float_to_half_bits(float f) noexcept {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t exp = (x >> 23) & 0xffu;
  std::uint32_t man = x & 0x007fffffu;

  if (exp == 0xffu) {  // inf / NaN: keep NaN-ness (quiet), truncate payload
    const std::uint32_t payload = man ? (0x200u | (man >> 13)) : 0u;
    return static_cast<std::uint16_t>(sign | 0x7c00u | payload);
  }

  int e = static_cast<int>(exp) - 127 + 15;  // rebias to binary16
  if (e >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);  // -> inf
  if (e <= 0) {
    // Result is subnormal (or rounds to zero). The float value is
    // 1.man * 2^(e-15); the half subnormal payload represents a * 2^-24,
    // so a = (implicit|man) >> (14 - e), rounded to nearest-even.
    if (e < -10) return static_cast<std::uint16_t>(sign);  // below 2^-25
    man |= 0x00800000u;
    const int shift = 14 - e;  // in [14, 24]
    std::uint32_t a = man >> shift;
    const std::uint32_t rem = man & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (a & 1u))) ++a;
    return static_cast<std::uint16_t>(sign | a);
  }

  // Normal: round 23-bit mantissa to 10 bits, nearest-even.
  std::uint32_t a = man >> 13;
  const std::uint32_t rem = man & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (a & 1u))) {
    ++a;
    if (a == 0x400u) {  // mantissa overflow bumps the exponent
      a = 0;
      if (++e >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);
    }
  }
  return static_cast<std::uint16_t>(sign | (static_cast<std::uint32_t>(e) << 10) | a);
}

float half_bits_to_float(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t man = h & 0x03ffu;

  std::uint32_t x;
  if (exp == 0) {
    if (man == 0) {
      x = sign;  // signed zero
    } else {
      // Subnormal: normalise by shifting until the implicit bit appears.
      int e = 0;
      while (!(man & 0x400u)) {
        man <<= 1;
        ++e;
      }
      man &= 0x3ffu;
      x = sign | (static_cast<std::uint32_t>(127 - 15 - e + 1) << 23) |
          (man << 13);
    }
  } else if (exp == 31) {
    x = sign | 0x7f800000u | (man << 13);  // inf / NaN
  } else {
    x = sign | ((exp - 15 + 127) << 23) | (man << 13);
  }
  return std::bit_cast<float>(x);
}

std::ostream& operator<<(std::ostream& os, Half h) {
  return os << h.to_float();
}

}  // namespace marlin
