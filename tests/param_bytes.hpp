#pragma once
// Value-parameterized suites name each ctest case after its printed
// parameter. A struct without a `PrintTo` prints as its raw object bytes,
// padding included, so its case names changed from build to build.
// `print_field_bytes` prints the same "N-byte object <..>" form from the
// fields alone, every padding byte as 00: the names keep their form and
// stay the same on every build.

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace marlin::test_support {

/// Writes `value` the way gtest writes an unprintable object, but from
/// `fields` (every member of `T`, as member pointers) with the padding
/// between them zeroed.
template <typename T, typename... Fields>
void print_field_bytes(const T& value, std::ostream* os,
                       Fields T::*... fields) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  const auto copy = [&](const auto& field) {
    const auto* at = reinterpret_cast<const unsigned char*>(&field);
    std::memcpy(bytes + (at - base), at, sizeof(field));
  };
  (copy(value.*fields), ...);
  *os << sizeof(T) << "-byte object <";
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

}  // namespace marlin::test_support
