#include "quant/pack.hpp"

#include "util/error.hpp"
#include "util/simd_ops.hpp"

namespace marlin::quant {

std::uint32_t pack8_interleaved(std::span<const std::uint8_t> codes8) {
  MARLIN_CHECK(codes8.size() == 8, "need exactly 8 codes");
  std::uint32_t out = 0;
  for (int i = 0; i < 8; ++i) {
    MARLIN_CHECK(codes8[static_cast<std::size_t>(i)] < 16, "code out of range");
    const int nibble = kInterleaveNibbleOfLogical[static_cast<std::size_t>(i)];
    out |= static_cast<std::uint32_t>(codes8[static_cast<std::size_t>(i)])
           << (4 * nibble);
  }
  return out;
}

std::array<std::uint8_t, 8> unpack8_interleaved(std::uint32_t packed) {
  std::array<std::uint8_t, 8> out{};
  for (int i = 0; i < 8; ++i) {
    const int nibble = kInterleaveNibbleOfLogical[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((packed >> (4 * nibble)) & 0xfu);
  }
  return out;
}

std::vector<std::uint32_t> pack_interleaved(
    std::span<const std::uint8_t> codes) {
  MARLIN_CHECK(codes.size() % 8 == 0, "size must be a multiple of 8");
  std::vector<std::uint32_t> out(codes.size() / 8);
  if (!simd::ops().pack_u4_interleaved(out.size(), codes.data(), out.data())) {
    // Out-of-range code somewhere: re-run the checked scalar path so the
    // caller gets the exact error it always got.
    for (std::size_t i = 0; i < codes.size(); i += 8) {
      out[i / 8] = pack8_interleaved(codes.subspan(i, 8));
    }
  }
  return out;
}

}  // namespace marlin::quant
