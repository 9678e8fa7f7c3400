#pragma once
// INT4 register packing with MARLIN's interleave (paper §3.4):
// "within an INT32, weights are stored interleaved, according to the
// pattern 64207531, to power the parallel decoding".
//
// The pattern lists the logical weight index held by each nibble from most-
// significant to least-significant: nibbles 7..0 hold logical weights
// 6,4,2,0,7,5,3,1. Equivalently, extraction step k (k = 0..3) applies
// (x >> 4k) & 0x000f000f and obtains logical weight 2k+1 in the low half
// and logical weight 2k in the high half — exactly the two FP16 lanes the
// packed-half dequantisation produces per step.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace marlin::quant {

/// nibble_of_logical[i] = which nibble (0 = least significant) stores
/// logical weight i.
inline constexpr std::array<int, 8> kInterleaveNibbleOfLogical = {
    4, 0, 5, 1, 6, 2, 7, 3};

/// Pack 8 INT4 codes (values 0..15, logical order) into one uint32 with the
/// 64207531 interleave.
[[nodiscard]] std::uint32_t pack8_interleaved(
    std::span<const std::uint8_t> codes8);

/// Inverse of pack8_interleaved.
[[nodiscard]] std::array<std::uint8_t, 8> unpack8_interleaved(
    std::uint32_t packed);

/// Pack a flat array (size divisible by 8) of INT4 codes.
[[nodiscard]] std::vector<std::uint32_t> pack_interleaved(
    std::span<const std::uint8_t> codes);

}  // namespace marlin::quant
