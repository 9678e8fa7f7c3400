// INT4 packing (64207531 interleave) and the bit-exact lop3 dequantisation
// trick — the paper's §3.4 "Dequantization and Tensor Cores".

#include <gtest/gtest.h>

#include <array>

#include "quant/dequant_trick.hpp"
#include "quant/pack.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace marlin::quant {
namespace {

std::array<std::uint8_t, 8> random_codes(Rng& rng) {
  std::array<std::uint8_t, 8> c{};
  for (auto& x : c) x = static_cast<std::uint8_t>(rng.uniform_int(16));
  return c;
}

TEST(Pack, InterleavePatternIsDocumented64207531) {
  // Logical weights 0..7 packed; nibble n (LSB first) must hold logical
  // weight per the pattern: MSB->LSB reads 6,4,2,0,7,5,3,1.
  std::array<std::uint8_t, 8> codes{0, 1, 2, 3, 4, 5, 6, 7};
  const std::uint32_t packed = pack8_interleaved(codes);
  const int nibble_logical[8] = {1, 3, 5, 7, 0, 2, 4, 6};  // LSB..MSB
  for (int n = 0; n < 8; ++n) {
    EXPECT_EQ((packed >> (4 * n)) & 0xfu,
              static_cast<std::uint32_t>(nibble_logical[n]))
        << "nibble " << n;
  }
}

TEST(Pack, RoundTripInterleaved) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto codes = random_codes(rng);
    const auto back = unpack8_interleaved(pack8_interleaved(codes));
    EXPECT_EQ(back, codes);
  }
}

TEST(Pack, FlatArray) {
  Rng rng(3);
  std::vector<std::uint8_t> codes(64);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.uniform_int(16));
  const auto packed = pack_interleaved(codes);
  ASSERT_EQ(packed.size(), 8u);
  for (std::size_t g = 0; g < 8; ++g) {
    const auto grp = unpack8_interleaved(packed[g]);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(grp[static_cast<std::size_t>(i)], codes[g * 8 + static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Pack, RejectsBadInput) {
  std::array<std::uint8_t, 8> codes{};
  codes[3] = 16;  // out of INT4 range
  EXPECT_THROW((void)pack8_interleaved(codes), marlin::Error);
  EXPECT_THROW(pack_interleaved(std::vector<std::uint8_t>(7)),
               marlin::Error);
}

TEST(DequantTrick, SpliceProducesExponent1024Lanes) {
  // After the lop3, each 16-bit lane must be FP16 with value 1024 + code.
  const std::uint32_t q = pack8_interleaved({{5, 9, 0, 15, 3, 7, 12, 1}});
  for (int step = 0; step < 4; ++step) {
    const std::uint32_t t = lop3_splice(q, step);
    const float lo = Half::from_bits(static_cast<std::uint16_t>(t)).to_float();
    const float hi = Half::from_bits(static_cast<std::uint16_t>(t >> 16)).to_float();
    EXPECT_GE(lo, 1024.0f);
    EXPECT_LE(lo, 1039.0f);
    EXPECT_GE(hi, 1024.0f);
    EXPECT_LE(hi, 1039.0f);
  }
}

class DequantAllCodes : public ::testing::TestWithParam<int> {};

TEST_P(DequantAllCodes, TrickMatchesNaiveExactly) {
  // For every code value in every slot position, the packed-FP16 trick must
  // produce the same bits as the naive int -> float -> half conversion.
  const int code = GetParam();
  for (int slot = 0; slot < 8; ++slot) {
    std::array<std::uint8_t, 8> codes{};
    codes.fill(3);  // arbitrary background
    codes[static_cast<std::size_t>(slot)] = static_cast<std::uint8_t>(code);
    const std::uint32_t packed = pack8_interleaved(codes);
    const auto vals = dequant8(packed);
    const Half expect = dequant_naive_code(static_cast<std::uint8_t>(code));
    EXPECT_EQ(vals[static_cast<std::size_t>(slot)].bits(), expect.bits())
        << "code=" << code << " slot=" << slot;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodes, DequantAllCodes, ::testing::Range(0, 16));

TEST(DequantTrick, PairsMatchExtractionSteps) {
  // Extraction step k yields (logical 2k, logical 2k+1) as (hi, lo).
  Rng rng(4);
  for (int rep = 0; rep < 500; ++rep) {
    const auto codes = random_codes(rng);
    const std::uint32_t packed = pack8_interleaved(codes);
    for (int k = 0; k < 4; ++k) {
      const auto [even, odd] = dequant_step(packed, k);
      EXPECT_EQ(even.to_float(),
                static_cast<float>(codes[static_cast<std::size_t>(2 * k)]) - 8.0f);
      EXPECT_EQ(odd.to_float(),
                static_cast<float>(codes[static_cast<std::size_t>(2 * k + 1)]) - 8.0f);
    }
  }
}

TEST(DequantTrick, WholeRegisterRandomised) {
  Rng rng(5);
  for (int rep = 0; rep < 2000; ++rep) {
    const auto codes = random_codes(rng);
    const auto vals = dequant8(pack8_interleaved(codes));
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(vals[static_cast<std::size_t>(i)].to_float(),
                static_cast<float>(codes[static_cast<std::size_t>(i)]) - 8.0f);
    }
  }
}

TEST(DequantTrick, MagicConstantsMatchPaperDescription) {
  // Exponent splice 0x6400 is FP16 1024 (biased exponent pattern 0110010).
  EXPECT_EQ(Half::from_bits(kDequantExp & 0xffffu).to_float(), 1024.0f);
  // Magic subtrahend = 1024 + 8: the signed offset fused into the low bits.
  EXPECT_EQ(Half::from_bits(kDequantMagic).to_float(), 1032.0f);
}

}  // namespace
}  // namespace marlin::quant
