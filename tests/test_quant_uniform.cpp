// Uniform quantization: symmetric RTN with grouping and the §3.5
// clipping-threshold search.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "quant/uniform.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace marlin::quant {
namespace {

Matrix<float> random_weights(index_t k, index_t n, std::uint64_t seed,
                             double scale = 0.05) {
  Rng rng(seed);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, scale));
    }
  }
  return w;
}

// ||W - deq(Q)||_F^2 / ||W||_F^2: the reconstruction MSE over a fixed
// 1 / mean(W^2), so ratios between two quantizations of one W are kept.
double squared_relative_error(const Matrix<float>& w,
                              const QuantizedWeights& q) {
  const double e = relative_frobenius_error(w.flat(), q.dequantize().flat());
  return e * e;
}

TEST(Symmetric, ScaleCoversRange) {
  const std::vector<float> v{-0.7f, 0.1f, 0.35f};
  const float s = symmetric_scale(v, 4);
  EXPECT_FLOAT_EQ(s, 0.7f / 7.0f);
  // encode/decode of the extreme value is exact.
  const auto code = encode_symmetric(-0.7f, s, 4);
  EXPECT_EQ(static_cast<int>(code) - 8, -7);
}

TEST(Symmetric, CodesStayInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const float s = 0.03f;
    const float v = static_cast<float>(rng.normal(0.0, 1.0));
    const auto code = encode_symmetric(v, s, 4);
    EXPECT_LT(code, 16);
  }
}

TEST(Rtn, RoundTripErrorBoundedByHalfScale) {
  const auto w = random_weights(128, 32, 11);
  QuantConfig cfg;
  cfg.group_size = 64;
  const auto q = quantize_rtn(w.view(), cfg);
  for (index_t i = 0; i < w.rows(); ++i) {
    for (index_t j = 0; j < w.cols(); ++j) {
      const float s = q.scales(cfg.group_of_row(i), j).to_float();
      EXPECT_LE(std::abs(w(i, j) - q.decode(i, j)), 0.5f * s + 1e-6f);
    }
  }
}

TEST(Rtn, PerColumnUsesOneScalePerColumn) {
  const auto w = random_weights(64, 8, 3);
  QuantConfig cfg;
  cfg.group_size = kPerColumn;
  const auto q = quantize_rtn(w.view(), cfg);
  EXPECT_EQ(q.scales.rows(), 1);
  EXPECT_EQ(q.num_groups(), 1);
}

class RtnGroupSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(RtnGroupSweep, FinerGroupsNeverWorse) {
  // Property: halving the group size cannot increase the MSE (each smaller
  // group optimises its own scale over a subset).
  const auto w = random_weights(256, 16, 21, 0.1);
  QuantConfig coarse;
  coarse.group_size = GetParam();
  QuantConfig fine;
  fine.group_size = GetParam() / 2;
  const double mse_coarse =
      squared_relative_error(w, quantize_rtn(w.view(), coarse));
  const double mse_fine =
      squared_relative_error(w, quantize_rtn(w.view(), fine));
  EXPECT_LE(mse_fine, mse_coarse * 1.02);  // FP16 scale rounding slack
}

INSTANTIATE_TEST_SUITE_P(Groups, RtnGroupSweep,
                         ::testing::Values<index_t>(256, 128, 64, 32));

TEST(ClipSearch, NeverWorseThanMaxAbsScaling) {
  // §3.5 (a): the searched clipping threshold minimises group MSE, so it
  // can only improve on plain max-abs scaling. Use heavy-tailed weights
  // where clipping genuinely helps.
  Rng rng(77);
  Matrix<float> w(128, 16);
  for (index_t i = 0; i < w.rows(); ++i) {
    for (index_t j = 0; j < w.cols(); ++j) {
      w(i, j) = static_cast<float>(0.05 * rng.student_t(3.0));
    }
  }
  QuantConfig plain;
  plain.group_size = 128;
  QuantConfig clipped = plain;
  clipped.clip_search = true;
  const double mse_plain =
      squared_relative_error(w, quantize_rtn(w.view(), plain));
  const double mse_clip =
      squared_relative_error(w, quantize_rtn(w.view(), clipped));
  EXPECT_LE(mse_clip, mse_plain + 1e-12);
  EXPECT_LT(mse_clip, mse_plain * 0.95);  // and strictly better on t(3)
}

TEST(BitsPerWeight, MatchesPaperStorageModel) {
  QuantConfig cfg;
  cfg.group_size = 128;
  QuantizedWeights q(256, 64, cfg);
  // 4 bits + 16/128 scale bits = 4.125 (paper Fig. 1 caption: 3.87x bound).
  EXPECT_NEAR(q.bits_per_weight(), 4.125, 1e-9);
  QuantConfig percol;
  percol.group_size = kPerColumn;
  QuantizedWeights q2(256, 64, percol);
  EXPECT_NEAR(q2.bits_per_weight(), 4.0 + 16.0 / 256.0, 1e-9);
}

TEST(Rtn, ZeroGroupGetsUnitScale) {
  Matrix<float> w(64, 4, 0.0f);
  QuantConfig cfg;
  cfg.group_size = 64;
  const auto q = quantize_rtn(w.view(), cfg);
  for (index_t j = 0; j < 4; ++j) {
    EXPECT_EQ(q.decode(0, j), 0.0f);
  }
}

TEST(ClipSearch, FiniteScaleWinsWhenTheUnclippedOneOverflowsHalf) {
  // max|w| / 7 = 72,369 overflows FP16, so the unclipped scale's error is
  // NaN; clip 0.9 gives 65,131.7, stored as FP16 65,120.
  const std::vector<float> v{506580.0f};
  EXPECT_TRUE(std::isinf(Half(symmetric_scale(v, 4)).to_float()));
  EXPECT_EQ(Half(search_clipped_scale(v, 4)).to_float(), 65120.0f);

  Matrix<float> w(1, 1, 506580.0f);
  QuantConfig cfg;
  cfg.group_size = 1;
  cfg.clip_search = true;
  const QuantizedWeights q = quantize_rtn(w.view(), cfg);
  EXPECT_EQ(q.scales(0, 0).to_float(), 65120.0f);
  EXPECT_EQ(q.decode(0, 0), 7.0f * 65120.0f);
}

TEST(Rtn, RejectsBadBitsAndGroupSizes) {
  Matrix<float> w(8, 4, 0.5f);
  for (const index_t g : {index_t{0}, index_t{-5}}) {
    QuantConfig cfg;
    cfg.group_size = g;
    EXPECT_THROW(quantize_rtn(w.view(), cfg), Error) << "group " << g;
  }
  for (const int bits : {1, 9}) {
    QuantConfig cfg;
    cfg.bits = bits;
    EXPECT_THROW(quantize_rtn(w.view(), cfg), Error) << "bits " << bits;
  }
}

}  // namespace
}  // namespace marlin::quant
