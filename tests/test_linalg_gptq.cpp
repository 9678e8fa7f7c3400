// Dense linear algebra and GPTQ (with the paper's §3.5 modifications).

#include <gtest/gtest.h>

#include <cmath>

#include "quant/gptq.hpp"
#include "quant/linalg.hpp"
#include "quant/uniform.hpp"
#include "layout/repack.hpp"
#include "eval/metrics.hpp"
#include "eval/synthetic.hpp"
#include "util/rng.hpp"

namespace marlin::quant {
namespace {

Matrix<double> random_spd(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  }
  Matrix<double> h(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t t = 0; t < n; ++t) h(i, j) += a(t, i) * a(t, j);
    }
    h(i, i) += static_cast<double>(n);  // well conditioned
  }
  return h;
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix<double> h(2, 2, 0.0);
  h(0, 0) = 1.0;
  h(1, 1) = -1.0;
  EXPECT_THROW((void)upper_cholesky_of_inverse(h), marlin::Error);
}

TEST(UpperCholeskyOfInverse, SatisfiesUtU) {
  // U^T U = H^{-1}, checked as H (U^T U) = I.
  constexpr index_t n = 20;
  const auto h = random_spd(n, 3);
  const auto u = upper_cholesky_of_inverse(h);
  Matrix<double> utu(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (j < i) {
        EXPECT_DOUBLE_EQ(u(i, j), 0.0);  // upper triangular
      }
      for (index_t t = 0; t < n; ++t) utu(i, j) += u(t, i) * u(t, j);
    }
  }
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double s = 0;
      for (index_t t = 0; t < n; ++t) s += h(i, t) * utu(t, j);
      EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(Gram, MatchesDirectComputation) {
  Rng rng(4);
  Matrix<float> x(10, 6);
  for (index_t i = 0; i < 10; ++i) {
    for (index_t j = 0; j < 6; ++j) {
      x(i, j) = static_cast<float>(rng.normal());
    }
  }
  Matrix<double> g(6, 6, 0.0);
  add_gram_upper(x.view(), g);
  for (index_t i = 0; i < 6; ++i) {
    for (index_t j = 0; j < 6; ++j) {
      if (j < i) {
        EXPECT_EQ(g(i, j), 0.0);  // only the upper triangle accumulates
        continue;
      }
      double s = 0;
      for (index_t t = 0; t < 10; ++t) {
        s += static_cast<double>(x(t, i)) * x(t, j);
      }
      EXPECT_NEAR(g(i, j), s, 1e-9);
    }
  }
}

TEST(Hessian, VariableLengthSequencesEqualConcatenation) {
  // §3.5 (b): accumulating sequences of different lengths must equal one
  // accumulation of the concatenated activations.
  Rng rng(5);
  Matrix<float> x(48, 8);
  for (index_t i = 0; i < 48; ++i) {
    for (index_t j = 0; j < 8; ++j) x(i, j) = static_cast<float>(rng.normal());
  }
  HessianAccumulator split(8), whole(8);
  whole.add_sequence(x.view());
  split.add_sequence(x.view().block(0, 0, 7, 8));
  split.add_sequence(x.view().block(7, 0, 20, 8));
  split.add_sequence(x.view().block(27, 0, 21, 8));
  EXPECT_EQ(split.num_tokens(), whole.num_tokens());
  const auto h1 = split.hessian();
  const auto h2 = whole.hessian();
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 8; ++j) EXPECT_NEAR(h1(i, j), h2(i, j), 1e-9);
  }
}

TEST(Hessian, RejectsEmptyAndMismatched) {
  HessianAccumulator acc(8);
  EXPECT_THROW(acc.hessian(), marlin::Error);
  Matrix<float> bad(4, 7);
  EXPECT_THROW(acc.add_sequence(bad.view()), marlin::Error);
}

struct GptqCase {
  index_t k, n, group;
};

class GptqBeatsRtn : public ::testing::TestWithParam<GptqCase> {};

TEST_P(GptqBeatsRtn, OnCorrelatedCalibration) {
  // The central GPTQ claim: with a correlated Hessian, error-compensated
  // quantization beats round-to-nearest in *layer output* error.
  const auto [k, n, group] = GetParam();
  const auto layer = eval::make_synthetic_layer(k, n, 4 * k, 1234 + k + n);

  HessianAccumulator acc(k);
  acc.add_sequence(layer.calib.view());

  GptqConfig cfg;
  cfg.quant.group_size = group;
  const auto gptq = gptq_quantize(layer.w.view(), acc, cfg);
  const auto rtn = quantize_rtn(layer.w.view(), cfg.quant);

  const auto w_gptq = gptq.weights.dequantize();
  const auto w_rtn = rtn.dequantize();
  const double e_gptq = eval::layer_output_nmse(layer.w.view(), w_gptq.view(),
                                                layer.calib.view());
  const double e_rtn = eval::layer_output_nmse(layer.w.view(), w_rtn.view(),
                                               layer.calib.view());
  EXPECT_LT(e_gptq, e_rtn) << "GPTQ must beat RTN on correlated data";
  EXPECT_LT(e_gptq, 0.75 * e_rtn);  // and substantially so
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GptqBeatsRtn,
    ::testing::Values(GptqCase{64, 16, 64}, GptqCase{128, 24, 64},
                      GptqCase{128, 16, kPerColumn},
                      GptqCase{256, 16, 128}));

TEST(Gptq, ClipSearchImprovesHeavyTails) {
  const auto layer = eval::make_synthetic_layer(128, 16, 512, 42);
  HessianAccumulator acc(128);
  acc.add_sequence(layer.calib.view());
  GptqConfig plain;
  plain.quant.group_size = 64;
  GptqConfig clipped = plain;
  clipped.quant.clip_search = true;
  const auto r_plain = gptq_quantize(layer.w.view(), acc, plain);
  const auto r_clip = gptq_quantize(layer.w.view(), acc, clipped);
  const double e_plain = eval::layer_output_nmse(
      layer.w.view(), r_plain.weights.dequantize().view(),
      layer.calib.view());
  const double e_clip = eval::layer_output_nmse(
      layer.w.view(), r_clip.weights.dequantize().view(),
      layer.calib.view());
  EXPECT_LT(e_clip, e_plain * 1.02);  // never meaningfully worse
}

TEST(Gptq, ScalesAreFp16AndCodesInRange) {
  const auto layer = eval::make_synthetic_layer(128, 8, 256, 7);
  HessianAccumulator acc(128);
  acc.add_sequence(layer.calib.view());
  GptqConfig cfg;
  cfg.quant.group_size = 32;
  const auto r = gptq_quantize(layer.w.view(), acc, cfg);
  EXPECT_EQ(r.weights.scales.rows(), 4);
  for (index_t i = 0; i < 128; ++i) {
    for (index_t j = 0; j < 8; ++j) EXPECT_LT(r.weights.codes(i, j), 16);
  }
  EXPECT_GT(r.hessian_weighted_error, 0.0);
}

TEST(Gptq, ActOrderValidAndCompetitiveOnHeterogeneousHessian) {
  // Strong per-feature scale diversity makes the Hessian diagonal very
  // heterogeneous — the regime desc_act was designed for.
  const auto layer = eval::make_synthetic_layer(128, 16, 512, 911, 1.2);
  HessianAccumulator acc(128);
  acc.add_sequence(layer.calib.view());
  const auto h = acc.hessian();

  GptqConfig plain;
  plain.quant.group_size = 32;
  GptqConfig ao = plain;
  ao.act_order = true;
  const auto r_plain = gptq_quantize(layer.w.view(), h, plain);
  const auto r_ao = gptq_quantize(layer.w.view(), h, ao);

  // Structure: group_index present, one entry per row, values in range.
  ASSERT_EQ(r_ao.weights.group_index.size(), 128u);
  for (const index_t g : r_ao.weights.group_index) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, r_ao.weights.num_groups());
  }
  // Every group must be assigned exactly group_size rows.
  std::vector<int> counts(static_cast<std::size_t>(r_ao.weights.num_groups()));
  for (const index_t g : r_ao.weights.group_index) {
    ++counts[static_cast<std::size_t>(g)];
  }
  for (const int c : counts) EXPECT_EQ(c, 32);

  // Quality: act-order is competitive (typically better) on this regime.
  const double e_plain = eval::layer_output_nmse(
      layer.w.view(), r_plain.weights.dequantize().view(),
      layer.calib.view());
  const double e_ao = eval::layer_output_nmse(
      layer.w.view(), r_ao.weights.dequantize().view(), layer.calib.view());
  EXPECT_LT(e_ao, e_plain * 1.1);
  EXPECT_LT(e_ao, 0.05);
}

TEST(Gptq, ActOrderCheckpointsRejectedByMarlinRepack) {
  const auto layer = eval::make_synthetic_layer(64, 64, 256, 912);
  HessianAccumulator acc(64);
  acc.add_sequence(layer.calib.view());
  GptqConfig cfg;
  cfg.quant.group_size = 32;
  cfg.act_order = true;
  const auto r = gptq_quantize(layer.w.view(), acc, cfg);
  EXPECT_THROW(layout::marlin_repack(r.weights), marlin::Error);
}

TEST(Gptq, HessianShapeMismatchThrows) {
  Matrix<float> w(64, 8, 0.1f);
  Matrix<double> h(32, 32, 0.0);
  GptqConfig cfg;
  EXPECT_THROW(gptq_quantize(w.view(), h, cfg), marlin::Error);
}

TEST(Gptq, RejectsBadBitsAndGroupSizes) {
  Matrix<float> w(8, 4, 0.1f);
  Matrix<double> h(8, 8, 0.0);
  for (index_t i = 0; i < 8; ++i) h(i, i) = 1.0;
  for (const index_t g : {index_t{0}, index_t{-5}}) {
    GptqConfig cfg;
    cfg.quant.group_size = g;
    EXPECT_THROW(gptq_quantize(w.view(), h, cfg), marlin::Error)
        << "group " << g;
  }
  for (const int bits : {1, 9}) {
    GptqConfig cfg;
    cfg.quant.bits = bits;
    EXPECT_THROW(gptq_quantize(w.view(), h, cfg), marlin::Error)
        << "bits " << bits;
  }
}

}  // namespace
}  // namespace marlin::quant
