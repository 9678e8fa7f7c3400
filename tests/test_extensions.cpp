// Extension features: AWQ-format support (paper §6), W4A8 / QQQ-style
// INT8 activations (paper §6), and 2/8-bit weights for "extreme
// compression" (paper §7).

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/kernel_model.hpp"
#include "core/marlin_kernel.hpp"
#include "core/timing.hpp"
#include "core/w4a8.hpp"
#include "eval/metrics.hpp"
#include "eval/synthetic.hpp"
#include "layout/repack.hpp"
#include "quant/awq.hpp"
#include "quant/gptq.hpp"
#include "quant/int8_act.hpp"
#include "quant/uniform.hpp"
#include "util/rng.hpp"

namespace marlin {
namespace {

Matrix<float> random_weights(index_t k, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  return w;
}

// ---------------------------------------------------------------- AWQ ----

TEST(Awq, AsymmetricGroupedRoundTripBound) {
  const auto w = random_weights(128, 16, 1);
  quant::QuantConfig cfg;
  cfg.group_size = 64;
  const auto q = quant::quantize_asymmetric_grouped(w.view(), cfg);
  for (index_t i = 0; i < 128; ++i) {
    for (index_t j = 0; j < 16; ++j) {
      const float s = q.scales(cfg.group_of_row(i), j).to_float();
      EXPECT_LE(std::abs(w(i, j) - q.decode(i, j)), s + 1e-6f)
          << i << "," << j;  // zero-point rounding costs at most one step
    }
  }
}

TEST(Awq, ZeroDecodesExactly) {
  // The integer zero point guarantees 0.0 has an exact code.
  Matrix<float> w(64, 4, 0.0f);
  w(0, 0) = 1.0f;  // force a non-degenerate range
  w(1, 0) = -1.0f;
  quant::QuantConfig cfg;
  cfg.group_size = 64;
  const auto q = quant::quantize_asymmetric_grouped(w.view(), cfg);
  EXPECT_EQ(q.decode(5, 0), 0.0f);
}

TEST(Awq, SearchPicksNonTrivialAlphaOnOutlierActivations) {
  // With strong activation outliers, plain (alpha=0) quantization is
  // suboptimal — AWQ's whole premise.
  const auto layer = eval::make_synthetic_layer(128, 32, 512, 7);
  quant::QuantConfig cfg;
  cfg.group_size = 64;
  const auto r = quant::awq_quantize(layer.w.view(), layer.calib.view(), cfg);
  EXPECT_GT(r.alpha, 0.0);

  // And the chosen scaling beats alpha = 0 on true output error.
  const auto plain =
      quant::quantize_asymmetric_grouped(layer.w.view(), cfg);
  const double e_awq = eval::layer_output_nmse(
      layer.w.view(), r.weights.dequantize().view(), layer.calib.view());
  const double e_plain = eval::layer_output_nmse(
      layer.w.view(), plain.dequantize().view(), layer.calib.view());
  EXPECT_LT(e_awq, e_plain);
}

TEST(Awq, MarlinRepackRoundTrip) {
  const auto layer = eval::make_synthetic_layer(128, 64, 256, 9);
  quant::QuantConfig cfg;
  cfg.group_size = 64;
  const auto r = quant::awq_quantize(layer.w.view(), layer.calib.view(), cfg);
  const auto mw = layout::marlin_repack_awq(r.weights);
  EXPECT_TRUE(mw.asymmetric());
  const auto unpacked = layout::marlin_unpack_dequant(mw);
  for (index_t i = 0; i < 128; ++i) {
    for (index_t j = 0; j < 64; ++j) {
      ASSERT_EQ(unpacked(i, j), r.weights.decode_scaled(i, j))
          << i << "," << j;
    }
  }
}

TEST(Awq, FunctionalKernelComputesXW) {
  // Scaled weights in the kernel + inversely scaled activations must
  // reproduce x * W.
  const index_t m = 8, k = 128, n = 64;
  const auto layer = eval::make_synthetic_layer(k, n, 384, 11);
  quant::QuantConfig cfg;
  cfg.group_size = 64;
  const auto r = quant::awq_quantize(layer.w.view(), layer.calib.view(), cfg);
  const auto mw = layout::marlin_repack_awq(r.weights);

  Rng rng(2);
  Matrix<Half> x(m, k), x_scaled(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      const float v = static_cast<float>(rng.normal());
      x(i, j) = Half(v);
      x_scaled(i, j) = Half(
          v / r.weights.channel_scale[static_cast<std::size_t>(j)]);
    }
  }
  core::KernelConfig kcfg;
  kcfg.n_sm_tile = 64;
  kcfg.num_warps = 4;
  const auto res = core::marlin_matmul(x_scaled.view(), mw, kcfg, 4);

  // Reference on the effective (descaled) weights with original x.
  const auto ref =
      core::reference_matmul(x.view(), r.weights.dequantize().view());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      EXPECT_NEAR(res.c(i, j).to_float(), ref(i, j),
                  5e-2 * (std::abs(ref(i, j)) + 1.0));
    }
  }
}

// --------------------------------------------------------------- W4A8 ----

TEST(W4A8, ActivationRoundTripBound) {
  Rng rng(3);
  Matrix<Half> a(16, 64);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 64; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal(0.0, 2.0)));
    }
  }
  const auto q = quant::quantize_activations_int8(a.view());
  for (index_t i = 0; i < 16; ++i) {
    const float s = q.row_scale[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < 64; ++j) {
      EXPECT_LE(std::abs(q.decode(i, j) - a(i, j).to_float()),
                0.5f * s + 1e-6f);
    }
  }
}

TEST(W4A8, MatmulMatchesFloatReferenceWithinQuantNoise) {
  const index_t m = 8, k = 256, n = 32;
  const auto w = random_weights(k, n, 13);
  quant::QuantConfig qcfg;
  qcfg.group_size = 128;
  const auto qw = quant::quantize_rtn(w.view(), qcfg);

  Rng rng(4);
  Matrix<Half> a(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }
  const auto a8 = quant::quantize_activations_int8(a.view());
  const auto c = core::w4a8_matmul(a8, qw);

  // Reference: dequantised activations x dequantised weights.
  const auto a_deq = quant::dequantize_activations(a8);
  const auto w_deq = qw.dequantize();
  Matrix<float> ref(m, n, 0.0f);
  for (index_t i = 0; i < m; ++i) {
    for (index_t t = 0; t < k; ++t) {
      for (index_t j = 0; j < n; ++j) {
        ref(i, j) += a_deq(i, t) * w_deq(t, j);
      }
    }
  }
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      EXPECT_NEAR(c(i, j).to_float(), ref(i, j),
                  2e-3 * std::sqrt(static_cast<double>(k)) +
                      2e-2 * std::abs(ref(i, j)) + 2e-2);
    }
  }
}

TEST(W4A8, ExtendsSpeedupIntoComputeBoundRegime) {
  // The point of W4A8: at large batch the INT8 pipes double throughput and
  // halved activation traffic keeps memory pressure lower.
  const auto d = gpusim::a100_80g();
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
  const auto marlin = baselines::make_kernel_model("marlin");
  const auto w4a8 = baselines::make_kernel_model("marlin-w4a8");
  for (const index_t m : {128, 512, 2048}) {
    const core::MatmulProblem p{m, 8192, 8192, 128, false};
    EXPECT_LT(w4a8->estimate(p, d, clock).seconds,
              marlin->estimate(p, d, clock).seconds)
        << "batch " << m;
  }
  // And roughly 2x in the deeply compute-bound limit.
  const core::MatmulProblem big{4096, 8192, 8192, 128, false};
  // ~2x compute, but B is re-streamed per 64-row replication block, which
  // leaves W4A8 partly memory-bound — the uplift lands around 1.5-1.8x.
  const double ratio = marlin->estimate(big, d, clock).seconds /
                       w4a8->estimate(big, d, clock).seconds;
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.2);
}

// --------------------------------------------------------- bit widths ----

TEST(BitWidths, TimingModelScalesWithWeightBits) {
  // Memory-bound regime: time proportional to stored bits per weight.
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
  core::MatmulProblem p4{16, 18432, 73728, 128, false};
  core::MatmulProblem p2 = p4;
  p2.weight_bits = 2;
  core::MatmulProblem p8 = p4;
  p8.weight_bits = 8;
  const double t4 = core::marlin_estimate_auto(p4, d, clock).seconds;
  const double t2 = core::marlin_estimate_auto(p2, d, clock).seconds;
  const double t8 = core::marlin_estimate_auto(p8, d, clock).seconds;
  EXPECT_NEAR(t2 / t4, 2.125 / 4.125, 0.05);
  EXPECT_NEAR(t8 / t4, 8.125 / 4.125, 0.10);
}

TEST(BitWidths, GptqQualityDegradesGracefully) {
  // 3-bit GPTQ must sit between 2-bit and 4-bit in measured error
  // (the Pareto structure behind paper Fig. 6 / §7 future work).
  const auto layer = eval::make_synthetic_layer(128, 32, 512, 31);
  quant::HessianAccumulator acc(128);
  acc.add_sequence(layer.calib.view());
  auto err_at = [&](int bits) {
    quant::GptqConfig cfg;
    cfg.quant.bits = bits;
    cfg.quant.group_size = 64;
    const auto r = quant::gptq_quantize(layer.w.view(), acc, cfg);
    return eval::layer_output_nmse(
        layer.w.view(), r.weights.dequantize().view(), layer.calib.view());
  };
  const double e2 = err_at(2), e3 = err_at(3), e4 = err_at(4);
  EXPECT_GT(e2, e3);
  EXPECT_GT(e3, e4);
}

TEST(Factory, W4A8Registered) {
  EXPECT_EQ(baselines::make_kernel_model("marlin-w4a8")->name(),
            "marlin-w4a8");
}

}  // namespace
}  // namespace marlin
