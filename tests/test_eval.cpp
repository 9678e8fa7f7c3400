// Eval substrate: synthetic layers, quality metrics, proxy calibration.

#include <gtest/gtest.h>

#include <cmath>

#include "eval/metrics.hpp"
#include "eval/proxy.hpp"
#include "eval/synthetic.hpp"
#include "quant/gptq.hpp"
#include "quant/uniform.hpp"

namespace marlin::eval {
namespace {

TEST(Synthetic, ShapesAndDeterminism) {
  const auto a = make_synthetic_layer(64, 32, 128, 7);
  const auto b = make_synthetic_layer(64, 32, 128, 7);
  EXPECT_EQ(a.w.rows(), 64);
  EXPECT_EQ(a.calib.rows(), 128);
  for (index_t i = 0; i < 64; ++i) {
    for (index_t j = 0; j < 32; ++j) EXPECT_EQ(a.w(i, j), b.w(i, j));
  }
}

TEST(Synthetic, CalibrationFeaturesAreCorrelated) {
  const auto layer = make_synthetic_layer(32, 8, 4096, 11);
  // Adjacent-feature correlation should be near the configured rho = 0.6
  // (normalising away the per-feature scales).
  double num = 0, d0 = 0, d1 = 0;
  for (index_t t = 0; t < 4096; ++t) {
    const double x = layer.calib(t, 10), y = layer.calib(t, 11);
    num += x * y;
    d0 += x * x;
    d1 += y * y;
  }
  const double corr = num / std::sqrt(d0 * d1);
  EXPECT_GT(corr, 0.4);
  EXPECT_LT(corr, 0.8);
}

TEST(Synthetic, WeightsAreHeavyTailed) {
  const auto layer = make_synthetic_layer(128, 64, 1, 13);
  double sum2 = 0, sum4 = 0;
  const double n = 128 * 64;
  for (index_t i = 0; i < 128; ++i) {
    for (index_t j = 0; j < 64; ++j) {
      const double w = layer.w(i, j);
      sum2 += w * w;
      sum4 += w * w * w * w;
    }
  }
  const double kurtosis = (sum4 / n) / ((sum2 / n) * (sum2 / n));
  EXPECT_GT(kurtosis, 4.0);  // Gaussian would be 3
}

TEST(Metrics, NmseZeroForIdenticalAndPositiveOtherwise) {
  const auto layer = make_synthetic_layer(32, 16, 64, 17);
  EXPECT_DOUBLE_EQ(
      layer_output_nmse(layer.w.view(), layer.w.view(), layer.calib.view()),
      0.0);
  Matrix<float> perturbed = layer.w;
  perturbed(3, 3) += 0.5f;
  EXPECT_GT(layer_output_nmse(layer.w.view(), perturbed.view(),
                              layer.calib.view()),
            0.0);
}

TEST(Metrics, OutputNmseWeightsBigFeaturesMore) {
  // Perturbing a high-magnitude feature's row must cost more output error
  // than the same perturbation on a low-magnitude feature.
  const auto layer = make_synthetic_layer(64, 16, 512, 19);
  // Find rows with max / min feature scale via calib column energies.
  index_t hot = 0, cold = 0;
  double emax = -1, emin = 1e300;
  for (index_t f = 0; f < 64; ++f) {
    double e = 0;
    for (index_t t = 0; t < 512; ++t) e += layer.calib(t, f) * layer.calib(t, f);
    if (e > emax) {
      emax = e;
      hot = f;
    }
    if (e < emin) {
      emin = e;
      cold = f;
    }
  }
  Matrix<float> p_hot = layer.w, p_cold = layer.w;
  for (index_t j = 0; j < 16; ++j) {
    p_hot(hot, j) += 0.01f;
    p_cold(cold, j) += 0.01f;
  }
  EXPECT_GT(
      layer_output_nmse(layer.w.view(), p_hot.view(), layer.calib.view()),
      layer_output_nmse(layer.w.view(), p_cold.view(), layer.calib.view()));
}

TEST(Proxy, CalibrationRoundTrips) {
  const double kappa = calibrate_kappa(5.47, 5.72, 0.01);
  EXPECT_NEAR(perplexity_proxy(5.47, 0.01, kappa), 5.72, 1e-9);
  EXPECT_DOUBLE_EQ(perplexity_proxy(5.47, 0.0, kappa), 5.47);
  const double sens = calibrate_sensitivity(56.96, 53.63, 0.01);
  EXPECT_NEAR(accuracy_proxy(56.96, 0.01, sens), 53.63, 1e-9);
}

TEST(Proxy, MonotoneInError) {
  const double kappa = 2.0;
  double prev = 0;
  for (const double nmse : {0.0, 0.005, 0.01, 0.05}) {
    const double ppl = perplexity_proxy(5.0, nmse, kappa);
    EXPECT_GT(ppl, prev);
    prev = ppl;
  }
}

TEST(Proxy, PublishedReferencesOrdered) {
  const auto refs = llama2_ppl_refs();
  ASSERT_EQ(refs.size(), 3u);
  // Bigger models have lower perplexity.
  EXPECT_GT(refs[0].fp16_ppl, refs[1].fp16_ppl);
  EXPECT_GT(refs[1].fp16_ppl, refs[2].fp16_ppl);
}

TEST(EndToEnd, BitsVsErrorParetoIsMonotone) {
  // More bits => less measured output error, on the same synthetic layer.
  const auto layer = make_synthetic_layer(128, 32, 512, 23);
  quant::HessianAccumulator acc(128);
  acc.add_sequence(layer.calib.view());
  double prev = 1e300;
  for (const int bits : {2, 3, 4, 8}) {
    quant::GptqConfig cfg;
    cfg.quant.bits = bits;
    cfg.quant.group_size = 64;
    const auto r = quant::gptq_quantize(layer.w.view(), acc, cfg);
    const double e = layer_output_nmse(
        layer.w.view(), r.weights.dequantize().view(), layer.calib.view());
    EXPECT_LT(e, prev) << bits << " bits";
    prev = e;
  }
}

TEST(EndToEnd, GroupingImprovesGptqToo) {
  const auto layer = make_synthetic_layer(256, 16, 768, 29);
  quant::HessianAccumulator acc(256);
  acc.add_sequence(layer.calib.view());
  quant::GptqConfig coarse;
  coarse.quant.group_size = quant::kPerColumn;
  quant::GptqConfig fine;
  fine.quant.group_size = 64;
  const auto rc = quant::gptq_quantize(layer.w.view(), acc, coarse);
  const auto rf = quant::gptq_quantize(layer.w.view(), acc, fine);
  const double ec = layer_output_nmse(
      layer.w.view(), rc.weights.dequantize().view(), layer.calib.view());
  const double ef = layer_output_nmse(
      layer.w.view(), rf.weights.dequantize().view(), layer.calib.view());
  EXPECT_LT(ef, ec);
}

}  // namespace
}  // namespace marlin::eval
