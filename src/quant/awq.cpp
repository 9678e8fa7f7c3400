#include "quant/awq.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace marlin::quant {

AsymmetricQuantizedWeights quantize_asymmetric_grouped(
    ConstMatrixView<float> w, const QuantConfig& cfg) {
  const index_t k = w.rows(), n = w.cols();
  MARLIN_CHECK(k > 0 && n > 0, "empty weight matrix");
  AsymmetricQuantizedWeights q(k, n, cfg);

  const index_t g = cfg.group_size == kPerColumn ? k : cfg.group_size;
  const int qmax = (1 << cfg.bits) - 1;
  for (index_t j = 0; j < n; ++j) {
    for (index_t g0 = 0; g0 < k; g0 += g) {
      const index_t g1 = std::min(k, g0 + g);
      float mn = w(g0, j), mx = w(g0, j);
      for (index_t i = g0; i < g1; ++i) {
        mn = std::min(mn, w(i, j));
        mx = std::max(mx, w(i, j));
      }
      // Paper §2.2: s = (max - min) / (2^b - 1), z maps min to code 0; the
      // integer zero point is round(-min/s) so that 0.0 decodes exactly.
      float s = (mx - mn) / static_cast<float>(qmax);
      if (s <= 0) s = 1.0f;
      const Half sh(s);
      const float sf = sh.to_float();
      const int zero = std::clamp(
          static_cast<int>(std::nearbyint(-mn / sf)), 0, qmax);
      const index_t gi = cfg.group_of_row(g0);
      q.scales(gi, j) = sh;
      q.zeros(gi, j) = static_cast<std::uint8_t>(zero);
      for (index_t i = g0; i < g1; ++i) {
        const int code = std::clamp(
            static_cast<int>(std::nearbyint(w(i, j) / sf)) + zero, 0, qmax);
        q.codes(i, j) = static_cast<std::uint8_t>(code);
      }
    }
  }
  return q;
}

namespace {

/// Diagonal activation model: error = sum_i E[x_i^2] * sum_j err(i,j)^2.
double weighted_error(ConstMatrixView<float> w,
                      const AsymmetricQuantizedWeights& q,
                      std::span<const double> x2) {
  double err = 0.0;
  for (index_t i = 0; i < w.rows(); ++i) {
    double row = 0.0;
    for (index_t j = 0; j < w.cols(); ++j) {
      const double d = static_cast<double>(w(i, j)) - q.decode(i, j);
      row += d * d;
    }
    err += x2[static_cast<std::size_t>(i)] * row;
  }
  return err;
}

}  // namespace

AwqResult awq_quantize(ConstMatrixView<float> w, ConstMatrixView<float> calib,
                       const QuantConfig& cfg) {
  const index_t k = w.rows(), n = w.cols();
  MARLIN_CHECK(calib.cols() == k, "calibration width must equal K");

  // Channel statistics: mean |x_i| (saliency) and E[x_i^2] (objective).
  std::vector<double> mean_abs(static_cast<std::size_t>(k), 0.0);
  std::vector<double> x2(static_cast<std::size_t>(k), 0.0);
  for (index_t t = 0; t < calib.rows(); ++t) {
    for (index_t i = 0; i < k; ++i) {
      const double x = calib(t, i);
      mean_abs[static_cast<std::size_t>(i)] += std::abs(x);
      x2[static_cast<std::size_t>(i)] += x * x;
    }
  }
  const double inv_t = 1.0 / static_cast<double>(calib.rows());
  for (index_t i = 0; i < k; ++i) {
    mean_abs[static_cast<std::size_t>(i)] =
        std::max(1e-8, mean_abs[static_cast<std::size_t>(i)] * inv_t);
    x2[static_cast<std::size_t>(i)] *= inv_t;
  }

  Matrix<float> scaled(k, n);
  AwqResult best;
  bool first = true;
  constexpr int kAlphaGrid = 20;  // alpha in {0, 1/grid, ..., 1}
  for (int step = 0; step <= kAlphaGrid; ++step) {
    const double alpha =
        static_cast<double>(step) / static_cast<double>(kAlphaGrid);
    // s_i = (mean|x_i|)^alpha, normalised to geometric mean 1 so the
    // overall weight magnitude (and thus group ranges) stays comparable.
    std::vector<float> s(static_cast<std::size_t>(k));
    double log_sum = 0.0;
    for (index_t i = 0; i < k; ++i) {
      log_sum += alpha * std::log(mean_abs[static_cast<std::size_t>(i)]);
    }
    const double norm = std::exp(log_sum / static_cast<double>(k));
    for (index_t i = 0; i < k; ++i) {
      s[static_cast<std::size_t>(i)] = static_cast<float>(
          std::pow(mean_abs[static_cast<std::size_t>(i)], alpha) / norm);
    }

    for (index_t i = 0; i < k; ++i) {
      for (index_t j = 0; j < n; ++j) {
        scaled(i, j) = w(i, j) * s[static_cast<std::size_t>(i)];
      }
    }
    auto q = quantize_asymmetric_grouped(scaled.view(), cfg);
    q.channel_scale = s;
    const double err = weighted_error(w, q, x2);
    if (first || err < best.weighted_error) {
      best.weights = std::move(q);
      best.alpha = alpha;
      best.weighted_error = err;
      first = false;
    }
  }
  return best;
}

}  // namespace marlin::quant
