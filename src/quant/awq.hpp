#pragma once
// AWQ-format support (paper §6: "since the original release of our kernel
// for the GPTQ format, a version of MARLIN supporting AWQ has been
// introduced independently in vLLM").
//
// AWQ (Lin et al., 2023) protects activation-salient weight channels by
// scaling input channels with s_i = E|x_i|^alpha before *asymmetric*
// grouped quantization; at inference the inverse scale folds into the
// preceding operation. This module implements:
//   * asymmetric grouped INT4 quantization (scales + integer zero points),
//   * the activation-aware channel-scale search over alpha,
// and layout/repack.hpp grows an AWQ repack that carries packed zero
// points through the MARLIN tile format (what vLLM's awq-marlin does).

#include "quant/qweights.hpp"
#include "util/matrix.hpp"

namespace marlin::quant {

/// Asymmetric grouped weights: decode(i, j) = (code - zero) * scale.
/// When produced by AWQ, the stored codes quantize the *channel-scaled*
/// weights W'[i, :] = W[i, :] * channel_scale[i]; the caller divides
/// activations by channel_scale (as real deployments fold it upstream).
struct AsymmetricQuantizedWeights {
  index_t k = 0;
  index_t n = 0;
  QuantConfig cfg;
  Matrix<std::uint8_t> codes;  // K x N in [0, 2^bits)
  Matrix<Half> scales;         // groups x N
  Matrix<std::uint8_t> zeros;  // groups x N, integer zero points
  std::vector<float> channel_scale;  // size K; empty => all ones

  AsymmetricQuantizedWeights() = default;
  AsymmetricQuantizedWeights(index_t k_, index_t n_, QuantConfig cfg_)
      : k(k_),
        n(n_),
        cfg(cfg_),
        codes(k_, n_),
        scales(cfg_.groups_for(k_), n_),
        zeros(cfg_.groups_for(k_), n_) {}

  /// Decoded value of the *scaled* weight W'.
  [[nodiscard]] float decode_scaled(index_t row, index_t col) const {
    const index_t g = cfg.group_of_row(row);
    return (static_cast<int>(codes(row, col)) -
            static_cast<int>(zeros(g, col))) *
           scales(g, col).to_float();
  }
  /// Effective weight of the original W (channel scale divided back out).
  [[nodiscard]] float decode(index_t row, index_t col) const {
    const float cs = channel_scale.empty()
                         ? 1.0f
                         : channel_scale[static_cast<std::size_t>(row)];
    return decode_scaled(row, col) / cs;
  }
  [[nodiscard]] Matrix<float> dequantize() const {
    Matrix<float> out(k, n);
    for (index_t i = 0; i < k; ++i) {
      for (index_t j = 0; j < n; ++j) out(i, j) = decode(i, j);
    }
    return out;
  }
};

/// Plain asymmetric grouped round-to-nearest quantization (the paper's
/// §2.2 formula applied per group and column).
AsymmetricQuantizedWeights quantize_asymmetric_grouped(
    ConstMatrixView<float> w, const QuantConfig& cfg);

struct AwqResult {
  AsymmetricQuantizedWeights weights;
  double alpha = 0;
  /// Activation-second-moment-weighted reconstruction error of the chosen
  /// scaling (the objective the alpha search minimises).
  double weighted_error = 0;
};

/// Activation-aware quantization: search the channel-scale exponent alpha
/// in {0, 1/20, ..., 1} minimising E_x ||x W - x_hat W_hat||^2 under a
/// diagonal activation model, then quantize the scaled weights
/// asymmetrically under `cfg`.
AwqResult awq_quantize(ConstMatrixView<float> w, ConstMatrixView<float> calib,
                       const QuantConfig& cfg);

}  // namespace marlin::quant
