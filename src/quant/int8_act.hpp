#pragma once
// Per-token INT8 activation quantization for the W4A8 extension
// (paper §6: "recent independent follow-up to MARLIN extended our approach
// to the case where activations are quantized to 8 bits, while weights are
// quantized to 4 bits" — QQQ, Zhang et al. 2024).
//
// Each token (row) gets one FP32 scale = max|x| / 127; symmetric codes in
// [-127, 127]. Per-token scaling is the standard choice because activation
// outliers are token-local.

#include <cstdint>
#include <vector>

#include "util/half.hpp"
#include "util/matrix.hpp"

namespace marlin::quant {

struct Int8Activations {
  Matrix<std::int8_t> q;          // tokens x K
  std::vector<float> row_scale;   // per token

  [[nodiscard]] index_t rows() const { return q.rows(); }
  [[nodiscard]] index_t cols() const { return q.cols(); }
  [[nodiscard]] float decode(index_t i, index_t j) const {
    return static_cast<float>(q(i, j)) *
           row_scale[static_cast<std::size_t>(i)];
  }
};

/// Test-only with w4a8_matmul: W4A8.ActivationRoundTripBound checks it.
Int8Activations quantize_activations_int8(ConstMatrixView<Half> a);

/// Reference dequantisation (for error-bound tests).
Matrix<float> dequantize_activations(const Int8Activations& a);

}  // namespace marlin::quant
