#pragma once
// Problem descriptor shared by all kernel models: C[M,N] = A[M,K] * B[K,N],
// A in FP16, B quantized (and possibly 2:4 sparse), C in FP16.

#include "quant/qweights.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"

namespace marlin::core {

struct MatmulProblem {
  index_t m = 0;  // batch (tokens)
  index_t k = 0;  // reduction dim
  index_t n = 0;  // output dim
  /// Scale granularity of B: quant::kPerColumn or a positive group size.
  index_t group_size = 128;
  /// B additionally stored in the 2:4 sparse format.
  bool sparse24 = false;
  /// Stored weight precision (4 = INT4; 2/3/8 for the "extreme
  /// compression" extension of paper §7).
  int weight_bits = 4;
  /// Activation precision: 16 (FP16) or 8 (the W4A8 / QQQ follow-up of
  /// paper §6, which runs MMAs on the INT8 tensor cores at 2x rate).
  int activation_bits = 16;

  /// Throws marlin::Error unless m, k and n are all >= 1 and group_size is
  /// positive or quant::kPerColumn (the rule of QuantConfig::validate).
  void validate() const {
    MARLIN_CHECK(m >= 1 && k >= 1 && n >= 1,
                 "empty problem: m " << m << ", k " << k << ", n " << n);
    MARLIN_CHECK(group_size > 0 || group_size == quant::kPerColumn,
                 "group size must be positive or per-column, got "
                     << group_size);
  }

  [[nodiscard]] double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
           static_cast<double>(n);
  }
  /// mma.sync granularity: compute cost is paid in 16-row steps.
  [[nodiscard]] index_t m_padded() const { return (m + 15) / 16 * 16; }

  /// Stored bits per weight of B (incl. FP16 group scales; 2-bit metadata
  /// for the sparse format).
  [[nodiscard]] double weight_bits_per_element() const {
    const double scale_bits =
        group_size == quant::kPerColumn
            ? 16.0 / static_cast<double>(k)
            : 16.0 / static_cast<double>(group_size);
    const double wb = static_cast<double>(weight_bits);
    if (!sparse24) return wb + scale_bits;
    return wb * 0.5 + 1.0 + scale_bits;  // codes on half + 4b meta / 4 elems
  }
  [[nodiscard]] double weight_bytes() const {
    return weight_bits_per_element() / 8.0 * static_cast<double>(k) *
           static_cast<double>(n);
  }
  [[nodiscard]] double a_bytes() const {
    return activation_bits / 8.0 * static_cast<double>(m) *
           static_cast<double>(k);
  }
  [[nodiscard]] double c_bytes() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n);
  }
};

}  // namespace marlin::core
