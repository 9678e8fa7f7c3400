#pragma once
// Quantized-weight containers shared by RTN, GPTQ, the repack pipeline and
// the kernels.
//
// Orientation convention (paper §3.4): the weight operand B is K x N —
// K the input (reduction) dimension, N the output dimension. MARLIN uses
// *symmetric* INT4: stored codes are in [0, 15] and decode as (code - 8) *
// scale, with one FP16 scale per column (group_size == kPerColumn) or one
// per G consecutive weights of a column.

#include <cstdint>

#include "util/error.hpp"
#include "util/half.hpp"
#include "util/matrix.hpp"

namespace marlin::quant {

inline constexpr index_t kPerColumn = -1;

struct QuantConfig {
  int bits = 4;
  index_t group_size = 128;  // kPerColumn for one scale per column
  /// Paper §3.5 (a): search a per-group clipping threshold instead of
  /// using plain max-abs scaling.
  bool clip_search = false;

  /// Throws marlin::Error unless bits is in [2, 8] and group_size is
  /// positive or kPerColumn.
  void validate() const {
    MARLIN_CHECK(bits >= 2 && bits <= 8,
                 "quantization bits must be in [2, 8], got " << bits);
    MARLIN_CHECK(group_size > 0 || group_size == kPerColumn,
                 "group size must be positive or per-column, got "
                     << group_size);
  }

  [[nodiscard]] index_t groups_for(index_t k) const {
    return group_size == kPerColumn ? 1 : (k + group_size - 1) / group_size;
  }
  [[nodiscard]] index_t group_of_row(index_t row) const {
    return group_size == kPerColumn ? 0 : row / group_size;
  }
};

/// Unpacked (one code per byte) quantized weights; the layout module turns
/// this into the packed, tile-reshuffled MARLIN format.
struct QuantizedWeights {
  index_t k = 0;
  index_t n = 0;
  QuantConfig cfg;
  Matrix<std::uint8_t> codes;  // K x N, values in [0, 2^bits)
  Matrix<Half> scales;         // groups x N
  /// Act-order (GPTQ `desc_act`) support: group_index[row] overrides the
  /// default row -> group mapping. Empty for standard checkpoints. The
  /// MARLIN repack refuses non-empty mappings — like the real kernel, the
  /// format needs act-order checkpoints converted (rows re-permuted) first.
  std::vector<index_t> group_index;

  QuantizedWeights() = default;
  QuantizedWeights(index_t k_, index_t n_, QuantConfig cfg_)
      : k(k_), n(n_), cfg(cfg_), codes(k_, n_), scales(cfg_.groups_for(k_), n_) {}

  [[nodiscard]] index_t num_groups() const { return cfg.groups_for(k); }

  [[nodiscard]] index_t group_of(index_t row) const {
    return group_index.empty() ? cfg.group_of_row(row)
                               : group_index[static_cast<std::size_t>(row)];
  }

  /// Decoded value of element (row, col).
  [[nodiscard]] float decode(index_t row, index_t col) const {
    const int zero = 1 << (cfg.bits - 1);
    const float s = scales(group_of(row), col).to_float();
    return (static_cast<int>(codes(row, col)) - zero) * s;
  }

  /// Full dequantised matrix (reference path for tests and baselines).
  [[nodiscard]] Matrix<float> dequantize() const {
    Matrix<float> out(k, n);
    for (index_t i = 0; i < k; ++i) {
      for (index_t j = 0; j < n; ++j) out(i, j) = decode(i, j);
    }
    return out;
  }

  /// Model storage footprint in bits per weight, incl. group scales
  /// (paper Fig. 6 x-axis: 4-bit g=128 -> 4.125 bits/weight).
  [[nodiscard]] double bits_per_weight() const {
    const double scale_bits =
        16.0 * static_cast<double>(num_groups()) * static_cast<double>(n);
    return cfg.bits + scale_bits / (static_cast<double>(k) * static_cast<double>(n));
  }
};

}  // namespace marlin::quant
