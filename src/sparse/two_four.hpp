#pragma once
// 2:4 structured sparsity (paper §4).
//
// The weight operand B (K x N, reduction dim K) is pruned so that every
// group of 4 consecutive K-elements of a column keeps exactly 2 non-zeros —
// the format Ampere Sparse Tensor Cores execute at 2x MMA throughput.

#include <cstdint>

#include "util/matrix.hpp"

namespace marlin::sparse {

/// keep(i, j) == 1 iff element (i, j) survives pruning; every aligned group
/// of 4 rows of a column has exactly two 1s.
struct SparseMask {
  Matrix<std::uint8_t> keep;

  [[nodiscard]] index_t rows() const { return keep.rows(); }
  [[nodiscard]] index_t cols() const { return keep.cols(); }
};

/// Magnitude pruning: keep the 2 largest |w| per group of 4.
SparseMask prune_24_magnitude(ConstMatrixView<float> w);

/// True iff every aligned 4-group of every column has exactly 2 non-zeros.
[[nodiscard]] bool is_valid_24(const SparseMask& mask);

/// W with pruned entries zeroed.
Matrix<float> apply_mask(ConstMatrixView<float> w, const SparseMask& mask);

}  // namespace marlin::sparse
