#include "sparse/two_four.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"

namespace marlin::sparse {

SparseMask prune_24_magnitude(ConstMatrixView<float> w) {
  const index_t k = w.rows(), n = w.cols();
  MARLIN_CHECK(k % 4 == 0, "K must be divisible by 4 for 2:4 sparsity");
  SparseMask mask;
  mask.keep = Matrix<std::uint8_t>(k, n, 0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t g = 0; g < k; g += 4) {
      std::array<std::pair<double, int>, 4> scored;
      for (int t = 0; t < 4; ++t) {
        scored[static_cast<std::size_t>(t)] = {std::abs(w(g + t, j)), t};
      }
      std::sort(scored.begin(), scored.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      mask.keep(g + scored[0].second, j) = 1;
      mask.keep(g + scored[1].second, j) = 1;
    }
  }
  return mask;
}

bool is_valid_24(const SparseMask& mask) {
  const index_t k = mask.rows(), n = mask.cols();
  if (k % 4 != 0) return false;
  for (index_t j = 0; j < n; ++j) {
    for (index_t g = 0; g < k; g += 4) {
      int kept = 0;
      for (int t = 0; t < 4; ++t) kept += mask.keep(g + t, j);
      if (kept != 2) return false;
    }
  }
  return true;
}

Matrix<float> apply_mask(ConstMatrixView<float> w, const SparseMask& mask) {
  MARLIN_CHECK(w.rows() == mask.rows() && w.cols() == mask.cols(),
               "shape mismatch");
  Matrix<float> out(w.rows(), w.cols());
  for (index_t i = 0; i < w.rows(); ++i) {
    for (index_t j = 0; j < w.cols(); ++j) {
      out(i, j) = mask.keep(i, j) ? w(i, j) : 0.0f;
    }
  }
  return out;
}

}  // namespace marlin::sparse
