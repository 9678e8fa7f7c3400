#include "core/w4a8.hpp"

#include <algorithm>

namespace marlin::core {

Matrix<Half> w4a8_matmul(const quant::Int8Activations& a,
                         const quant::QuantizedWeights& b) {
  const index_t m = a.rows(), k = a.cols(), n = b.n;
  MARLIN_CHECK(k == b.k, "inner dims mismatch");
  MARLIN_CHECK(b.cfg.bits == 4, "weights must be INT4");

  const index_t g =
      b.cfg.group_size == quant::kPerColumn ? k : b.cfg.group_size;
  Matrix<Half> c(m, n);
  for (index_t i = 0; i < m; ++i) {
    const float a_scale = a.row_scale[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < n; ++j) {
      // INT32 accumulation within each scale group; FP32 across groups.
      double acc = 0.0;
      for (index_t g0 = 0; g0 < k; g0 += g) {
        const index_t g1 = std::min(k, g0 + g);
        std::int64_t acc32 = 0;
        for (index_t t = g0; t < g1; ++t) {
          acc32 += static_cast<std::int64_t>(a.q(i, t)) *
                   (static_cast<int>(b.codes(t, j)) - 8);
        }
        acc += static_cast<double>(acc32) *
               b.scales(b.cfg.group_of_row(g0), j).to_float();
      }
      c(i, j) = Half(static_cast<float>(acc * a_scale));
    }
  }
  return c;
}

}  // namespace marlin::core
