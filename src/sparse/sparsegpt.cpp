#include "sparse/sparsegpt.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "quant/uniform.hpp"

namespace marlin::sparse {

SparseGptResult sparsegpt_24_quantize(ConstMatrixView<float> w,
                                      const Matrix<double>& hessian,
                                      const quant::GptqConfig& cfg) {
  using quant::encode_symmetric;
  using quant::kPerColumn;

  const index_t k = w.rows(), n = w.cols();
  MARLIN_CHECK(k % 4 == 0, "K must be divisible by 4");
  MARLIN_CHECK(hessian.rows() == k && hessian.cols() == k,
               "hessian must be K x K");
  cfg.quant.validate();
  MARLIN_CHECK(cfg.quant.group_size == kPerColumn ||
                   cfg.quant.group_size % 4 == 0,
               "group size must align with 4-row sparsity blocks");

  // GPTQ's damping, without its dead-row rule.
  const Matrix<double> u =
      quant::damped_inverse_factor(hessian, cfg.damping, nullptr);
  Matrix<double> work(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) work(i, j) = w(i, j);
  }

  SparseGptResult res;
  res.weights = quant::QuantizedWeights(k, n, cfg.quant);
  res.mask.keep = Matrix<std::uint8_t>(k, n, 0);
  auto& q = res.weights;

  std::vector<std::uint8_t> prune_row(static_cast<std::size_t>(n));
  const int zero = 1 << (cfg.quant.bits - 1);
  // Group scales are plain max-abs; SparseGPT-lite does not clip-search.
  quant::QuantConfig scale_cfg = cfg.quant;
  scale_cfg.clip_search = false;

  // K and the group size are multiples of 4, so the solve's batches end on
  // 4-row boundaries and the saliency look-ahead over rows row..row+3
  // reads updated values.
  quant::gptq_solve(work, u, scale_cfg, q, [&](index_t row, const float* scales,
                                                double* err) {
    // At 4-row block starts, decide which 2 of the next 4 rows each column
    // prunes, using OBS saliency on the compensated values.
    if (row % 4 == 0) {
      for (index_t j = 0; j < n; ++j) {
        std::array<std::pair<double, int>, 4> sal;
        for (int t = 0; t < 4; ++t) {
          const double wv = work(row + t, j);
          const double d = u(row + t, row + t);
          sal[static_cast<std::size_t>(t)] = {wv * wv / (d * d), t};
        }
        std::sort(sal.begin(), sal.end());
        // Two smallest saliencies are pruned.
        std::uint8_t pruned = 0;
        pruned |= static_cast<std::uint8_t>(1u << sal[0].second);
        pruned |= static_cast<std::uint8_t>(1u << sal[1].second);
        prune_row[static_cast<std::size_t>(j)] = pruned;
      }
    }

    const double d = u(row, row);
    const int t_in_block = static_cast<int>(row % 4);
    for (index_t j = 0; j < n; ++j) {
      const double wv = work(row, j);
      const bool prune =
          (prune_row[static_cast<std::size_t>(j)] >> t_in_block) & 1u;
      double dq;
      if (prune) {
        q.codes(row, j) = static_cast<std::uint8_t>(zero);  // exact zero
        dq = 0.0;
      } else {
        const float s = scales[j];
        const std::uint8_t code =
            encode_symmetric(static_cast<float>(wv), s, cfg.quant.bits);
        q.codes(row, j) = code;
        dq = (static_cast<int>(code) - zero) * static_cast<double>(s);
        res.mask.keep(row, j) = 1;
      }
      err[j] = (wv - dq) / d;
      res.hessian_weighted_error += err[j] * err[j];
    }
  });
  return res;
}

}  // namespace marlin::sparse
