#include "quant/gptq.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "quant/uniform.hpp"
#include "util/simd_ops.hpp"

namespace marlin::quant {

HessianAccumulator::HessianAccumulator(index_t k) : k_(k), gram_(k, k, 0.0) {
  MARLIN_CHECK(k > 0, "hessian dim must be positive");
}

void HessianAccumulator::add_sequence(ConstMatrixView<float> x) {
  MARLIN_CHECK(x.cols() == k_, "activation width " << x.cols()
                                                   << " != hessian dim " << k_);
  add_gram_upper(x, gram_);
  tokens_ += x.rows();
}

Matrix<double> HessianAccumulator::hessian() const {
  MARLIN_CHECK(tokens_ > 0, "no calibration data accumulated");
  Matrix<double> h(k_, k_, 0.0);
  const double norm = 2.0 / static_cast<double>(tokens_);
  for (index_t i = 0; i < k_; ++i) {
    for (index_t j = i; j < k_; ++j) {
      h(i, j) = gram_(i, j) * norm;
      h(j, i) = h(i, j);
    }
  }
  return h;
}

Matrix<double> damped_inverse_factor(Matrix<double> h, double damping,
                                     std::vector<std::uint8_t>* dead) {
  const index_t k = h.rows();
  double mean_diag = 0.0;
  for (index_t i = 0; i < k; ++i) mean_diag += h(i, i);
  mean_diag /= static_cast<double>(k);
  MARLIN_CHECK(mean_diag > 0.0, "hessian has zero diagonal");
  const double lambda = damping * mean_diag;
  if (dead != nullptr) dead->assign(static_cast<std::size_t>(k), 0);
  for (index_t i = 0; i < k; ++i) {
    if (dead != nullptr && h(i, i) == 0.0) {
      (*dead)[static_cast<std::size_t>(i)] = 1;
      h(i, i) = 1.0;
    }
    h(i, i) += lambda;
  }
  return upper_cholesky_of_inverse(std::move(h));
}

namespace {

/// Rows per lazy-batch block and per sub-block, and columns per tile of a
/// deferred update (a 128 x 128 error tile is 128 KiB, so it stays in L2
/// while the rows below stream past it).
constexpr index_t kBlockRows = 128;
constexpr index_t kSubBlockRows = 16;
constexpr index_t kTileCols = 128;
/// Columns whose group values are gathered together for the scale search.
constexpr index_t kScaleCols = 16;

/// FP16 scales of the group at rows [g0, g1) from the current values of
/// `work`, into q.scales and (as floats) scales_now.
void set_group_scales(const Matrix<double>& work, index_t g0, index_t g1,
                      const QuantConfig& cfg, QuantizedWeights& q,
                      std::vector<float>& scales_now,
                      std::vector<float>& vals) {
  const index_t n = work.cols(), len = g1 - g0;
  const index_t gi = cfg.group_of_row(g0);
  vals.resize(static_cast<std::size_t>(kScaleCols * len));
  for (index_t j0 = 0; j0 < n; j0 += kScaleCols) {
    const index_t cols = std::min(kScaleCols, n - j0);
    for (index_t i = g0; i < g1; ++i) {
      const double* wr = &work(i, j0);
      for (index_t c = 0; c < cols; ++c) {
        vals[static_cast<std::size_t>(c * len + i - g0)] =
            static_cast<float>(wr[c]);
      }
    }
    for (index_t c = 0; c < cols; ++c) {
      const std::span<const float> v(vals.data() + c * len,
                                     static_cast<std::size_t>(len));
      const Half sh(group_scale(v, cfg));
      q.scales(gi, j0 + c) = sh;
      scales_now[static_cast<std::size_t>(j0 + c)] = sh.to_float();
    }
  }
}

}  // namespace

void gptq_solve(Matrix<double>& work, const Matrix<double>& u,
                const QuantConfig& scale_cfg, QuantizedWeights& q,
                const RowQuantizer& quantize_row) {
  const index_t k = work.rows(), n = work.cols();
  const index_t g =
      scale_cfg.group_size == kPerColumn ? k : scale_cfg.group_size;
  std::vector<float> scales_now(static_cast<std::size_t>(n), 1.0f);
  std::vector<float> vals;
  std::vector<double> err(
      static_cast<std::size_t>(std::min(k, kBlockRows) * n));
  std::vector<double> f(static_cast<std::size_t>(kBlockRows));
  const simd::Ops& o = simd::ops();
  index_t b0 = 0;  // the block whose errors `err` holds

  // The end of a batch of at most `rows` rows from `start`, before
  // `limit`. A group must not straddle it, or the group's scale would read
  // rows that still lack the batch's updates.
  const auto batch_end = [&](index_t start, index_t rows, index_t limit) {
    const index_t end = std::min(limit, start + rows);
    return end < limit && end - end % g > start ? end - end % g : end;
  };
  // Subtracts err ⊗ U[i, r] for rows i in [i0, i1) from rows r in
  // [r0, r1), column tile by column tile; each element takes its updates
  // in row order, skipping zero factors.
  const auto propagate = [&](index_t i0, index_t i1, index_t r0, index_t r1) {
    const auto rows = static_cast<std::size_t>(i1 - i0);
    for (index_t j0 = 0; j0 < n; j0 += kTileCols) {
      const auto cols = static_cast<std::size_t>(std::min(kTileCols, n - j0));
      const double* e = &err[static_cast<std::size_t>((i0 - b0) * n + j0)];
      for (index_t r = r0; r < r1; ++r) {
        for (index_t i = i0; i < i1; ++i) {
          f[static_cast<std::size_t>(i - i0)] = u(i, r);
        }
        o.sub_scaled_rows_f64(cols, rows, f.data(), e,
                              static_cast<std::size_t>(n), &work(r, j0));
      }
    }
  };

  while (b0 < k) {
    const index_t b1 = batch_end(b0, kBlockRows, k);
    for (index_t s0 = b0; s0 < b1;) {
      const index_t s1 = batch_end(s0, kSubBlockRows, b1);
      for (index_t row = s0; row < s1; ++row) {
        if (row % g == 0) {
          set_group_scales(work, row, std::min(k, row + g), scale_cfg, q,
                           scales_now, vals);
        }
        quantize_row(row, scales_now.data(),
                     &err[static_cast<std::size_t>((row - b0) * n)]);
        propagate(row, row + 1, row + 1, s1);
      }
      propagate(s0, s1, s1, b1);
      s0 = s1;
    }
    propagate(b0, b1, b1, k);
    b0 = b1;
  }
}

namespace {

/// GPTQ over the rows in their given order; consumes the Hessian copy.
GptqResult quantize_in_order(ConstMatrixView<float> w, Matrix<double> hessian,
                             const GptqConfig& cfg) {
  const index_t k = w.rows(), n = w.cols();
  std::vector<std::uint8_t> dead;
  const Matrix<double> u =
      damped_inverse_factor(std::move(hessian), cfg.damping, &dead);
  Matrix<double> work(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      work(i, j) = dead[static_cast<std::size_t>(i)]
                       ? 0.0
                       : static_cast<double>(w(i, j));
    }
  }

  GptqResult res;
  res.weights = QuantizedWeights(k, n, cfg.quant);
  auto& q = res.weights;
  const int bits = cfg.quant.bits, zero = 1 << (bits - 1);
  gptq_solve(work, u, cfg.quant, q,
             [&](index_t row, const float* scales, double* err) {
               const double d = u(row, row);
               for (index_t j = 0; j < n; ++j) {
                 const double wv = work(row, j);
                 const float s = scales[j];
                 const std::uint8_t code =
                     encode_symmetric(static_cast<float>(wv), s, bits);
                 q.codes(row, j) = code;
                 const double dq =
                     (static_cast<int>(code) - zero) * static_cast<double>(s);
                 err[j] = (wv - dq) / d;
                 res.hessian_weighted_error += err[j] * err[j];
               }
             });
  return res;
}

}  // namespace

GptqResult gptq_quantize(ConstMatrixView<float> w,
                         const Matrix<double>& hessian,
                         const GptqConfig& cfg) {
  const index_t k = w.rows(), n = w.cols();
  MARLIN_CHECK(hessian.rows() == k && hessian.cols() == k,
               "hessian must be K x K");
  cfg.quant.validate();

  if (cfg.act_order) {
    // desc_act: process rows by decreasing Hessian diagonal. Permute W and
    // H, run the standard algorithm, then scatter codes back to the
    // original row order, recording each row's scale group.
    std::vector<index_t> perm(static_cast<std::size_t>(k));
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&](index_t a, index_t b) {
      return hessian(a, a) > hessian(b, b);
    });

    Matrix<float> wp(k, n);
    Matrix<double> hp(k, k);
    for (index_t i = 0; i < k; ++i) {
      const index_t pi = perm[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < n; ++j) wp(i, j) = w(pi, j);
      for (index_t j = 0; j < k; ++j) {
        hp(i, j) = hessian(pi, perm[static_cast<std::size_t>(j)]);
      }
    }
    GptqResult permuted = quantize_in_order(wp.view(), std::move(hp), cfg);

    GptqResult res;
    res.hessian_weighted_error = permuted.hessian_weighted_error;
    res.weights = QuantizedWeights(k, n, cfg.quant);
    res.weights.scales = std::move(permuted.weights.scales);
    res.weights.group_index.resize(static_cast<std::size_t>(k));
    for (index_t i = 0; i < k; ++i) {
      const index_t pi = perm[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < n; ++j) {
        res.weights.codes(pi, j) = permuted.weights.codes(i, j);
      }
      res.weights.group_index[static_cast<std::size_t>(pi)] =
          cfg.quant.group_of_row(i);
    }
    return res;
  }
  return quantize_in_order(w, hessian, cfg);
}

}  // namespace marlin::quant
