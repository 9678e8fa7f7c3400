#include "reference_gptq.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "quant/uniform.hpp"

namespace marlin::quant::reference {

Matrix<double> cholesky_lower(const Matrix<double>& h) {
  const index_t n = h.rows();
  MARLIN_CHECK(h.cols() == n, "matrix must be square");
  Matrix<double> l(n, n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    double diag = h(j, j);
    for (index_t t = 0; t < j; ++t) diag -= l(j, t) * l(j, t);
    MARLIN_CHECK(diag > 0.0, "matrix not positive definite at pivot " << j);
    l(j, j) = std::sqrt(diag);
    for (index_t i = j + 1; i < n; ++i) {
      double s = h(i, j);
      for (index_t t = 0; t < j; ++t) s -= l(i, t) * l(j, t);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

Matrix<double> spd_inverse(const Matrix<double>& h) {
  const index_t n = h.rows();
  const Matrix<double> l = cholesky_lower(h);
  // Solve L Y = I, then L^T X = Y, column by column.
  Matrix<double> inv(n, n, 0.0);
  std::vector<double> y(static_cast<std::size_t>(n));
  for (index_t c = 0; c < n; ++c) {
    for (index_t i = 0; i < n; ++i) {
      double s = (i == c) ? 1.0 : 0.0;
      for (index_t t = 0; t < i; ++t) s -= l(i, t) * y[static_cast<std::size_t>(t)];
      y[static_cast<std::size_t>(i)] = s / l(i, i);
    }
    for (index_t i = n - 1; i >= 0; --i) {
      double s = y[static_cast<std::size_t>(i)];
      for (index_t t = i + 1; t < n; ++t) s -= l(t, i) * inv(t, c);
      inv(i, c) = s / l(i, i);
    }
  }
  return inv;
}

Matrix<double> upper_cholesky_of_inverse(const Matrix<double>& h) {
  const index_t n = h.rows();
  // H^{-1} = L L^T  =>  H^{-1} = U^T U with U = L^T (upper triangular).
  const Matrix<double> l = cholesky_lower(spd_inverse(h));
  Matrix<double> u(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) u(j, i) = l(i, j);
  }
  return u;
}

void add_gram_upper(ConstMatrixView<float> x, Matrix<double>& gram) {
  const index_t k = x.cols();
  MARLIN_CHECK(gram.rows() == k && gram.cols() == k, "gram must be K x K");
  for (index_t r = 0; r < x.rows(); ++r) {
    for (index_t i = 0; i < k; ++i) {
      const double xi = x(r, i);
      if (xi == 0.0) continue;
      for (index_t j = i; j < k; ++j) {
        gram(i, j) += xi * static_cast<double>(x(r, j));
      }
    }
  }
}

namespace {

/// Per-column scale over rows [g0, g1) of the working copy, optionally with
/// the §3.5 clipping-threshold search.
float group_scale(const Matrix<double>& w, index_t g0, index_t g1, index_t col,
                  const QuantConfig& cfg) {
  std::vector<float> vals;
  vals.reserve(static_cast<std::size_t>(g1 - g0));
  for (index_t i = g0; i < g1; ++i) {
    vals.push_back(static_cast<float>(w(i, col)));
  }
  if (!cfg.clip_search) return symmetric_scale(vals, cfg.bits, 1.0f);
  float best_s = symmetric_scale(vals, cfg.bits, 1.0f);
  double best_err = HUGE_VAL;
  for (float clip = 1.0f; clip >= 0.45f; clip -= 0.05f) {
    const float s_raw = symmetric_scale(vals, cfg.bits, clip);
    const float s = Half(s_raw).to_float();
    double err = 0.0;
    const int zero = 1 << (cfg.bits - 1);
    for (const float v : vals) {
      const int code = static_cast<int>(encode_symmetric(v, s, cfg.bits)) - zero;
      const double d = static_cast<double>(v) - static_cast<double>(code) * s;
      err += d * d;
    }
    if (err < best_err) {
      best_err = err;
      best_s = s_raw;
    }
  }
  return best_s;
}

}  // namespace

GptqResult gptq_quantize(ConstMatrixView<float> w,
                         const Matrix<double>& hessian,
                         const GptqConfig& cfg) {
  const index_t k = w.rows(), n = w.cols();
  MARLIN_CHECK(hessian.rows() == k && hessian.cols() == k,
               "hessian must be K x K");

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
    GptqConfig inner = cfg;
    inner.act_order = false;
    GptqResult permuted = reference::gptq_quantize(wp.view(), hp, inner);

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

  // Damping + dead-feature handling, exactly as in the reference GPTQ.
  Matrix<double> h = hessian;
  double mean_diag = 0.0;
  for (index_t i = 0; i < k; ++i) mean_diag += h(i, i);
  mean_diag /= static_cast<double>(k);
  MARLIN_CHECK(mean_diag > 0.0, "hessian has zero diagonal");
  const double lambda = cfg.damping * mean_diag;

  Matrix<double> work(k, n);
  for (index_t i = 0; i < k; ++i) {
    const bool dead = h(i, i) == 0.0;
    if (dead) h(i, i) = 1.0;
    h(i, i) += lambda;
    for (index_t j = 0; j < n; ++j) {
      work(i, j) = dead ? 0.0 : static_cast<double>(w(i, j));
    }
  }

  const Matrix<double> u = upper_cholesky_of_inverse(h);

  GptqResult res;
  res.weights = QuantizedWeights(k, n, cfg.quant);
  auto& q = res.weights;

  const index_t g =
      cfg.quant.group_size == kPerColumn ? k : cfg.quant.group_size;
  std::vector<float> scales_now(static_cast<std::size_t>(n), 1.0f);
  std::vector<double> err_row(static_cast<std::size_t>(n));

  for (index_t row = 0; row < k; ++row) {
    if (row % g == 0) {
      const index_t g1 = std::min(k, row + g);
      const index_t gi = cfg.quant.group_of_row(row);
      for (index_t j = 0; j < n; ++j) {
        const float s = group_scale(work, row, g1, j, cfg.quant);
        const Half sh(s);
        q.scales(gi, j) = sh;
        scales_now[static_cast<std::size_t>(j)] = sh.to_float();
      }
    }

    const double d = u(row, row);
    for (index_t j = 0; j < n; ++j) {
      const double wv = work(row, j);
      const float s = scales_now[static_cast<std::size_t>(j)];
      const std::uint8_t code =
          encode_symmetric(static_cast<float>(wv), s, cfg.quant.bits);
      q.codes(row, j) = code;
      const double dq =
          (static_cast<int>(code) - (1 << (cfg.quant.bits - 1))) *
          static_cast<double>(s);
      const double err = (wv - dq) / d;
      err_row[static_cast<std::size_t>(j)] = err;
      res.hessian_weighted_error += err * err;
    }

    // Propagate: W[row+1:, :] -= err ⊗ U[row, row+1:].
    for (index_t r = row + 1; r < k; ++r) {
      const double f = u(row, r);
      if (f == 0.0) continue;
      double* wr = &work(r, 0);
      for (index_t j = 0; j < n; ++j) {
        wr[j] -= err_row[static_cast<std::size_t>(j)] * f;
      }
    }
  }
  return res;
}

sparse::SparseGptResult sparsegpt_24_quantize(ConstMatrixView<float> w,
                                              const Matrix<double>& hessian,
                                              const GptqConfig& cfg) {
  const index_t k = w.rows(), n = w.cols();
  MARLIN_CHECK(k % 4 == 0, "K must be divisible by 4");
  MARLIN_CHECK(hessian.rows() == k && hessian.cols() == k,
               "hessian must be K x K");
  const index_t g =
      cfg.quant.group_size == kPerColumn ? k : cfg.quant.group_size;
  MARLIN_CHECK(g % 4 == 0 || cfg.quant.group_size == kPerColumn,
               "group size must align with 4-row sparsity blocks");

  // Damping as in GPTQ.
  Matrix<double> h = hessian;
  double mean_diag = 0.0;
  for (index_t i = 0; i < k; ++i) mean_diag += h(i, i);
  mean_diag /= static_cast<double>(k);
  MARLIN_CHECK(mean_diag > 0.0, "hessian has zero diagonal");
  for (index_t i = 0; i < k; ++i) h(i, i) += cfg.damping * mean_diag;
  const Matrix<double> u = upper_cholesky_of_inverse(h);

  Matrix<double> work(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) work(i, j) = w(i, j);
  }

  sparse::SparseGptResult res;
  res.weights = QuantizedWeights(k, n, cfg.quant);
  res.mask.keep = Matrix<std::uint8_t>(k, n, 0);
  auto& q = res.weights;

  std::vector<float> scales_now(static_cast<std::size_t>(n), 1.0f);
  std::vector<std::uint8_t> prune_row(static_cast<std::size_t>(n));
  std::vector<double> err_row(static_cast<std::size_t>(n));
  const int zero = 1 << (cfg.quant.bits - 1);

  for (index_t row = 0; row < k; ++row) {
    // Group scales from the compensated weights at group boundaries.
    if (row % g == 0) {
      const index_t g1 = std::min(k, row + g);
      const index_t gi = cfg.quant.group_of_row(row);
      std::vector<float> vals;
      for (index_t j = 0; j < n; ++j) {
        vals.clear();
        for (index_t i = row; i < g1; ++i) {
          vals.push_back(static_cast<float>(work(i, j)));
        }
        const Half sh(symmetric_scale(vals, cfg.quant.bits, 1.0f));
        q.scales(gi, j) = sh;
        scales_now[static_cast<std::size_t>(j)] = sh.to_float();
      }
    }

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
        const float s = scales_now[static_cast<std::size_t>(j)];
        const std::uint8_t code =
            encode_symmetric(static_cast<float>(wv), s, cfg.quant.bits);
        q.codes(row, j) = code;
        dq = (static_cast<int>(code) - zero) * static_cast<double>(s);
        res.mask.keep(row, j) = 1;
      }
      const double err = (wv - dq) / d;
      err_row[static_cast<std::size_t>(j)] = err;
      res.hessian_weighted_error += err * err;
    }

    for (index_t r = row + 1; r < k; ++r) {
      const double f = u(row, r);
      if (f == 0.0) continue;
      double* wr = &work(r, 0);
      for (index_t j = 0; j < n; ++j) {
        wr[j] -= err_row[static_cast<std::size_t>(j)] * f;
      }
    }
  }
  return res;
}

}  // namespace marlin::quant::reference
