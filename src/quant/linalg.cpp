#include "quant/linalg.hpp"

#include <algorithm>
#include <cmath>

#include "util/simd_ops.hpp"

namespace marlin::quant {

namespace {

/// Right-hand sides per pass of solve_columns (simd tri_solve8_f64).
constexpr index_t kRhs = 8;

/// Copies the lower triangle of `a` onto its upper triangle.
void mirror_lower(Matrix<double>& a) {
  const index_t n = a.rows();
  MARLIN_CHECK(a.cols() == n, "matrix must be square");
  for (index_t i = 1; i < n; ++i) {
    for (index_t j = 0; j < i; ++j) a(j, i) = a(i, j);
  }
}

/// In-place Cholesky on the upper triangle: on entry it holds the SPD
/// matrix H, on exit the factor R = L^T with R^T R = H. Every entry sees
/// the textbook left-looking loop's operations in the same order (one
/// subtraction per earlier pivot, ascending, then the divide), only
/// grouped by pivot so the inner loops run along rows: a panel of
/// kPanel pivots is finished first, then the rows below take the panel's
/// updates in one pass. The strict lower triangle is not touched.
void factor_upper(Matrix<double>& a) {
  constexpr index_t kPanel = 4;
  const index_t n = a.rows();
  for (index_t t0 = 0; t0 < n; t0 += kPanel) {
    const index_t t1 = std::min(n, t0 + kPanel);
    for (index_t t = t0; t < t1; ++t) {
      double* rt = &a(t, 0);
      MARLIN_CHECK(rt[t] > 0.0, "matrix not positive definite at pivot " << t);
      const double d = std::sqrt(rt[t]);
      rt[t] = d;
      for (index_t i = t + 1; i < n; ++i) rt[i] /= d;
      for (index_t j = t + 1; j < t1; ++j) {
        double* rj = &a(j, 0);
        for (index_t i = j; i < n; ++i) rj[i] -= rt[i] * rt[j];
      }
    }
    if (t1 - t0 < kPanel) break;  // the last pivots; no rows below
    const double* r0 = &a(t0, 0);
    const double* r1 = &a(t0 + 1, 0);
    const double* r2 = &a(t0 + 2, 0);
    const double* r3 = &a(t0 + 3, 0);
    for (index_t j = t1; j < n; ++j) {
      const double f0 = r0[j], f1 = r1[j], f2 = r2[j], f3 = r3[j];
      double* rj = &a(j, 0);
      for (index_t i = j; i < n; ++i) {
        double v = rj[i];
        v -= r0[i] * f0;
        v -= r1[i] * f1;
        v -= r2[i] * f2;
        v -= r3[i] * f3;
        rj[i] = v;
      }
    }
  }
}

/// Columns [c0, c0 + kRhs) of H^{-1} from the upper factor R = L^T (upper
/// triangle of `r`): solves L Y = I, then L^T X = Y, for rows [c0, n) of
/// X, into x (n x kRhs, row-major). Column c's entries keep the
/// operation order of the textbook per-column solve (one serial chain per
/// entry, read along R's rows): the forward solve starts at row c0,
/// because the rows above a unit vector's 1 stay +0 and subtracting a
/// finite ±0 product leaves a value unchanged.
void solve_columns(const Matrix<double>& r, index_t c0,
                   std::vector<double>& x) {
  const index_t n = r.rows();
  x.assign(static_cast<std::size_t>(n * kRhs), 0.0);
  for (index_t c = c0; c < std::min(n, c0 + kRhs); ++c) {
    x[static_cast<std::size_t>(c * kRhs + c - c0)] = 1.0;
  }
  simd::ops().tri_solve8_f64(static_cast<std::size_t>(n), r.data(),
                             static_cast<std::size_t>(c0),
                             static_cast<std::size_t>(c0), x.data());
}

}  // namespace

Matrix<double> upper_cholesky_of_inverse(Matrix<double> h) {
  const index_t n = h.rows();
  mirror_lower(h);
  factor_upper(h);
  // H^{-1} = L2 L2^T => U = L2^T. The second Cholesky reads only the
  // lower triangle of H^{-1}, so each column c is solved for rows i >= c
  // alone and stored as row c of the upper triangle. Rows [c0, c0 + kRhs)
  // of R are dead once their columns are solved, so they take the result.
  std::vector<double> x;
  for (index_t c0 = 0; c0 < n; c0 += kRhs) {
    solve_columns(h, c0, x);
    for (index_t c = c0; c < std::min(n, c0 + kRhs); ++c) {
      for (index_t i = c; i < n; ++i) {
        h(c, i) = x[static_cast<std::size_t>(i * kRhs + c - c0)];
      }
    }
  }
  factor_upper(h);
  for (index_t i = 1; i < n; ++i) {
    for (index_t j = 0; j < i; ++j) h(i, j) = 0.0;
  }
  return h;
}

void add_gram_upper(ConstMatrixView<float> a, Matrix<double>& g) {
  const index_t n = a.cols();
  MARLIN_CHECK(g.rows() == n && g.cols() == n, "gram must be n x n");
  // Rows of A go in blocks, so that row i of g takes a block's updates
  // while it is in L1; each entry still sums the rows in order.
  constexpr index_t kRowBlock = 16;
  const simd::Ops& o = simd::ops();
  for (index_t r0 = 0; r0 < a.rows(); r0 += kRowBlock) {
    const index_t r1 = std::min(a.rows(), r0 + kRowBlock);
    for (index_t i = 0; i < n; ++i) {
      for (index_t r = r0; r < r1; ++r) {
        const double ari = a(r, i);
        if (ari == 0.0) continue;
        o.axpy_f32_f64(static_cast<std::size_t>(n - i), ari, &a(r, i),
                       &g(i, i));
      }
    }
  }
}

}  // namespace marlin::quant
