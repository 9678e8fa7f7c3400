#include "eval/metrics.hpp"

#include <cmath>

#include "util/error.hpp"

namespace marlin::eval {

double layer_output_nmse(ConstMatrixView<float> w,
                         ConstMatrixView<float> w_hat,
                         ConstMatrixView<float> calib) {
  MARLIN_CHECK(w.rows() == w_hat.rows() && w.cols() == w_hat.cols(),
               "weight shapes differ");
  MARLIN_CHECK(calib.cols() == w.rows(), "calib width must equal K");
  double num = 0.0, den = 0.0;
  std::vector<double> y(static_cast<std::size_t>(w.cols()));
  std::vector<double> e(static_cast<std::size_t>(w.cols()));
  for (index_t t = 0; t < calib.rows(); ++t) {
    std::fill(y.begin(), y.end(), 0.0);
    std::fill(e.begin(), e.end(), 0.0);
    for (index_t i = 0; i < w.rows(); ++i) {
      const double x = calib(t, i);
      if (x == 0.0) continue;
      for (index_t j = 0; j < w.cols(); ++j) {
        const double wij = w(i, j);
        y[static_cast<std::size_t>(j)] += x * wij;
        e[static_cast<std::size_t>(j)] += x * (wij - w_hat(i, j));
      }
    }
    for (index_t j = 0; j < w.cols(); ++j) {
      num += e[static_cast<std::size_t>(j)] * e[static_cast<std::size_t>(j)];
      den += y[static_cast<std::size_t>(j)] * y[static_cast<std::size_t>(j)];
    }
  }
  return den > 0 ? num / den : 0.0;
}

std::vector<double> layer_output_nmse_sweep(
    const SimContext& ctx, ConstMatrixView<float> w,
    const std::vector<Matrix<float>>& w_hats, ConstMatrixView<float> calib) {
  std::vector<double> out(w_hats.size());
  ctx.parallel_for(0, static_cast<std::int64_t>(w_hats.size()),
                   [&](std::int64_t i) {
                     out[static_cast<std::size_t>(i)] = layer_output_nmse(
                         w, w_hats[static_cast<std::size_t>(i)].view(),
                         calib);
                   });
  return out;
}

}  // namespace marlin::eval
