#include "eval/synthetic.hpp"

#include <cmath>
#include <vector>

namespace marlin::eval {

namespace {
constexpr double kWeightTailDof = 5.0;  // Student-t dof for weights
constexpr double kWeightScale = 0.02;   // base std-dev
// Log-normal sigma of the per-column weight scales.
constexpr double kColumnScaleSigma = 0.3;
constexpr double kFeatureCorr = 0.6;  // AR(1) rho across the K features
}  // namespace

SyntheticLayer make_synthetic_layer(index_t k, index_t n, index_t tokens,
                                    std::uint64_t seed,
                                    double feature_scale_sigma) {
  Rng rng(seed);
  SyntheticLayer layer;
  layer.w = Matrix<float>(k, n);
  layer.calib = Matrix<float>(tokens, k);

  std::vector<double> col_scale(static_cast<std::size_t>(n));
  for (auto& s : col_scale) {
    s = kWeightScale * std::exp(kColumnScaleSigma * rng.normal());
  }
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      layer.w(i, j) = static_cast<float>(
          col_scale[static_cast<std::size_t>(j)] *
          rng.student_t(kWeightTailDof));
    }
  }

  // Per-feature magnitudes (activation "outlier channels").
  std::vector<double> feat_scale(static_cast<std::size_t>(k));
  for (auto& s : feat_scale) {
    s = std::exp(feature_scale_sigma * rng.normal());
  }
  // AR(1) across the feature axis makes the Hessian strongly off-diagonal.
  const double rho = kFeatureCorr;
  const double noise = std::sqrt(1.0 - rho * rho);
  for (index_t t = 0; t < tokens; ++t) {
    double prev = rng.normal();
    layer.calib(t, 0) =
        static_cast<float>(prev * feat_scale[0]);
    for (index_t f = 1; f < k; ++f) {
      prev = rho * prev + noise * rng.normal();
      layer.calib(t, f) =
          static_cast<float>(prev * feat_scale[static_cast<std::size_t>(f)]);
    }
  }
  return layer;
}

}  // namespace marlin::eval
