#pragma once
// Synthetic LLM layer generator (substitution for real checkpoints +
// calibration text — see DESIGN.md §1).
//
// Weights are heavy-tailed (Student-t) with log-normal per-column scale
// diversity; calibration activations have an AR(1)-style feature
// correlation plus log-normal per-feature magnitudes, reproducing the two
// properties that make LLM quantization non-trivial: outlier features and
// strongly non-diagonal Hessians (which is exactly what GPTQ exploits over
// RTN).

#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace marlin::eval {

struct SyntheticLayer {
  Matrix<float> w;      // K x N weights
  Matrix<float> calib;  // tokens x K calibration activations
};

/// `feature_scale_sigma` is the log-normal sigma of the per-feature
/// activation magnitudes: larger values give heavier outlier channels.
SyntheticLayer make_synthetic_layer(index_t k, index_t n, index_t tokens,
                                    std::uint64_t seed,
                                    double feature_scale_sigma = 0.8);

}  // namespace marlin::eval
