#pragma once
// Layer-quality metrics used by the Fig. 6 / Table 1 reproductions.

#include <vector>

#include "util/matrix.hpp"
#include "util/sim_context.hpp"

namespace marlin::eval {

/// Normalised layer-output error ||X (W - W_hat)||_F^2 / ||X W||_F^2 —
/// the quantity GPTQ minimises (expected over the calibration set).
[[nodiscard]] double layer_output_nmse(ConstMatrixView<float> w,
                                       ConstMatrixView<float> w_hat,
                                       ConstMatrixView<float> calib);

/// layer_output_nmse for a batch of candidate reconstructions against the
/// same reference — the hot loop of the Fig. 6 / Table 1 quality sweeps —
/// fanned out on the context, results in candidate order.
[[nodiscard]] std::vector<double> layer_output_nmse_sweep(
    const SimContext& ctx, ConstMatrixView<float> w,
    const std::vector<Matrix<float>>& w_hats, ConstMatrixView<float> calib);

}  // namespace marlin::eval
