#pragma once
// GPTQ (Frantar et al., 2022) post-training quantization, in the MARLIN
// variant the paper describes in §3.5:
//   (a) per-group scales chosen by searching clipping thresholds
//       (QuantConfig::clip_search), and
//   (b) calibration sequences of variable length (HessianAccumulator
//       accepts any number of rows per call).
//
// Orientation: the weight operand is K x N (reduction dim x outputs); the
// Hessian H = 2 X^T X is K x K, built from calibration activations X
// (tokens x K). Rows are quantized top-to-bottom; the quantisation error of
// row k is propagated into the remaining rows through row k of the upper
// Cholesky factor U of H^{-1} (the classic GPTQ update).

#include <cstdint>
#include <functional>
#include <vector>

#include "quant/linalg.hpp"
#include "quant/qweights.hpp"

namespace marlin::quant {

struct GptqConfig {
  QuantConfig quant;
  /// Diagonal damping as a fraction of mean(diag(H)) ("percdamp").
  double damping = 0.01;
  /// GPTQ `desc_act`: quantize rows in order of decreasing Hessian
  /// diagonal so the most activation-salient rows are handled first, while
  /// later (error-compensated) rows absorb their residuals. The result
  /// carries QuantizedWeights::group_index and must be converted before
  /// the MARLIN repack (the real kernel has the same restriction).
  bool act_order = false;
};

struct GptqResult {
  QuantizedWeights weights;
  /// Sum over all elements of ((w - q) / U_kk)^2 — proportional to the
  /// increase in expected layer-output MSE under the calibration
  /// distribution; the eval module maps this to the perplexity proxy.
  double hessian_weighted_error = 0.0;
};

/// Accumulates H = 2 X^T X over calibration sequences of arbitrary length
/// (paper §3.5 modification (b)).
class HessianAccumulator {
 public:
  explicit HessianAccumulator(index_t k);

  /// x: tokens x K activations of one calibration sequence (any #tokens).
  void add_sequence(ConstMatrixView<float> x);

  [[nodiscard]] index_t dim() const { return k_; }
  [[nodiscard]] index_t num_tokens() const { return tokens_; }
  /// Mean-normalised Hessian 2/N * X^T X.
  [[nodiscard]] Matrix<double> hessian() const;

 private:
  index_t k_;
  index_t tokens_ = 0;
  Matrix<double> gram_;
};

/// Upper Cholesky factor U of the damped inverse Hessian (H + λI)^{-1},
/// with GPTQ's "percdamp" λ = damping * mean(diag H). With `dead`
/// non-null, a row whose diagonal is 0 (an input feature that never
/// fired) gets H_ii = 1 before damping and is flagged in *dead, as in
/// reference GPTQ; the caller zeroes its weights.
Matrix<double> damped_inverse_factor(Matrix<double> h, double damping,
                                     std::vector<std::uint8_t>* dead);

/// Quantizes row `row` of the working weights against the current group
/// scales (FP16 values as floats, one per column): stores its codes and
/// writes each column's scaled error (w - q) / U_rr into err.
using RowQuantizer =
    std::function<void(index_t row, const float* scales, double* err)>;

/// The GPTQ solve shared by GPTQ and SparseGPT-lite. Walks the rows of
/// `work` (K x N) top to bottom: at each group start of `scale_cfg` it
/// sets the group's FP16 scales in `q` from the group's current,
/// error-compensated values; it quantizes each row with `quantize_row`
/// and subtracts err ⊗ U[row, row+1:] from the rows below.
///
/// Rows run in lazy batches (GPTQ paper §4, "lazy batch-updates"):
/// blocks of at most 128 rows split into sub-blocks of at most 16, none
/// of which splits a group after its first row. A row's errors reach the
/// rest of its sub-block at once, the rest of its block after the
/// sub-block, and the rows below after the block, column tile by column
/// tile. Every element still receives its updates in row order, so the
/// result equals the row-at-a-time loop bit for bit. When K and the group
/// size are multiples of 4, every batch ends on a 4-row boundary, so a
/// look-ahead over rows row..row+3 at row % 4 == 0 reads updated values.
void gptq_solve(Matrix<double>& work, const Matrix<double>& u,
                const QuantConfig& scale_cfg, QuantizedWeights& q,
                const RowQuantizer& quantize_row);

/// Quantize W (K x N) given a calibration Hessian (K x K).
GptqResult gptq_quantize(ConstMatrixView<float> w,
                         const Matrix<double>& hessian,
                         const GptqConfig& cfg);

inline GptqResult gptq_quantize(ConstMatrixView<float> w,
                                const HessianAccumulator& acc,
                                const GptqConfig& cfg) {
  return gptq_quantize(w, acc.hessian(), cfg);
}

}  // namespace marlin::quant
