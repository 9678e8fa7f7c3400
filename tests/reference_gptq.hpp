#pragma once
// Test-only reference for the GPTQ solve: `gptq_quantize`,
// `sparsegpt_24_quantize`, the Hessian Gram accumulation and the dense
// linear algebra under them, as they stood when every quantized row
// propagated its error into all later rows at once, the inverse was a
// full column-by-column solve and each GPTQ group ran its own copy of the
// clip search. Kept deliberately simple so the optimized solve can be
// tested against it for bit-equal codes, scales and errors.
//
// Written only against the public quant/ and sparse/ API plus the scalar
// `symmetric_scale` / `encode_symmetric` primitives.

#include "quant/gptq.hpp"
#include "sparse/sparsegpt.hpp"

namespace marlin::quant::reference {

/// Left-looking Cholesky: lower-triangular L with L L^T = H.
Matrix<double> cholesky_lower(const Matrix<double>& h);

/// Full inverse of an SPD matrix: forward then back solve per column.
Matrix<double> spd_inverse(const Matrix<double>& h);

/// Upper U with U^T U = H^{-1}, via cholesky_lower(spd_inverse(H)).
Matrix<double> upper_cholesky_of_inverse(const Matrix<double>& h);

/// gram += X^T X on the upper triangle (j >= i), one activation row at a
/// time, skipping zero activations — HessianAccumulator::add_sequence.
void add_gram_upper(ConstMatrixView<float> x, Matrix<double>& gram);

/// GPTQ with immediate (per-row) error propagation.
GptqResult gptq_quantize(ConstMatrixView<float> w,
                         const Matrix<double>& hessian,
                         const GptqConfig& cfg);

/// SparseGPT-lite joint 2:4 pruning + quantization, same propagation.
sparse::SparseGptResult sparsegpt_24_quantize(ConstMatrixView<float> w,
                                              const Matrix<double>& hessian,
                                              const GptqConfig& cfg);

}  // namespace marlin::quant::reference
