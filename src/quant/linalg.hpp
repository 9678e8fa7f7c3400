#pragma once
// Small dense linear algebra needed by GPTQ: the upper-Cholesky-of-inverse
// that GPTQ's error propagation uses, and the Gram (Hessian) accumulation.

#include "util/matrix.hpp"

namespace marlin::quant {

/// Upper-triangular U with U^T U = H^{-1}. GPTQ consumes row k of U:
/// the diagonal scales the quantisation error and the tail propagates it
/// into not-yet-quantised rows. Throws marlin::Error if H is not positive
/// definite. Works in place in `h`'s storage: pass an rvalue to avoid the
/// copy.
Matrix<double> upper_cholesky_of_inverse(Matrix<double> h);

/// g += A^T A on the upper triangle (j >= i) for an m x n input, in
/// double: each entry adds the rows' products in row order, skipping zero
/// entries of A.
void add_gram_upper(ConstMatrixView<float> a, Matrix<double>& g);

}  // namespace marlin::quant
