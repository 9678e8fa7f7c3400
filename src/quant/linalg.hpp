#pragma once
// Small dense linear algebra needed by GPTQ: Cholesky factorisation,
// triangular solves, SPD inverse, and the upper-Cholesky-of-inverse that
// GPTQ's error propagation uses.

#include "util/matrix.hpp"

namespace marlin::quant {

/// In: SPD matrix H (n x n). Out: lower-triangular L with L L^T = H.
/// Throws marlin::Error if H is not positive definite.
Matrix<double> cholesky_lower(const Matrix<double>& h);

/// Inverse of an SPD matrix via its Cholesky factorisation.
Matrix<double> spd_inverse(const Matrix<double>& h);

/// Upper-triangular U with U^T U = H^{-1}. GPTQ consumes row k of U:
/// the diagonal scales the quantisation error and the tail propagates it
/// into not-yet-quantised rows. Works in place in `h`'s storage: pass an
/// rvalue to avoid the copy.
Matrix<double> upper_cholesky_of_inverse(Matrix<double> h);

/// g += A^T A on the upper triangle (j >= i) for an m x n input, in
/// double: each entry adds the rows' products in row order, skipping zero
/// entries of A.
void add_gram_upper(ConstMatrixView<float> a, Matrix<double>& g);

/// C = A^T A for an m x n input (result n x n), accumulated in double.
Matrix<double> gram(ConstMatrixView<float> a);

}  // namespace marlin::quant
