#pragma once
// Functional Sparse-MARLIN kernel (paper §4).
//
// The CUDA kernel reformulates A*B as (B^T A^T)^T so the sparse operand
// sits on the LHS of mma.sp; functionally the product is unchanged, so the
// host simulation computes C = A * decompress(B) directly — but it does so
// by emulating the *SPTC operand selection*: for every group of 4 original
// reduction rows only the two metadata-addressed A elements are read and
// multiplied with the two stored non-zero codes. Striping and the serial
// FP16 lock-buffer reduction run on the dense kernel's `run_striped`;
// traffic accounting mirrors the dense kernel, and the compressed stream
// moves 0.75x the dense INT4 bytes.

#include "core/config.hpp"
#include "core/marlin_kernel.hpp"
#include "sparse/compressed.hpp"

namespace marlin::core {

FunctionalResult sparse_marlin_matmul(
    ConstMatrixView<Half> a, const sparse::Sparse24Weights& b,
    const KernelConfig& cfg, int num_sms,
    const SimContext& ctx = SimContext::serial_context());

}  // namespace marlin::core
