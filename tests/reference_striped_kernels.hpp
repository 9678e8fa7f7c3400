#pragma once
// Test-only reference for the two functional kernels, `marlin_matmul` and
// `sparse_marlin_matmul`, as they stood when each kernel carried its own
// copy of the striped launch: tile-grid arithmetic, per-SM stripe
// execution, partial lookup and the serial bottom-to-top FP16 reduction
// (the sparse copy reducing with scalar Half conversions). Kept so the
// shared striped launch can be tested against it for bit-equal outputs
// and traffic counters.

#include "core/config.hpp"
#include "core/marlin_kernel.hpp"
#include "sparse/compressed.hpp"

namespace marlin::reference {

core::FunctionalResult marlin_matmul(
    ConstMatrixView<Half> a, const layout::MarlinWeights& b,
    const core::KernelConfig& cfg, int num_sms,
    const SimContext& ctx = SimContext::serial_context());

core::FunctionalResult sparse_marlin_matmul(
    ConstMatrixView<Half> a, const sparse::Sparse24Weights& b,
    const core::KernelConfig& cfg, int num_sms,
    const SimContext& ctx = SimContext::serial_context());

}  // namespace marlin::reference
