#pragma once
// W4A8 extension: INT4 weights x INT8 activations on the INT8 tensor cores
// (paper §6, the QQQ follow-up). Integer MMAs accumulate in INT32; group
// scales and the per-token activation scale are applied at the FP32
// epilogue, exactly like the QQQ kernel's two-level scheme.

#include "quant/int8_act.hpp"
#include "quant/qweights.hpp"

namespace marlin::core {

/// Functional W4A8 matmul: INT32 accumulation per scale group, FP32
/// epilogue. Output FP16 (like MARLIN). Test-only until bench_ext_w4a8
/// runs it: W4A8.MatmulMatchesFloatReferenceWithinQuantNoise checks it.
Matrix<Half> w4a8_matmul(const quant::Int8Activations& a,
                         const quant::QuantizedWeights& b);

}  // namespace marlin::core
