#pragma once
// FP16 dense GEMM baseline — what PyTorch dispatches to CUTLASS
// (paper Figures 1/9/10/12/13 measure speedup *over this*).

#include "baselines/kernel_model.hpp"
#include "util/half.hpp"
#include "util/matrix.hpp"

namespace marlin::baselines {

/// Streaming efficiency of a tuned GEMM (also the ideal bounds').
inline constexpr double kFp16MemEfficiency = 0.92;
/// CUTLASS tensor-core utilisation (also the ideal bounds').
inline constexpr double kFp16TcEfficiency = 0.95;

class Fp16CutlassModel final : public KernelModel {
 public:
  [[nodiscard]] std::string name() const override { return "fp16"; }
  [[nodiscard]] gpusim::KernelEstimate estimate(
      const core::MatmulProblem& p, const gpusim::DeviceSpec& d,
      const gpusim::ClockModel& clock) const override;
};

/// Functional FP16 GEMM with FP32 accumulation (reference baseline for the
/// functional kernel tests and the quickstart example).
Matrix<Half> fp16_gemm(ConstMatrixView<Half> a, ConstMatrixView<Half> b);

}  // namespace marlin::baselines
