#pragma once
// Ideal roofline bounds — the "Ideal" / "Ideal Dense" / "Ideal Sparse"
// reference lines of paper Figures 1, 10, 12 and 13.
//
// An ideal kernel moves exactly the mandatory bytes and executes exactly
// the (16-row-padded) MMAs with the *same* streaming/TC efficiencies as the
// FP16 CUTLASS baseline — so "ideal INT4 / ideal FP16" equals the storage
// ratio 16 / 4.125 = 3.879x in the memory-bound regime, exactly the
// asymptote the paper quotes.

#include "baselines/kernel_model.hpp"

namespace marlin::baselines {

class IdealModel final : public KernelModel {
 public:
  /// bits_mode: 16 (dense FP16), 4 (INT4+scales), 3 (INT4+2:4).
  IdealModel(std::string name, double weight_bits, bool sparse)
      : name_(std::move(name)), weight_bits_(weight_bits), sparse_(sparse) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] gpusim::KernelEstimate estimate(
      const core::MatmulProblem& p, const gpusim::DeviceSpec& d,
      const gpusim::ClockModel& clock) const override;

 private:
  std::string name_;
  double weight_bits_;
  bool sparse_;
};

/// Factory helpers with the paper's exact storage overheads at group 128.
KernelModelPtr ideal_dense_fp16();
KernelModelPtr ideal_int4_g128();
KernelModelPtr ideal_sparse_int4_g128();

}  // namespace marlin::baselines
