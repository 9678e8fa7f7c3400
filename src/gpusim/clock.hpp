#pragma once
// Clock / thermal model.
//
// Paper Figures 10/11/13 distinguish three regimes: boost clock (short
// bursts), locked base clock (production "sustained" setting), and
// automatic thermal throttling under long compute-heavy kernels (the
// "Thermal Throttling" band of Figure 11, where measured FLOP/s decay from
// the boost-clock roof towards the base-clock roof).

#include "gpusim/device.hpp"

namespace marlin::gpusim {

enum class ClockMode {
  kBoost,        // short benchmark bursts, no throttling
  kLockedBase,   // `nvidia-smi -lgc` style locked base clock
  kAutoThermal,  // boost that decays under sustained compute load
};

struct ClockModel {
  ClockMode mode = ClockMode::kBoost;

  /// Effective SM clock for a kernel that keeps tensor pipes busy for
  /// `compute_busy_s` seconds (utilisation-weighted).
  [[nodiscard]] double effective_clock_ghz(const DeviceSpec& d,
                                           double compute_busy_s) const {
    // Thermal decay parameters for kAutoThermal: the clock approaches base
    // as accumulated compute-energy (utilisation-weighted busy seconds)
    // exceeds the thermal budget. Values chosen to move the knee of the
    // decay to kernels in the multi-millisecond range, as observed in paper
    // Figure 11 for large matrices at large batch.
    constexpr double kThermalBudgetS = 2e-3;
    constexpr double kThermalDecayS = 8e-3;
    switch (mode) {
      case ClockMode::kBoost:
        return d.boost_clock_ghz;
      case ClockMode::kLockedBase:
        return d.base_clock_ghz;
      case ClockMode::kAutoThermal: {
        if (compute_busy_s <= kThermalBudgetS) return d.boost_clock_ghz;
        const double over = compute_busy_s - kThermalBudgetS;
        const double f = over / (over + kThermalDecayS);  // in [0, 1)
        return d.boost_clock_ghz - f * (d.boost_clock_ghz - d.base_clock_ghz);
      }
    }
    return d.boost_clock_ghz;
  }
};

}  // namespace marlin::gpusim
