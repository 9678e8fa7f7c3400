#include "quant/uniform.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/simd_ops.hpp"

namespace marlin::quant {

float symmetric_scale(std::span<const float> v, int bits, float clip) {
  MARLIN_CHECK(clip > 0.0f && clip <= 1.0f, "clip must be in (0,1]");
  const float maxabs = simd::ops().max_abs_f32(v.size(), v.data());
  const float levels = static_cast<float>((1 << (bits - 1)) - 1);  // 7 for b=4
  const float s = clip * maxabs / levels;
  return s > 0 ? s : 1.0f;
}

std::uint8_t encode_symmetric(float v, float scale, int bits) {
  const int zero = 1 << (bits - 1);
  const int lo = -zero, hi = zero - 1;
  const int code = std::clamp(
      static_cast<int>(std::nearbyint(v / scale)), lo, hi);
  return static_cast<std::uint8_t>(code + zero);
}

float search_clipped_scale(std::span<const float> v, int bits) {
  const simd::Ops& o = simd::ops();
  const float maxabs = o.max_abs_f32(v.size(), v.data());
  const float levels = static_cast<float>((1 << (bits - 1)) - 1);
  const int zero = 1 << (bits - 1);
  const auto scale_at = [&](float clip) {
    const float s = clip * maxabs / levels;  // symmetric_scale(v, bits, clip)
    return s > 0 ? s : 1.0f;
  };
  std::vector<std::uint8_t> codes(v.size());
  float best_s = scale_at(1.0f);
  // Starting from +inf (not from the clip = 1 error) lets a finite scale
  // win when the unclipped one overflows FP16 and its error is NaN.
  double best_err = HUGE_VAL;
  for (float clip = 1.0f; clip >= 0.45f; clip -= 0.05f) {
    const float s_raw = scale_at(clip);
    // Scored at the FP16 value the kernel will actually multiply with.
    const float s = Half(s_raw).to_float();
    o.encode_symmetric(v.size(), v.data(), s, bits, codes.data());
    double err = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const int code = static_cast<int>(codes[i]) - zero;
      const double d =
          static_cast<double>(v[i]) - static_cast<double>(code) * s;
      err += d * d;
    }
    if (err < best_err) {
      best_err = err;
      best_s = s_raw;
    }
  }
  return best_s;
}

float group_scale(std::span<const float> v, const QuantConfig& cfg) {
  return cfg.clip_search ? search_clipped_scale(v, cfg.bits)
                         : symmetric_scale(v, cfg.bits, 1.0f);
}

QuantizedWeights quantize_rtn(ConstMatrixView<float> w,
                              const QuantConfig& cfg) {
  const index_t k = w.rows(), n = w.cols();
  MARLIN_CHECK(k > 0 && n > 0, "empty weight matrix");
  cfg.validate();
  QuantizedWeights q(k, n, cfg);

  const index_t g = cfg.group_size == kPerColumn ? k : cfg.group_size;
  std::vector<float> col_group;
  col_group.reserve(static_cast<std::size_t>(g));
  std::vector<std::uint8_t> enc(static_cast<std::size_t>(g));
  const simd::Ops& o = simd::ops();

  for (index_t j = 0; j < n; ++j) {
    for (index_t g0 = 0; g0 < k; g0 += g) {
      const index_t g1 = std::min(k, g0 + g);
      col_group.clear();
      for (index_t i = g0; i < g1; ++i) col_group.push_back(w(i, j));

      const Half sh(group_scale(col_group, cfg));
      q.scales(cfg.group_of_row(g0), j) = sh;
      o.encode_symmetric(col_group.size(), col_group.data(), sh.to_float(),
                         cfg.bits, enc.data());
      for (index_t i = g0; i < g1; ++i) {
        q.codes(i, j) = enc[static_cast<std::size_t>(i - g0)];
      }
    }
  }
  return q;
}

}  // namespace marlin::quant
