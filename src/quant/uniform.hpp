#pragma once
// Uniform quantization primitives: the symmetric round-to-nearest (RTN)
// quantizer that produces MARLIN-format weights. The paper's §2.2
// asymmetric min-max quantizer, with an FP16 scale and an integer zero
// point per group, is quant::quantize_asymmetric_grouped (quant/awq.hpp).

#include <span>

#include "quant/qweights.hpp"
#include "util/matrix.hpp"

namespace marlin::quant {

/// Symmetric scale for a group: s = max|v| / (2^(b-1) - 1), so the code
/// range [-(2^(b-1)-1), 2^(b-1)-1] covers the data. `clip` in (0, 1]
/// shrinks the scale (clipping outliers), which the §3.5 search sweeps.
float symmetric_scale(std::span<const float> v, int bits, float clip = 1.0f);

/// Encode one value against a symmetric scale: clamp(round(v/s), -8, 7)+8
/// for 4 bits. Returns the stored code in [0, 2^b).
std::uint8_t encode_symmetric(float v, float scale, int bits);

/// Paper §3.5 (a): the scale clip * max|v| / (2^(b-1) - 1) whose FP16
/// value gives the smallest squared reconstruction error of the group,
/// over clip = 1.0, 0.95, ..., 0.45. A scale whose error is NaN (its FP16
/// value overflowed) never wins; if none is finite, the clip = 1 scale.
float search_clipped_scale(std::span<const float> v, int bits);

/// The scale of one group: search_clipped_scale with cfg.clip_search,
/// else symmetric_scale(v, cfg.bits).
float group_scale(std::span<const float> v, const QuantConfig& cfg);

/// Round-to-nearest quantization of a K x N weight matrix into MARLIN's
/// symmetric grouped format. If cfg.clip_search is set, per-group clipping
/// thresholds are chosen by minimising the group's squared reconstruction
/// error over a small grid (paper §3.5 modification (a)).
QuantizedWeights quantize_rtn(ConstMatrixView<float> w, const QuantConfig& cfg);

}  // namespace marlin::quant
