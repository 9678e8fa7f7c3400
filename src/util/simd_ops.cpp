#include "util/simd_ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/half.hpp"

namespace marlin::simd {

namespace detail {

// The 64207531 interleave of quant/pack.hpp: nibble_of_logical[i] is the
// nibble (0 = least significant) storing logical weight i. Duplicated here
// (util must not depend on quant); pinned against quant/pack.hpp by
// tests/test_simd_dispatch.cpp.
constexpr int kNibbleOfLogical[8] = {4, 0, 5, 1, 6, 2, 7, 3};

namespace {

void axpy_f32_scalar(std::size_t n, float a, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void add_f32_scalar(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void mul_f32_scalar(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void axpy_f32_f64_scalar(std::size_t n, double a, const float* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * static_cast<double>(x[i]);
}

void sub_scaled_rows_f64_scalar(std::size_t n, std::size_t rows,
                                const double* f, const double* e,
                                std::size_t ld, double* y) {
  for (std::size_t i = 0; i < rows; ++i) {
    if (f[i] == 0.0) continue;
    const double* ei = e + i * ld;
    for (std::size_t j = 0; j < n; ++j) y[j] -= ei[j] * f[i];
  }
}

void tri_solve8_f64_scalar(std::size_t n, const double* r, std::size_t c0,
                           std::size_t stop, double* x) {
  for (std::size_t t = c0; t < n; ++t) {
    const double* rt = r + t * n;
    double yt[8];
    for (std::size_t c = 0; c < 8; ++c) yt[c] = x[t * 8 + c] / rt[t];
    std::copy_n(yt, 8, x + t * 8);
    for (std::size_t i = t + 1; i < n; ++i) {
      const double l = rt[i];
      for (std::size_t c = 0; c < 8; ++c) x[i * 8 + c] -= l * yt[c];
    }
  }
  for (std::size_t i = n; i-- > stop;) {
    const double* ri = r + i * n;
    double s[8];
    std::copy_n(x + i * 8, 8, s);
    for (std::size_t t = i + 1; t < n; ++t) {
      for (std::size_t c = 0; c < 8; ++c) s[c] -= ri[t] * x[t * 8 + c];
    }
    for (std::size_t c = 0; c < 8; ++c) x[i * 8 + c] = s[c] / ri[i];
  }
}

float max_abs_f32_scalar(std::size_t n, const float* x) {
  float maxabs = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    maxabs = std::max(maxabs, std::abs(x[i]));
  }
  return maxabs;
}

void f16_to_f32_scalar(std::size_t n, const std::uint16_t* h, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = half_bits_to_float(h[i]);
}

void f32_to_f16_scalar(std::size_t n, const float* f, std::uint16_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = float_to_half_bits(f[i]);
}

void f16_accum_f32_scalar(std::size_t n, const float* v, std::uint16_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = float_to_half_bits(half_bits_to_float(out[i]) + v[i]);
  }
}

bool pack_u4_scalar(std::size_t groups, const std::uint8_t* codes,
                    std::uint32_t* out) {
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint8_t* c = codes + g * 8;
    std::uint32_t reg = 0;
    for (int i = 0; i < 8; ++i) {
      if (c[i] >= 16) return false;
      reg |= static_cast<std::uint32_t>(c[i]) << (4 * kNibbleOfLogical[i]);
    }
    out[g] = reg;
  }
  return true;
}

void dequant_u4_planes_scalar(std::size_t nregs, const std::uint32_t* regs,
                              float* out) {
  for (int p = 0; p < 8; ++p) {
    float* plane = out + static_cast<std::size_t>(p) * nregs;
    for (std::size_t i = 0; i < nregs; ++i) {
      plane[i] =
          static_cast<float>((regs[i] >> (4 * p)) & 0xfu) - 8.0f;
    }
  }
}

void encode_symmetric_scalar(std::size_t n, const float* v, float scale,
                             int bits, std::uint8_t* out) {
  // Mirrors quant::encode_symmetric exactly (pinned by tests).
  const int zero = 1 << (bits - 1);
  const int lo = -zero, hi = zero - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const int code = std::clamp(
        static_cast<int>(std::nearbyint(v[i] / scale)), lo, hi);
    out[i] = static_cast<std::uint8_t>(code + zero);
  }
}

Ops make_scalar_table() {
  Ops t;
  t.level = Level::kScalar;
  t.axpy_f32 = axpy_f32_scalar;
  t.add_f32 = add_f32_scalar;
  t.mul_f32 = mul_f32_scalar;
  t.axpy_f32_f64 = axpy_f32_f64_scalar;
  t.sub_scaled_rows_f64 = sub_scaled_rows_f64_scalar;
  t.tri_solve8_f64 = tri_solve8_f64_scalar;
  t.max_abs_f32 = max_abs_f32_scalar;
  t.f16_to_f32 = f16_to_f32_scalar;
  t.f32_to_f16 = f32_to_f16_scalar;
  t.f16_accum_f32 = f16_accum_f32_scalar;
  t.pack_u4_interleaved = pack_u4_scalar;
  t.dequant_u4_planes = dequant_u4_planes_scalar;
  t.encode_symmetric = encode_symmetric_scalar;
  return t;
}

}  // namespace

// Implemented by the per-ISA translation units (absent entries keep the
// inherited implementation).
#if defined(MARLIN_HAVE_AVX2_TU)
void apply_avx2_overrides(Ops& t);
#endif
#if defined(MARLIN_HAVE_AVX512_TU)
void apply_avx512_overrides(Ops& t);
#endif

}  // namespace detail

const Ops& ops_for(Level level) {
  static const Ops scalar = detail::make_scalar_table();
#if defined(MARLIN_HAVE_AVX2_TU)
  static const Ops avx2 = [] {
    Ops t = scalar;
    t.level = Level::kAvx2;
    detail::apply_avx2_overrides(t);
    return t;
  }();
#endif
#if defined(MARLIN_HAVE_AVX512_TU)
  static const Ops avx512 = [] {
#if defined(MARLIN_HAVE_AVX2_TU)
    Ops t = avx2;
#else
    Ops t = scalar;
#endif
    t.level = Level::kAvx512;
    detail::apply_avx512_overrides(t);
    return t;
  }();
#endif
  switch (level) {
    case Level::kAvx512:
#if defined(MARLIN_HAVE_AVX512_TU)
      return avx512;
#endif
      [[fallthrough]];
    case Level::kAvx2:
#if defined(MARLIN_HAVE_AVX2_TU)
      return avx2;
#endif
      [[fallthrough]];
    case Level::kScalar:
      break;
  }
  return scalar;
}

const Ops& ops() { return ops_for(active_level()); }

}  // namespace marlin::simd
