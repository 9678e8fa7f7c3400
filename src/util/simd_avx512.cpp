// AVX-512 (F/BW/VL/DQ) overrides for the simd::Ops table. Compiled with
// per-file ISA flags (src/CMakeLists.txt); only the kernels that benefit
// from 512-bit lanes are overridden — everything else (the nibble pack,
// the quantisation loops) is inherited from the AVX2 table.
//
// Same bit-identity rules as simd_avx2.cpp: separate multiply and add
// instructions, no reassociated ordered reductions (max is the only fold
// vectorized, and max is order-insensitive), FP16 conversions via the
// IEEE-correct VCVTPH2PS/VCVTPS2PH.

#if defined(MARLIN_HAVE_AVX512_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/half.hpp"
#include "util/simd_ops.hpp"

namespace marlin::simd::detail {

namespace {

constexpr int kRoundNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

void axpy_f32_avx512(std::size_t n, float a, const float* x, float* y) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 prod = _mm512_mul_ps(va, _mm512_loadu_ps(x + i));
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void add_f32_avx512(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void mul_f32_avx512(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void axpy_f32_f64_avx512(std::size_t n, double a, const float* x, double* y) {
  const __m512d va = _mm512_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d xd = _mm512_cvtps_pd(_mm256_loadu_ps(x + i));
    const __m512d prod = _mm512_mul_pd(va, xd);
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * static_cast<double>(x[i]);
}

// As the AVX2 kernel: y's columns stay in registers across the rows.
void sub_scaled_rows_f64_avx512(std::size_t n, std::size_t rows,
                                const double* f, const double* e,
                                std::size_t ld, double* y) {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m512d y0 = _mm512_loadu_pd(y + j), y1 = _mm512_loadu_pd(y + j + 8);
    __m512d y2 = _mm512_loadu_pd(y + j + 16), y3 = _mm512_loadu_pd(y + j + 24);
    for (std::size_t i = 0; i < rows; ++i) {
      if (f[i] == 0.0) continue;
      const __m512d vf = _mm512_set1_pd(f[i]);
      const double* ei = e + i * ld + j;
      y0 = _mm512_sub_pd(y0, _mm512_mul_pd(_mm512_loadu_pd(ei), vf));
      y1 = _mm512_sub_pd(y1, _mm512_mul_pd(_mm512_loadu_pd(ei + 8), vf));
      y2 = _mm512_sub_pd(y2, _mm512_mul_pd(_mm512_loadu_pd(ei + 16), vf));
      y3 = _mm512_sub_pd(y3, _mm512_mul_pd(_mm512_loadu_pd(ei + 24), vf));
    }
    _mm512_storeu_pd(y + j, y0);
    _mm512_storeu_pd(y + j + 8, y1);
    _mm512_storeu_pd(y + j + 16, y2);
    _mm512_storeu_pd(y + j + 24, y3);
  }
  for (; j < n; j += 8) {
    const __mmask8 m =
        n - j >= 8 ? 0xFF : static_cast<__mmask8>((1u << (n - j)) - 1);
    __m512d y0 = _mm512_maskz_loadu_pd(m, y + j);
    for (std::size_t i = 0; i < rows; ++i) {
      if (f[i] == 0.0) continue;
      y0 = _mm512_sub_pd(
          y0, _mm512_mul_pd(_mm512_maskz_loadu_pd(m, e + i * ld + j),
                            _mm512_set1_pd(f[i])));
    }
    _mm512_mask_storeu_pd(y + j, m, y0);
  }
}

// The 8 right-hand sides of a row are one register.
void tri_solve8_f64_avx512(std::size_t n, const double* r, std::size_t c0,
                           std::size_t stop, double* x) {
  for (std::size_t t = c0; t < n; ++t) {
    const double* rt = r + t * n;
    const __m512d yt =
        _mm512_div_pd(_mm512_loadu_pd(x + t * 8), _mm512_set1_pd(rt[t]));
    _mm512_storeu_pd(x + t * 8, yt);
    for (std::size_t i = t + 1; i < n; ++i) {
      double* xi = x + i * 8;
      _mm512_storeu_pd(xi, _mm512_sub_pd(_mm512_loadu_pd(xi),
                                         _mm512_mul_pd(_mm512_set1_pd(rt[i]),
                                                       yt)));
    }
  }
  for (std::size_t i = n; i-- > stop;) {
    const double* ri = r + i * n;
    __m512d s = _mm512_loadu_pd(x + i * 8);
    for (std::size_t t = i + 1; t < n; ++t) {
      s = _mm512_sub_pd(s, _mm512_mul_pd(_mm512_set1_pd(ri[t]),
                                         _mm512_loadu_pd(x + t * 8)));
    }
    _mm512_storeu_pd(x + i * 8, _mm512_div_pd(s, _mm512_set1_pd(ri[i])));
  }
}

float max_abs_f32_avx512(std::size_t n, const float* x) {
  __m512 vmax = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vmax = _mm512_max_ps(vmax, _mm512_abs_ps(_mm512_loadu_ps(x + i)));
  }
  float maxabs = _mm512_reduce_max_ps(vmax);
  for (; i < n; ++i) maxabs = std::max(maxabs, std::abs(x[i]));
  return maxabs;
}

void f16_to_f32_avx512(std::size_t n, const std::uint16_t* h, float* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + i));
    _mm512_storeu_ps(out + i, _mm512_cvtph_ps(bits));
  }
  for (; i < n; ++i) out[i] = half_bits_to_float(h[i]);
}

void f32_to_f16_avx512(std::size_t n, const float* f, std::uint16_t* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i bits =
        _mm512_cvtps_ph(_mm512_loadu_ps(f + i), kRoundNearest);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), bits);
  }
  for (; i < n; ++i) out[i] = float_to_half_bits(f[i]);
}

void f16_accum_f32_avx512(std::size_t n, const float* v, std::uint16_t* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
    const __m512 sum =
        _mm512_add_ps(_mm512_cvtph_ps(bits), _mm512_loadu_ps(v + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtps_ph(sum, kRoundNearest));
  }
  for (; i < n; ++i) {
    out[i] = float_to_half_bits(half_bits_to_float(out[i]) + v[i]);
  }
}

void dequant_u4_planes_avx512(std::size_t nregs, const std::uint32_t* regs,
                              float* out) {
  const __m512i mask = _mm512_set1_epi32(0xf);
  const __m512 eight = _mm512_set1_ps(8.0f);
  for (int p = 0; p < 8; ++p) {
    float* plane = out + static_cast<std::size_t>(p) * nregs;
    std::size_t i = 0;
    for (; i + 16 <= nregs; i += 16) {
      const __m512i r =
          _mm512_loadu_si512(reinterpret_cast<const void*>(regs + i));
      const __m512i nib =
          _mm512_and_si512(_mm512_srli_epi32(r, static_cast<unsigned>(4 * p)),
                           mask);
      _mm512_storeu_ps(plane + i,
                       _mm512_sub_ps(_mm512_cvtepi32_ps(nib), eight));
    }
    for (; i < nregs; ++i) {
      plane[i] = static_cast<float>((regs[i] >> (4 * p)) & 0xfu) - 8.0f;
    }
  }
}

}  // namespace

void apply_avx512_overrides(Ops& t) {
  t.axpy_f32 = axpy_f32_avx512;
  t.add_f32 = add_f32_avx512;
  t.mul_f32 = mul_f32_avx512;
  t.axpy_f32_f64 = axpy_f32_f64_avx512;
  t.sub_scaled_rows_f64 = sub_scaled_rows_f64_avx512;
  t.tri_solve8_f64 = tri_solve8_f64_avx512;
  t.max_abs_f32 = max_abs_f32_avx512;
  t.f16_to_f32 = f16_to_f32_avx512;
  t.f32_to_f16 = f32_to_f16_avx512;
  t.f16_accum_f32 = f16_accum_f32_avx512;
  t.dequant_u4_planes = dequant_u4_planes_avx512;
}

}  // namespace marlin::simd::detail

#endif  // MARLIN_HAVE_AVX512_TU
