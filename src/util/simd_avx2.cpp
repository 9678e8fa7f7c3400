// AVX2 (+FMA +F16C) overrides for the simd::Ops table. This translation
// unit is compiled with -mavx2 -mfma -mf16c -ffp-contract=off (per-file,
// see src/CMakeLists.txt) — the rest of the library stays baseline x86-64
// so the binary starts on any CPU and only *calls* into here after the
// runtime probe (util/cpuid.cpp) says it may.
//
// Bit-identity rules (see util/simd_ops.hpp): multiplies and adds stay
// separate instructions (no vfmadd — FMA is enabled only because the F16C
// tier requires it on real CPUs), reductions are never reassociated, and
// -ffp-contract=off keeps the scalar tail loops honest too.

#if defined(MARLIN_HAVE_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/half.hpp"
#include "util/simd_ops.hpp"

namespace marlin::simd::detail {

namespace {

// 64207531 interleave (quant/pack.hpp); local copy, pinned by tests.
constexpr int kNib[8] = {4, 0, 5, 1, 6, 2, 7, 3};

constexpr int kRoundNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

void axpy_f32_avx2(std::size_t n, float a, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void add_f32_avx2(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void mul_f32_avx2(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void axpy_f32_f64_avx2(std::size_t n, double a, const float* x, double* y) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xd = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d prod = _mm256_mul_pd(va, xd);
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * static_cast<double>(x[i]);
}

// y's columns stay in registers while every error row goes past, so each
// y element is loaded and stored once per call.
void sub_scaled_rows_f64_avx2(std::size_t n, std::size_t rows,
                              const double* f, const double* e,
                              std::size_t ld, double* y) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256d y0 = _mm256_loadu_pd(y + j), y1 = _mm256_loadu_pd(y + j + 4);
    __m256d y2 = _mm256_loadu_pd(y + j + 8), y3 = _mm256_loadu_pd(y + j + 12);
    for (std::size_t i = 0; i < rows; ++i) {
      if (f[i] == 0.0) continue;
      const __m256d vf = _mm256_set1_pd(f[i]);
      const double* ei = e + i * ld + j;
      y0 = _mm256_sub_pd(y0, _mm256_mul_pd(_mm256_loadu_pd(ei), vf));
      y1 = _mm256_sub_pd(y1, _mm256_mul_pd(_mm256_loadu_pd(ei + 4), vf));
      y2 = _mm256_sub_pd(y2, _mm256_mul_pd(_mm256_loadu_pd(ei + 8), vf));
      y3 = _mm256_sub_pd(y3, _mm256_mul_pd(_mm256_loadu_pd(ei + 12), vf));
    }
    _mm256_storeu_pd(y + j, y0);
    _mm256_storeu_pd(y + j + 4, y1);
    _mm256_storeu_pd(y + j + 8, y2);
    _mm256_storeu_pd(y + j + 12, y3);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d y0 = _mm256_loadu_pd(y + j);
    for (std::size_t i = 0; i < rows; ++i) {
      if (f[i] == 0.0) continue;
      y0 = _mm256_sub_pd(y0, _mm256_mul_pd(_mm256_loadu_pd(e + i * ld + j),
                                           _mm256_set1_pd(f[i])));
    }
    _mm256_storeu_pd(y + j, y0);
  }
  for (; j < n; ++j) {
    double v = y[j];
    for (std::size_t i = 0; i < rows; ++i) {
      if (f[i] != 0.0) v -= e[i * ld + j] * f[i];
    }
    y[j] = v;
  }
}

// The 8 right-hand sides of a row are two registers.
void tri_solve8_f64_avx2(std::size_t n, const double* r, std::size_t c0,
                         std::size_t stop, double* x) {
  for (std::size_t t = c0; t < n; ++t) {
    const double* rt = r + t * n;
    const __m256d d = _mm256_set1_pd(rt[t]);
    const __m256d y0 = _mm256_div_pd(_mm256_loadu_pd(x + t * 8), d);
    const __m256d y1 = _mm256_div_pd(_mm256_loadu_pd(x + t * 8 + 4), d);
    _mm256_storeu_pd(x + t * 8, y0);
    _mm256_storeu_pd(x + t * 8 + 4, y1);
    for (std::size_t i = t + 1; i < n; ++i) {
      const __m256d l = _mm256_set1_pd(rt[i]);
      double* xi = x + i * 8;
      _mm256_storeu_pd(xi, _mm256_sub_pd(_mm256_loadu_pd(xi),
                                         _mm256_mul_pd(l, y0)));
      _mm256_storeu_pd(xi + 4, _mm256_sub_pd(_mm256_loadu_pd(xi + 4),
                                             _mm256_mul_pd(l, y1)));
    }
  }
  for (std::size_t i = n; i-- > stop;) {
    const double* ri = r + i * n;
    __m256d s0 = _mm256_loadu_pd(x + i * 8);
    __m256d s1 = _mm256_loadu_pd(x + i * 8 + 4);
    for (std::size_t t = i + 1; t < n; ++t) {
      const __m256d l = _mm256_set1_pd(ri[t]);
      s0 = _mm256_sub_pd(s0, _mm256_mul_pd(l, _mm256_loadu_pd(x + t * 8)));
      s1 = _mm256_sub_pd(s1, _mm256_mul_pd(l, _mm256_loadu_pd(x + t * 8 + 4)));
    }
    const __m256d d = _mm256_set1_pd(ri[i]);
    _mm256_storeu_pd(x + i * 8, _mm256_div_pd(s0, d));
    _mm256_storeu_pd(x + i * 8 + 4, _mm256_div_pd(s1, d));
  }
}

float max_abs_f32_avx2(std::size_t n, const float* x) {
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(vmax,
                         _mm256_and_ps(_mm256_loadu_ps(x + i), absmask));
  }
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax),
                        _mm256_extractf128_ps(vmax, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  float maxabs = _mm_cvtss_f32(m);
  for (; i < n; ++i) maxabs = std::max(maxabs, std::abs(x[i]));
  return maxabs;
}

void f16_to_f32_avx2(std::size_t n, const std::uint16_t* h, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + i));
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(bits));
  }
  for (; i < n; ++i) out[i] = half_bits_to_float(h[i]);
}

void f32_to_f16_avx2(std::size_t n, const float* f, std::uint16_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bits = _mm256_cvtps_ph(_mm256_loadu_ps(f + i),
                                         kRoundNearest);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), bits);
  }
  for (; i < n; ++i) out[i] = float_to_half_bits(f[i]);
}

void f16_accum_f32_avx2(std::size_t n, const float* v, std::uint16_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(out + i));
    const __m256 sum =
        _mm256_add_ps(_mm256_cvtph_ps(bits), _mm256_loadu_ps(v + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_cvtps_ph(sum, kRoundNearest));
  }
  for (; i < n; ++i) {
    out[i] = float_to_half_bits(half_bits_to_float(out[i]) + v[i]);
  }
}

// Packs 4 groups of 8 nibble codes per iteration: byte-shuffle into nibble
// order, then two widening multiply-adds assemble each group's 8 nibbles
// into a 16-bit half, and an OR/permute compresses the four 32-bit results.
bool pack_u4_avx2(std::size_t groups, const std::uint8_t* codes,
                  std::uint32_t* out) {
  const __m256i hi_nibble = _mm256_set1_epi8(static_cast<char>(0xf0));
  const __m256i mul_nib = _mm256_set1_epi16(0x1001);      // b0 + 16 * b1
  const __m256i mul_pair = _mm256_set1_epi32(0x01000001);  // p0 + 256 * p1
  // Per group: byte j after the shuffle lands in nibble j, so order the
  // logical codes by their target nibble (inverse of kNib).
  const __m256i shuf = _mm256_setr_epi8(
      1, 3, 5, 7, 0, 2, 4, 6, 9, 11, 13, 15, 8, 10, 12, 14,
      1, 3, 5, 7, 0, 2, 4, 6, 9, 11, 13, 15, 8, 10, 12, 14);
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t g = 0;
  for (; g + 4 <= groups; g += 4) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(codes + g * 8));
    if (!_mm256_testz_si256(v, hi_nibble)) return false;  // code >= 16
    v = _mm256_shuffle_epi8(v, shuf);
    const __m256i pairs = _mm256_maddubs_epi16(v, mul_nib);
    const __m256i quads = _mm256_madd_epi16(pairs, mul_pair);
    const __m256i merged =
        _mm256_or_si256(quads, _mm256_srli_epi64(quads, 16));
    const __m256i packed = _mm256_permutevar8x32_epi32(merged, pick);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + g),
                     _mm256_castsi256_si128(packed));
  }
  for (; g < groups; ++g) {
    const std::uint8_t* c = codes + g * 8;
    std::uint32_t reg = 0;
    for (int i = 0; i < 8; ++i) {
      if (c[i] >= 16) return false;
      reg |= static_cast<std::uint32_t>(c[i]) << (4 * kNib[i]);
    }
    out[g] = reg;
  }
  return true;
}

void dequant_u4_planes_avx2(std::size_t nregs, const std::uint32_t* regs,
                            float* out) {
  const __m256i mask = _mm256_set1_epi32(0xf);
  const __m256 eight = _mm256_set1_ps(8.0f);
  for (int p = 0; p < 8; ++p) {
    float* plane = out + static_cast<std::size_t>(p) * nregs;
    std::size_t i = 0;
    for (; i + 8 <= nregs; i += 8) {
      const __m256i r =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(regs + i));
      const __m256i nib =
          _mm256_and_si256(_mm256_srli_epi32(r, 4 * p), mask);
      _mm256_storeu_ps(plane + i,
                       _mm256_sub_ps(_mm256_cvtepi32_ps(nib), eight));
    }
    for (; i < nregs; ++i) {
      plane[i] = static_cast<float>((regs[i] >> (4 * p)) & 0xfu) - 8.0f;
    }
  }
}

void encode_symmetric_avx2(std::size_t n, const float* v, float scale,
                           int bits, std::uint8_t* out) {
  const int zero = 1 << (bits - 1);
  const int lo = -zero, hi = zero - 1;
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256i vlo = _mm256_set1_epi32(lo), vhi = _mm256_set1_epi32(hi);
  const __m256i vzero = _mm256_set1_epi32(zero);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_div_ps(_mm256_loadu_ps(v + i), vscale);
    __m256i c = _mm256_cvtps_epi32(d);  // RTNE == nearbyint + cast
    c = _mm256_add_epi32(_mm256_min_epi32(_mm256_max_epi32(c, vlo), vhi),
                         vzero);
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(c),
                                        _mm256_extracti128_si256(c, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), p8);
  }
  for (; i < n; ++i) {
    const int code = std::clamp(
        static_cast<int>(std::nearbyint(v[i] / scale)), lo, hi);
    out[i] = static_cast<std::uint8_t>(code + zero);
  }
}

}  // namespace

void apply_avx2_overrides(Ops& t) {
  t.axpy_f32 = axpy_f32_avx2;
  t.add_f32 = add_f32_avx2;
  t.mul_f32 = mul_f32_avx2;
  t.axpy_f32_f64 = axpy_f32_f64_avx2;
  t.sub_scaled_rows_f64 = sub_scaled_rows_f64_avx2;
  t.tri_solve8_f64 = tri_solve8_f64_avx2;
  t.max_abs_f32 = max_abs_f32_avx2;
  t.f16_to_f32 = f16_to_f32_avx2;
  t.f32_to_f16 = f32_to_f16_avx2;
  t.f16_accum_f32 = f16_accum_f32_avx2;
  t.pack_u4_interleaved = pack_u4_avx2;
  t.dequant_u4_planes = dequant_u4_planes_avx2;
  t.encode_symmetric = encode_symmetric_avx2;
}

}  // namespace marlin::simd::detail

#endif  // MARLIN_HAVE_AVX2_TU
