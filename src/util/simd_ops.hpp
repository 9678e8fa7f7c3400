#pragma once
// Runtime-dispatched SIMD kernels for the host-side hot loops.
//
// `Ops` is a table of function pointers filled per `simd::Level`
// (util/cpuid.hpp): the scalar table is the reference implementation, and
// the AVX2 / AVX-512 translation units (simd_avx2.cpp, simd_avx512.cpp —
// compiled with per-file ISA flags) override the entries they accelerate.
// A level inherits every entry it does not override from the level below,
// so partial tables always stay complete.
//
// Bit-identity contract (enforced by tests/test_simd_dispatch.cpp): every
// entry produces *bit-identical* results at every level. Vector code must
//   * never fuse multiply+add (separate mul/add instructions; the vector
//     TUs are additionally compiled with -ffp-contract=off),
//   * never reassociate an ordered reduction — only elementwise maps and
//     order-insensitive folds (max) are vectorized, or the loop is
//     vectorized across *independent* outputs (e.g. GEMM output columns),
//   * convert FP16 with IEEE round-to-nearest-even semantics identical to
//     util/half.{hpp,cpp} (F16C / AVX-512 conversions match, subnormals
//     and NaN quieting included).
// The goldens are pinned to these semantics, so `ctest -L golden` passes
// unchanged under MARLIN_SIMD=scalar and the dispatched path alike.

#include <cstddef>
#include <cstdint>

#include "util/cpuid.hpp"

namespace marlin::simd {

/// One level's kernel table. All pointers are always non-null.
struct Ops {
  /// The level this table implements (for introspection/logging).
  Level level = Level::kScalar;

  // ---- elementwise float kernels --------------------------------------
  /// y[i] += a * x[i] (separate multiply and add — no FMA).
  void (*axpy_f32)(std::size_t n, float a, const float* x, float* y);
  /// y[i] += x[i].
  void (*add_f32)(std::size_t n, const float* x, float* y);
  /// y[i] *= x[i].
  void (*mul_f32)(std::size_t n, const float* x, float* y);
  /// y[i] += a * (double)x[i]  (double accumulator, float source).
  void (*axpy_f32_f64)(std::size_t n, double a, const float* x, double* y);
  /// For i = 0 .. rows-1 in order, skipping f[i] == 0: y[j] -= e[i * ld +
  /// j] * f[i] for every j < n (separate multiply and subtract — no FMA).
  /// GPTQ's error propagation: y one weight row, e the error rows.
  void (*sub_scaled_rows_f64)(std::size_t n, std::size_t rows,
                              const double* f, const double* e,
                              std::size_t ld, double* y);
  /// max_i |x[i]| (0.0f for n == 0; order-insensitive fold).
  float (*max_abs_f32)(std::size_t n, const float* x);

  // ---- dense linear algebra -------------------------------------------
  /// Eight right-hand sides of the triangular solve pair behind an SPD
  /// inverse, in place. r: the n x n upper factor R (row-major, R^T R = H);
  /// x: n x 8 row-major, rows [c0, n) holding B. Forward, R^T Y = B: for
  /// t = c0 .. n-1, x[t] /= r[t][t], then x[i] -= r[t][i] * x[t] for each
  /// i > t. Back, R X = Y: for i = n-1 down to `stop`, x[i] = (x[i] minus
  /// r[i][t] * x[t] for t = i+1 .. n-1 in order) / r[i][i]. Separate
  /// multiplies and subtracts; the 8 columns are independent.
  void (*tri_solve8_f64)(std::size_t n, const double* r, std::size_t c0,
                         std::size_t stop, double* x);

  // ---- IEEE binary16 <-> binary32 bulk conversion ---------------------
  /// out[i] = half_bits_to_float(h[i]).
  void (*f16_to_f32)(std::size_t n, const std::uint16_t* h, float* out);
  /// out[i] = float_to_half_bits(f[i])  (round-to-nearest-even).
  void (*f32_to_f16)(std::size_t n, const float* f, std::uint16_t* out);
  /// out[i] = float_to_half_bits(half_bits_to_float(out[i]) + v[i]) — the
  /// kernel's in-place FP16 global reduction step.
  void (*f16_accum_f32)(std::size_t n, const float* v, std::uint16_t* out);

  // ---- INT4 packing / dequantisation ----------------------------------
  /// Packs `groups` runs of 8 codes (values 0..15, logical order) into one
  /// uint32 each with the 64207531 interleave (quant/pack.hpp). Returns
  /// false if any code is out of range (output then unspecified; the
  /// caller re-runs the scalar path for the exact error).
  bool (*pack_u4_interleaved)(std::size_t groups, const std::uint8_t* codes,
                              std::uint32_t* out);
  /// Plane-major nibble dequantisation: for nibble position p (0..7) and
  /// register i, out[p * nregs + i] = (float)((regs[i] >> 4p) & 0xF) - 8.
  /// (Bitwise equal to quant::dequant8's Half values converted to float.)
  void (*dequant_u4_planes)(std::size_t nregs, const std::uint32_t* regs,
                            float* out);

  // ---- uniform quantisation inner loops -------------------------------
  /// out[i] = (uint8)(clamp((int)nearbyint(v[i] / scale), -2^(b-1),
  /// 2^(b-1)-1) + 2^(b-1)) — quant::encode_symmetric over a span.
  void (*encode_symmetric)(std::size_t n, const float* v, float scale,
                           int bits, std::uint8_t* out);
};

/// The table for `active_level()` (re-reads the level on every call, so
/// tests may flip levels at runtime).
[[nodiscard]] const Ops& ops();

/// The table for a specific level; levels this build lacks fall back to
/// the best available table at or below `level`.
[[nodiscard]] const Ops& ops_for(Level level);

}  // namespace marlin::simd
