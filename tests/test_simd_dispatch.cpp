// Runtime SIMD dispatch (util/cpuid.hpp + util/simd_ops.hpp): level
// selection precedence, known answers of the op tables against the quant/
// reference implementations, the bit-identity contract across every level
// this host supports (levels the host lacks are skipped gracefully) and
// an end-to-end pipeline identity check.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/marlin_kernel.hpp"
#include "layout/repack.hpp"
#include "quant/dequant_trick.hpp"
#include "quant/linalg.hpp"
#include "quant/pack.hpp"
#include "quant/uniform.hpp"
#include "util/cpuid.hpp"
#include "util/half.hpp"
#include "util/rng.hpp"
#include "util/simd_ops.hpp"

namespace marlin {
namespace {

constexpr std::array<simd::Level, 3> kAllLevels = {
    simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512};

/// Restores MARLIN_SIMD and drops any override/cached resolution on exit,
/// so tests may fiddle with the selection state freely.
class SimdStateGuard {
 public:
  SimdStateGuard() {
    if (const char* cur = std::getenv("MARLIN_SIMD")) {
      saved_ = cur;
      had_env_ = true;
    }
    simd::reset_level();
  }
  ~SimdStateGuard() {
    if (had_env_) {
      setenv("MARLIN_SIMD", saved_.c_str(), 1);
    } else {
      unsetenv("MARLIN_SIMD");
    }
    simd::reset_level();
  }

 private:
  std::string saved_;
  bool had_env_ = false;
};

// ------------------------------------------------------------- selection

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const simd::Level l : kAllLevels) {
    EXPECT_EQ(simd::level_by_name(simd::to_string(l)), l);
  }
  EXPECT_THROW((void)simd::level_by_name("neon"), Error);
  EXPECT_THROW((void)simd::level_by_name("AVX2"), Error);  // case-sensitive
  EXPECT_THROW((void)simd::level_by_name("auto"), Error);  // env-only token
}

TEST(SimdDispatch, SupportMonotoneAndClampedByBuild) {
  EXPECT_TRUE(simd::supported(simd::Level::kScalar));
  const simd::Level max = simd::max_supported_level();
  for (const simd::Level l : kAllLevels) {
    EXPECT_EQ(simd::supported(l),
              static_cast<int>(l) <= static_cast<int>(max));
  }
}

TEST(SimdDispatch, EnvUnsetEmptyOrAutoPickMax) {
  SimdStateGuard guard;
  unsetenv("MARLIN_SIMD");
  simd::reset_level();
  EXPECT_EQ(simd::active_level(), simd::max_supported_level());
  setenv("MARLIN_SIMD", "", 1);
  simd::reset_level();
  EXPECT_EQ(simd::active_level(), simd::max_supported_level());
  setenv("MARLIN_SIMD", "auto", 1);
  simd::reset_level();
  EXPECT_EQ(simd::active_level(), simd::max_supported_level());
}

TEST(SimdDispatch, SetLevelBeatsEnvAndResetRereadsIt) {
  SimdStateGuard guard;
  setenv("MARLIN_SIMD", "scalar", 1);
  simd::reset_level();
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);

  // An explicit override wins over the environment ...
  simd::set_level(simd::max_supported_level());
  EXPECT_EQ(simd::active_level(), simd::max_supported_level());
  EXPECT_EQ(simd::ops().level, simd::max_supported_level());

  // ... and dropping it re-reads MARLIN_SIMD.
  simd::reset_level();
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::ops().level, simd::Level::kScalar);
}

TEST(SimdDispatch, UnknownOrUnsupportedRequestsThrow) {
  SimdStateGuard guard;
  setenv("MARLIN_SIMD", "sse9", 1);
  simd::reset_level();
  EXPECT_THROW((void)simd::active_level(), Error);

  const simd::Level max = simd::max_supported_level();
  for (const simd::Level l : kAllLevels) {
    if (simd::supported(l)) continue;
    EXPECT_THROW(simd::set_level(l), Error);
    setenv("MARLIN_SIMD", simd::to_string(l), 1);
    simd::reset_level();
    EXPECT_THROW((void)simd::active_level(), Error);
  }
  (void)max;
}

TEST(SimdDispatch, OpsForReportsItsLevelAndFallsBack) {
  EXPECT_EQ(simd::ops_for(simd::Level::kScalar).level, simd::Level::kScalar);
  for (const simd::Level l : kAllLevels) {
    const simd::Ops& t = simd::ops_for(l);
    if (simd::supported(l)) {
      EXPECT_EQ(t.level, l);
    } else {
      // Unsupported levels fall back to something at or below the request.
      EXPECT_LE(static_cast<int>(t.level), static_cast<int>(l));
    }
  }
}

// --------------------------------------------------------- known answers
//
// The scalar table is the reference the vector levels are compared to, so
// pin it against the quant/ module's own implementations first.

TEST(SimdKnownAnswer, PackMatchesQuantPack8) {
  Rng rng(11);
  for (const simd::Level l : kAllLevels) {
    if (!simd::supported(l)) continue;
    const simd::Ops& t = simd::ops_for(l);
    for (int rep = 0; rep < 200; ++rep) {
      std::array<std::uint8_t, 8> codes{};
      for (auto& c : codes) {
        c = static_cast<std::uint8_t>(rng.uniform_int(16));
      }
      std::uint32_t inter = 0;
      ASSERT_TRUE(t.pack_u4_interleaved(1, codes.data(), &inter));
      EXPECT_EQ(inter, quant::pack8_interleaved(codes));
    }
  }
}

TEST(SimdKnownAnswer, PackRejectsOutOfRangeCodes) {
  for (const simd::Level l : kAllLevels) {
    if (!simd::supported(l)) continue;
    const simd::Ops& t = simd::ops_for(l);
    // Bad codes both inside the vector body and in the scalar tail.
    for (const std::size_t bad : {std::size_t{0}, std::size_t{13},
                                  std::size_t{95}, std::size_t{98}}) {
      std::vector<std::uint8_t> codes(13 * 8, 7);
      codes[bad] = 16;
      std::vector<std::uint32_t> out(13);
      EXPECT_FALSE(t.pack_u4_interleaved(13, codes.data(), out.data()))
          << simd::to_string(l) << " bad index " << bad;
    }
  }
}

TEST(SimdKnownAnswer, DequantPlanesMatchDequant8) {
  // Plane p of register r holds (float)((r >> 4p) & 0xF) - 8, which for
  // the interleaved layout means logical weight i of quant::dequant8 sits
  // on plane kInterleaveNibbleOfLogical[i] — the exact relation the
  // kernel's weight-block assembly relies on.
  Rng rng(13);
  const std::size_t nregs = 21;
  std::vector<std::uint32_t> regs(nregs);
  for (auto& r : regs) {
    r = static_cast<std::uint32_t>(rng.next_u64());
  }
  for (const simd::Level l : kAllLevels) {
    if (!simd::supported(l)) continue;
    const simd::Ops& t = simd::ops_for(l);
    std::vector<float> planes(8 * nregs);
    t.dequant_u4_planes(nregs, regs.data(), planes.data());
    for (std::size_t r = 0; r < nregs; ++r) {
      const auto vals = quant::dequant8(regs[r]);
      for (int i = 0; i < 8; ++i) {
        const int p = quant::kInterleaveNibbleOfLogical[
            static_cast<std::size_t>(i)];
        EXPECT_EQ(planes[static_cast<std::size_t>(p) * nregs + r],
                  vals[static_cast<std::size_t>(i)].to_float())
            << simd::to_string(l) << " reg " << r << " weight " << i;
      }
    }
  }
}

TEST(SimdKnownAnswer, F16ToF32ExhaustiveOverAllPatterns) {
  // Every binary16 pattern except signalling NaNs (hardware conversions
  // quiet those; the library never constructs one — float_to_half_bits
  // always sets the quiet bit) must convert bit-identically to the
  // software reference, subnormals and quiet NaNs included.
  std::vector<std::uint16_t> in;
  in.reserve(1u << 16);
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    const auto h = static_cast<std::uint16_t>(b);
    const bool snan =
        (h & 0x7c00u) == 0x7c00u && (h & 0x03ffu) != 0 && !(h & 0x0200u);
    if (!snan) in.push_back(h);
  }
  std::vector<float> ref(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    ref[i] = half_bits_to_float(in[i]);
  }
  for (const simd::Level l : kAllLevels) {
    if (!simd::supported(l)) continue;
    std::vector<float> out(in.size());
    simd::ops_for(l).f16_to_f32(in.size(), in.data(), out.data());
    EXPECT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)),
              0)
        << simd::to_string(l);
  }
}

TEST(SimdKnownAnswer, F32ToF16RoundsToNearestEven) {
  // Ties, overflow-to-inf, underflow-to-zero, subnormal halves, quiet
  // NaNs: the documented hard cases of IEEE RTNE conversion.
  const std::vector<float> in = {
      0.0f, -0.0f, 1.0f, -2.5f,
      1.0009765f,   // between 1.0 and 1.0 + 2^-10: rounds down (even)
      1.00098f,     // just above the tie: rounds up
      2049.0f,      // tie at 2048 + 1: rounds to even 2048
      2051.0f,      // tie: rounds to even 2052
      65504.0f,     // max finite half
      65520.0f,     // halfway to inf: rounds to inf
      65519.0f,     // just below: stays 65504
      1e6f, -1e38f,  // far overflow -> +/-inf
      5.9604645e-8f,   // half of the smallest subnormal: ties to zero
      6.0e-8f,         // just above: smallest subnormal
      6.1035156e-5f,   // smallest normal half
      3.0e-5f,         // subnormal range
      1e-40f,          // float subnormal -> zero
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
  };
  std::vector<std::uint16_t> ref(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    ref[i] = float_to_half_bits(in[i]);
  }
  for (const simd::Level l : kAllLevels) {
    if (!simd::supported(l)) continue;
    std::vector<std::uint16_t> out(in.size());
    simd::ops_for(l).f32_to_f16(in.size(), in.data(), out.data());
    EXPECT_EQ(out, ref) << simd::to_string(l);
  }
}

// ---------------------------------------------------------- bit identity
//
// Random data at awkward lengths (vector body + ragged tail), every
// supported level compared byte-for-byte against the scalar table.

constexpr std::array<std::size_t, 13> kSizes = {0, 1, 3, 7,  8,  9,  15,
                                                16, 17, 31, 33, 64, 67};

template <typename T>
void expect_bytes_eq(const std::vector<T>& got, const std::vector<T>& want,
                     simd::Level l, const char* what, std::size_t n) {
  ASSERT_EQ(got.size(), want.size());
  if (got.empty()) return;  // data() may be null; memcmp is nonnull
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0)
      << what << " differs from scalar at level " << simd::to_string(l)
      << " (n=" << n << ")";
}

TEST(SimdBitIdentity, ElementwiseFloatKernels) {
  Rng rng(21);
  const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
  for (const std::size_t n : kSizes) {
    std::vector<float> x(n), y0(n);
    std::vector<double> d0(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(rng.normal());
      y0[i] = static_cast<float>(rng.normal());
      d0[i] = rng.normal();
    }
    const float a = static_cast<float>(rng.normal());

    std::vector<float> axpy_ref = y0, add_ref = y0, mul_ref = y0;
    std::vector<double> dref = d0;
    scalar.axpy_f32(n, a, x.data(), axpy_ref.data());
    scalar.add_f32(n, x.data(), add_ref.data());
    scalar.mul_f32(n, x.data(), mul_ref.data());
    scalar.axpy_f32_f64(n, static_cast<double>(a), x.data(), dref.data());
    const float max_ref = scalar.max_abs_f32(n, x.data());

    for (const simd::Level l : kAllLevels) {
      if (l == simd::Level::kScalar || !simd::supported(l)) continue;
      const simd::Ops& t = simd::ops_for(l);
      std::vector<float> y = y0;
      std::vector<double> d = d0;
      t.axpy_f32(n, a, x.data(), y.data());
      expect_bytes_eq(y, axpy_ref, l, "axpy_f32", n);
      y = y0;
      t.add_f32(n, x.data(), y.data());
      expect_bytes_eq(y, add_ref, l, "add_f32", n);
      y = y0;
      t.mul_f32(n, x.data(), y.data());
      expect_bytes_eq(y, mul_ref, l, "mul_f32", n);
      t.axpy_f32_f64(n, static_cast<double>(a), x.data(), d.data());
      expect_bytes_eq(d, dref, l, "axpy_f32_f64", n);
      EXPECT_EQ(t.max_abs_f32(n, x.data()), max_ref)
          << "max_abs_f32 at " << simd::to_string(l) << " n=" << n;
    }
  }
}

TEST(SimdBitIdentity, SubScaledRowsF64) {
  Rng rng(25);
  const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
  for (const std::size_t n : kSizes) {
    for (const std::size_t rows : {0u, 1u, 5u, 17u}) {
      const std::size_t ld = n + 3;
      std::vector<double> e(rows * ld), f(rows), y0(n);
      for (double& v : e) v = rng.normal();
      // Zero factors are skipped, so -0.0 entries of y must survive them.
      for (double& v : f) v = rng.uniform_int(3) == 0 ? 0.0 : rng.normal();
      for (double& v : y0) v = rng.uniform_int(4) == 0 ? -0.0 : rng.normal();

      std::vector<double> want = y0;
      scalar.sub_scaled_rows_f64(n, rows, f.data(), e.data(), ld,
                                 want.data());
      for (const simd::Level l : kAllLevels) {
        if (l == simd::Level::kScalar || !simd::supported(l)) continue;
        std::vector<double> got = y0;
        simd::ops_for(l).sub_scaled_rows_f64(n, rows, f.data(), e.data(), ld,
                                             got.data());
        expect_bytes_eq(got, want, l, "sub_scaled_rows_f64", n);
      }
    }
  }
}

TEST(SimdBitIdentity, TriSolve8F64) {
  Rng rng(26);
  const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
  for (const std::size_t n : {1u, 2u, 9u, 33u}) {
    // A well-conditioned upper factor: positive diagonal, small off-diagonal.
    std::vector<double> r(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      r[i * n + i] = 1.0 + rng.uniform();
      for (std::size_t j = i + 1; j < n; ++j) r[i * n + j] = 0.3 * rng.normal();
    }
    for (const std::size_t c0 : {std::size_t{0}, n / 2}) {
      for (const std::size_t stop : {std::size_t{0}, c0}) {
        std::vector<double> x0(n * 8, 0.0);
        for (std::size_t i = c0; i < n; ++i) {
          for (std::size_t c = 0; c < 8; ++c) x0[i * 8 + c] = rng.normal();
        }
        std::vector<double> want = x0;
        scalar.tri_solve8_f64(n, r.data(), c0, stop, want.data());
        for (const simd::Level l : kAllLevels) {
          if (l == simd::Level::kScalar || !simd::supported(l)) continue;
          std::vector<double> got = x0;
          simd::ops_for(l).tri_solve8_f64(n, r.data(), c0, stop, got.data());
          expect_bytes_eq(got, want, l, "tri_solve8_f64", n);
        }
      }
    }
  }
}

TEST(SimdBitIdentity, HalfConversionKernels) {
  Rng rng(22);
  const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
  for (const std::size_t n : kSizes) {
    std::vector<float> f(n), v(n);
    std::vector<std::uint16_t> h0(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix magnitudes so subnormal halves and overflow both occur.
      f[i] = static_cast<float>(rng.normal() *
                                std::pow(10.0, rng.uniform(-8.0, 6.0)));
      v[i] = static_cast<float>(rng.normal());
      h0[i] = float_to_half_bits(static_cast<float>(rng.normal()));
    }
    std::vector<float> to_f32_ref(n);
    std::vector<std::uint16_t> to_f16_ref(n), accum_ref = h0;
    scalar.f16_to_f32(n, h0.data(), to_f32_ref.data());
    scalar.f32_to_f16(n, f.data(), to_f16_ref.data());
    scalar.f16_accum_f32(n, v.data(), accum_ref.data());

    for (const simd::Level l : kAllLevels) {
      if (l == simd::Level::kScalar || !simd::supported(l)) continue;
      const simd::Ops& t = simd::ops_for(l);
      std::vector<float> fo(n);
      t.f16_to_f32(n, h0.data(), fo.data());
      expect_bytes_eq(fo, to_f32_ref, l, "f16_to_f32", n);
      std::vector<std::uint16_t> ho(n);
      t.f32_to_f16(n, f.data(), ho.data());
      expect_bytes_eq(ho, to_f16_ref, l, "f32_to_f16", n);
      ho = h0;
      t.f16_accum_f32(n, v.data(), ho.data());
      expect_bytes_eq(ho, accum_ref, l, "f16_accum_f32", n);
    }
  }
}

TEST(SimdBitIdentity, PackUnpackDequantKernels) {
  Rng rng(23);
  const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
  for (const std::size_t groups : kSizes) {
    std::vector<std::uint8_t> codes(groups * 8);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.uniform_int(16));
    std::vector<std::uint32_t> inter_ref(groups);
    ASSERT_TRUE(
        scalar.pack_u4_interleaved(groups, codes.data(), inter_ref.data()));
    std::vector<float> planes_ref(8 * groups);
    scalar.dequant_u4_planes(groups, inter_ref.data(), planes_ref.data());

    for (const simd::Level l : kAllLevels) {
      if (l == simd::Level::kScalar || !simd::supported(l)) continue;
      const simd::Ops& t = simd::ops_for(l);
      std::vector<std::uint32_t> out(groups);
      ASSERT_TRUE(t.pack_u4_interleaved(groups, codes.data(), out.data()));
      expect_bytes_eq(out, inter_ref, l, "pack_u4_interleaved", groups);
      std::vector<float> planes(8 * groups);
      t.dequant_u4_planes(groups, inter_ref.data(), planes.data());
      expect_bytes_eq(planes, planes_ref, l, "dequant_u4_planes", groups);
    }
  }
}

TEST(SimdBitIdentity, QuantizeKernels) {
  Rng rng(24);
  const simd::Ops& scalar = simd::ops_for(simd::Level::kScalar);
  for (const std::size_t n : kSizes) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Values straddling the clamp range and .5 rounding ties.
      v[i] = static_cast<float>(rng.normal(0.0, 6.0));
      if (rng.uniform() < 0.25) {
        v[i] = std::nearbyint(v[i]) + 0.5f;
      }
    }
    const float scale = 0.375f;
    for (const int bits : {2, 4, 8}) {
      std::vector<std::uint8_t> enc_ref(n);
      scalar.encode_symmetric(n, v.data(), scale, bits, enc_ref.data());
      for (const simd::Level l : kAllLevels) {
        if (l == simd::Level::kScalar || !simd::supported(l)) continue;
        std::vector<std::uint8_t> enc(n);
        simd::ops_for(l).encode_symmetric(n, v.data(), scale, bits,
                                          enc.data());
        expect_bytes_eq(enc, enc_ref, l, "encode_symmetric", n);
      }
    }
  }
}

// ------------------------------------------------------------ end to end
//
// The whole host pipeline — RTN quantization, MARLIN repack, functional
// kernel, FP32 reference GEMM and the GPTQ gram matrix — must produce
// byte-identical artifacts under every dispatch level.

struct PipelineArtifacts {
  quant::QuantizedWeights q;
  layout::MarlinWeights mw;
  Matrix<Half> c;
  Matrix<float> ref;
  Matrix<double> gram;
};

PipelineArtifacts run_pipeline() {
  const index_t m = 5, k = 64, n = 128;
  Rng rng(31);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  Matrix<Half> a(m, k);
  Matrix<float> af(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      af(i, j) = static_cast<float>(rng.normal());
      a(i, j) = Half(af(i, j));
    }
  }
  PipelineArtifacts out;
  quant::QuantConfig qcfg;
  qcfg.group_size = 32;
  qcfg.clip_search = true;  // exercises max_abs + encode search loops
  out.q = quant::quantize_rtn(w.view(), qcfg);
  out.mw = layout::marlin_repack(out.q);
  core::KernelConfig kcfg;
  kcfg.n_sm_tile = 64;
  kcfg.num_warps = 4;
  out.c = core::marlin_matmul(a.view(), out.mw, kcfg, 4).c;
  out.ref = core::reference_matmul(a.view(), out.q.dequantize().view());
  out.gram = Matrix<double>(k, k, 0.0);
  quant::add_gram_upper(af.view(), out.gram);
  return out;
}

TEST(SimdEndToEnd, PipelineBitIdenticalAcrossLevels) {
  SimdStateGuard guard;
  simd::set_level(simd::Level::kScalar);
  const PipelineArtifacts want = run_pipeline();
  for (const simd::Level l : kAllLevels) {
    if (l == simd::Level::kScalar || !simd::supported(l)) continue;
    simd::set_level(l);
    const PipelineArtifacts got = run_pipeline();
    EXPECT_EQ(std::memcmp(got.q.codes.data(), want.q.codes.data(),
                          static_cast<std::size_t>(want.q.codes.size())),
              0)
        << "RTN codes differ at " << simd::to_string(l);
    EXPECT_EQ(std::memcmp(got.q.scales.data(), want.q.scales.data(),
                          static_cast<std::size_t>(want.q.scales.size()) *
                              sizeof(Half)),
              0)
        << "RTN scales differ at " << simd::to_string(l);
    ASSERT_EQ(got.mw.packed.size(), want.mw.packed.size());
    EXPECT_EQ(got.mw.packed, want.mw.packed)
        << "repacked stream differs at " << simd::to_string(l);
    EXPECT_EQ(std::memcmp(got.c.data(), want.c.data(),
                          static_cast<std::size_t>(want.c.size()) *
                              sizeof(Half)),
              0)
        << "kernel output differs at " << simd::to_string(l);
    EXPECT_EQ(std::memcmp(got.ref.data(), want.ref.data(),
                          static_cast<std::size_t>(want.ref.size()) *
                              sizeof(float)),
              0)
        << "reference GEMM differs at " << simd::to_string(l);
    EXPECT_EQ(std::memcmp(got.gram.data(), want.gram.data(),
                          static_cast<std::size_t>(want.gram.size()) *
                              sizeof(double)),
              0)
        << "gram matrix differs at " << simd::to_string(l);
  }
}

}  // namespace
}  // namespace marlin
