// Differential test of the GPTQ solve against the frozen reference in
// reference_gptq.cpp: codes, FP16 scale bits, group_index, the
// Hessian-weighted error and the SparseGPT mask must match bit for bit,
// at every SIMD level this host runs.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "reference_gptq.hpp"
#include "quant/linalg.hpp"
#include "util/rng.hpp"
#include "util/simd_ops.hpp"

namespace marlin::quant {
namespace {

constexpr simd::Level kAllLevels[] = {
    simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512};

/// Restores the SIMD selection (MARLIN_SIMD or auto-detection) on exit.
struct SimdLevelGuard {
  ~SimdLevelGuard() { simd::reset_level(); }
};

/// Bit equality for doubles (distinguishes -0.0 and NaN payloads).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

template <typename T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(T)) == 0;
}

struct SolveCase {
  index_t k;
  index_t n;
  index_t group;
  int bits;
  bool clip;
  bool act_order;
  bool dead;
};

std::string describe(const SolveCase& c) {
  return "k=" + std::to_string(c.k) + " n=" + std::to_string(c.n) +
         " group=" + std::to_string(c.group) +
         " bits=" + std::to_string(c.bits) + " clip=" +
         std::to_string(c.clip) + " act_order=" +
         std::to_string(c.act_order) + " dead=" + std::to_string(c.dead);
}

/// Every group size × clip on/off at one K; bits, N, act_order and dead
/// rows are drawn per case so that together the K values cover them all.
std::vector<SolveCase> cases_for(index_t k) {
  constexpr index_t kGroups[] = {kPerColumn, 32, 96, 128};
  constexpr index_t kCols[] = {1, 3, 37, 131};
  std::vector<SolveCase> out;
  Rng rng(static_cast<std::uint64_t>(k) * 7919 + 1);
  int idx = static_cast<int>(k);
  for (const index_t g : kGroups) {
    for (const bool clip : {false, true}) {
      SolveCase c;
      c.k = k;
      c.n = kCols[rng.uniform_int(4)];
      c.group = g;
      c.bits = 2 + idx++ % 7;
      c.clip = clip;
      c.act_order = rng.uniform_int(2) == 1;
      c.dead = k > 1 && rng.uniform_int(3) == 0;
      out.push_back(c);
    }
  }
  return out;
}

/// Weights with per-row scales and a few outliers, so the clip search has
/// something to clip.
Matrix<float> random_weights(index_t k, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    const double row_scale = 0.2 + 2.0 * rng.uniform();
    for (index_t j = 0; j < n; ++j) {
      double v = rng.normal() * row_scale;
      if (rng.uniform_int(50) == 0) v *= 8.0;
      w(i, j) = static_cast<float>(v);
    }
  }
  return w;
}

/// Calibration Hessian from random activations with feature-wise scales;
/// with `dead`, a few input features are always zero, so their Hessian
/// rows and columns vanish.
Matrix<double> random_hessian(index_t k, bool dead, std::uint64_t seed) {
  Rng rng(seed);
  const index_t tokens = k + 16;
  std::vector<double> feature_scale(static_cast<std::size_t>(k));
  for (auto& s : feature_scale) s = 0.1 + 3.0 * rng.uniform();
  if (dead) {
    for (index_t i = 0; i < k; i += 3 + k / 5) {
      feature_scale[static_cast<std::size_t>(i)] = 0.0;
    }
  }
  Matrix<float> x(tokens, k);
  for (index_t r = 0; r < tokens; ++r) {
    for (index_t i = 0; i < k; ++i) {
      x(r, i) = static_cast<float>(rng.normal() *
                                   feature_scale[static_cast<std::size_t>(i)]);
    }
  }
  HessianAccumulator acc(k);
  acc.add_sequence(x.view());
  return acc.hessian();
}

void expect_same_weights(const QuantizedWeights& got,
                         const QuantizedWeights& want,
                         const std::string& where) {
  EXPECT_TRUE(same_bits(got.codes, want.codes)) << "codes differ: " << where;
  ASSERT_EQ(got.scales.rows(), want.scales.rows()) << where;
  ASSERT_EQ(got.scales.cols(), want.scales.cols()) << where;
  for (index_t i = 0; i < want.scales.rows(); ++i) {
    for (index_t j = 0; j < want.scales.cols(); ++j) {
      ASSERT_EQ(got.scales(i, j).bits(), want.scales(i, j).bits())
          << "scale (" << i << "," << j << ") differs: " << where;
    }
  }
  EXPECT_EQ(got.group_index, want.group_index) << where;
}

class GptqSolveMatchesReference : public ::testing::TestWithParam<index_t> {};

TEST_P(GptqSolveMatchesReference, AtEverySimdLevel) {
  SimdLevelGuard guard;
  for (const SolveCase& c : cases_for(GetParam())) {
    const std::uint64_t seed = static_cast<std::uint64_t>(c.k * 131 + c.n);
    const Matrix<float> w = random_weights(c.k, c.n, seed);
    const Matrix<double> h = random_hessian(c.k, c.dead, seed + 1);
    GptqConfig cfg;
    cfg.quant.bits = c.bits;
    cfg.quant.group_size = c.group;
    cfg.quant.clip_search = c.clip;
    cfg.act_order = c.act_order;

    simd::reset_level();
    const GptqResult want = reference::gptq_quantize(w.view(), h, cfg);
    for (const simd::Level l : kAllLevels) {
      if (!simd::supported(l)) continue;
      simd::set_level(l);
      const std::string where =
          describe(c) + " simd=" + simd::to_string(l);
      const GptqResult got = gptq_quantize(w.view(), h, cfg);
      expect_same_weights(got.weights, want.weights, where);
      EXPECT_TRUE(same_bits(got.hessian_weighted_error,
                            want.hessian_weighted_error))
          << "hessian_weighted_error " << got.hessian_weighted_error
          << " vs " << want.hessian_weighted_error << ": " << where;
    }
  }
}

TEST_P(GptqSolveMatchesReference, SparseGptAtEverySimdLevel) {
  SimdLevelGuard guard;
  for (const SolveCase& c : cases_for(GetParam())) {
    const std::uint64_t seed = static_cast<std::uint64_t>(c.k * 977 + c.n);
    const Matrix<float> w = random_weights(c.k, c.n, seed);
    const Matrix<double> h = random_hessian(c.k, c.dead, seed + 1);
    GptqConfig cfg;
    cfg.quant.bits = c.bits;
    cfg.quant.group_size = c.group;
    cfg.quant.clip_search = c.clip;

    if (c.k % 4 != 0) {  // 2:4 needs K divisible by 4
      EXPECT_THROW(reference::sparsegpt_24_quantize(w.view(), h, cfg), Error);
      EXPECT_THROW(sparse::sparsegpt_24_quantize(w.view(), h, cfg), Error);
      continue;
    }
    simd::reset_level();
    const sparse::SparseGptResult want =
        reference::sparsegpt_24_quantize(w.view(), h, cfg);
    for (const simd::Level l : kAllLevels) {
      if (!simd::supported(l)) continue;
      simd::set_level(l);
      const std::string where =
          describe(c) + " simd=" + simd::to_string(l);
      const sparse::SparseGptResult got =
          sparse::sparsegpt_24_quantize(w.view(), h, cfg);
      expect_same_weights(got.weights, want.weights, where);
      EXPECT_TRUE(same_bits(got.mask.keep, want.mask.keep))
          << "mask differs: " << where;
      EXPECT_TRUE(same_bits(got.hessian_weighted_error,
                            want.hessian_weighted_error))
          << "hessian_weighted_error differs: " << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GptqSolveMatchesReference,
                         ::testing::Values(1, 4, 17, 128, 129, 300, 512));

TEST(LinalgMatchesReference, FactorsAndInverseAtEverySimdLevel) {
  SimdLevelGuard guard;
  for (const index_t n : {1, 2, 7, 8, 9, 17, 64, 129}) {
    const Matrix<double> h = random_hessian(n, false, 40 + n);
    for (const simd::Level l : kAllLevels) {
      if (!simd::supported(l)) continue;
      simd::set_level(l);
      const std::string where =
          "n=" + std::to_string(n) + " simd=" + simd::to_string(l);
      EXPECT_TRUE(same_bits(upper_cholesky_of_inverse(h),
                            reference::upper_cholesky_of_inverse(h)))
          << "upper_cholesky_of_inverse " << where;
    }
  }
}

TEST(GramMatchesReference, AccumulatorAndGramAtEverySimdLevel) {
  SimdLevelGuard guard;
  for (const index_t k : {1, 5, 33, 130}) {
    Rng rng(static_cast<std::uint64_t>(k));
    std::vector<Matrix<float>> seqs;
    for (const index_t len : {1, 7, 40}) {
      Matrix<float> x(len, k);
      for (index_t r = 0; r < len; ++r) {
        for (index_t i = 0; i < k; ++i) {
          // Exact zeros exercise the zero-activation skip.
          x(r, i) = rng.uniform_int(4) == 0
                        ? 0.0f
                        : static_cast<float>(rng.normal());
        }
      }
      seqs.push_back(std::move(x));
    }
    Matrix<double> want_upper(k, k, 0.0);
    index_t tokens = 0;
    for (const auto& x : seqs) {
      reference::add_gram_upper(x.view(), want_upper);
      tokens += x.rows();
    }
    Matrix<double> want_h(k, k, 0.0);
    const double norm = 2.0 / static_cast<double>(tokens);
    for (index_t i = 0; i < k; ++i) {
      for (index_t j = i; j < k; ++j) {
        want_h(i, j) = want_upper(i, j) * norm;
        want_h(j, i) = want_h(i, j);
      }
    }
    Matrix<double> want_gram(k, k, 0.0);
    reference::add_gram_upper(seqs[2].view(), want_gram);

    for (const simd::Level l : kAllLevels) {
      if (!simd::supported(l)) continue;
      simd::set_level(l);
      HessianAccumulator acc(k);
      for (const auto& x : seqs) acc.add_sequence(x.view());
      EXPECT_TRUE(same_bits(acc.hessian(), want_h))
          << "hessian k=" << k << " simd=" << simd::to_string(l);
      Matrix<double> gram(k, k, 0.0);
      add_gram_upper(seqs[2].view(), gram);
      EXPECT_TRUE(same_bits(gram, want_gram))
          << "gram k=" << k << " simd=" << simd::to_string(l);
    }
  }
}

}  // namespace
}  // namespace marlin::quant
