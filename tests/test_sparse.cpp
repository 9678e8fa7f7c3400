// 2:4 sparsity: pruning, compressed structures (paper Figs. 7/8),
// metadata, SparseGPT-lite.

#include <gtest/gtest.h>

#include "eval/metrics.hpp"
#include "eval/synthetic.hpp"
#include "quant/gptq.hpp"
#include "quant/uniform.hpp"
#include "sparse/compressed.hpp"
#include "sparse/sparsegpt.hpp"
#include "sparse/two_four.hpp"
#include "util/rng.hpp"

namespace marlin::sparse {
namespace {

Matrix<float> random_weights(index_t k, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  return w;
}

TEST(TwoFour, MagnitudeMaskValidAndKeepsLargest) {
  const auto w = random_weights(64, 16, 1);
  const auto mask = prune_24_magnitude(w.view());
  EXPECT_TRUE(is_valid_24(mask));
  for (index_t j = 0; j < 16; ++j) {
    for (index_t g = 0; g < 64; g += 4) {
      float kept_min = 1e9f, dropped_max = -1.0f;
      for (int t = 0; t < 4; ++t) {
        const float a = std::abs(w(g + t, j));
        if (mask.keep(g + t, j)) {
          kept_min = std::min(kept_min, a);
        } else {
          dropped_max = std::max(dropped_max, a);
        }
      }
      EXPECT_GE(kept_min, dropped_max);
    }
  }
}

TEST(TwoFour, ApplyMaskZeroesExactlyHalf) {
  const auto w = random_weights(32, 8, 2);
  const auto mask = prune_24_magnitude(w.view());
  const auto wm = apply_mask(w.view(), mask);
  index_t zeros = 0;
  for (index_t i = 0; i < 32; ++i) {
    for (index_t j = 0; j < 8; ++j) {
      if (wm(i, j) == 0.0f) ++zeros;
    }
  }
  EXPECT_EQ(zeros, 32 * 8 / 2);
}

TEST(TwoFour, InvalidMaskDetected) {
  SparseMask m;
  m.keep = Matrix<std::uint8_t>(4, 1, 1);  // 4 kept in a group
  EXPECT_FALSE(is_valid_24(m));
  m.keep = Matrix<std::uint8_t>(6, 1, 0);  // K not divisible by 4
  EXPECT_FALSE(is_valid_24(m));
}

quant::QuantizedWeights quantize_masked(const Matrix<float>& w,
                                        const SparseMask& mask,
                                        index_t group) {
  quant::QuantConfig cfg;
  cfg.group_size = group;
  const auto wm = apply_mask(w.view(), mask);
  auto q = quant::quantize_rtn(wm.view(), cfg);
  // Force pruned codes to the exact-zero code (RTN already rounds 0 -> 8).
  for (index_t i = 0; i < q.k; ++i) {
    for (index_t j = 0; j < q.n; ++j) {
      if (!mask.keep(i, j)) q.codes(i, j) = 8;
    }
  }
  return q;
}

struct CompressCase {
  index_t k, n, group;
};

class CompressRoundTrip : public ::testing::TestWithParam<CompressCase> {};

TEST_P(CompressRoundTrip, DecompressMatchesMaskedDequant) {
  const auto [k, n, group] = GetParam();
  const auto w = random_weights(k, n, 10 + k);
  const auto mask = prune_24_magnitude(w.view());
  const auto q = quantize_masked(w, mask, group);
  const auto s = compress_24(q, mask);
  EXPECT_EQ(s.compressed_k(), k / 2);
  const auto dense = q.dequantize();
  const auto restored = decompress_24(s);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_EQ(dense(i, j), restored(i, j)) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CompressRoundTrip,
                         ::testing::Values(CompressCase{32, 8, 32},
                                           CompressCase{64, 16, 32},
                                           CompressCase{128, 64, 64},
                                           CompressCase{64, 24,
                                                        quant::kPerColumn}));

TEST(Compress, BitsPerWeightMatchesPaperStorageModel) {
  const auto w = random_weights(128, 64, 3);
  const auto mask = prune_24_magnitude(w.view());
  const auto q = quantize_masked(w, mask, 128);
  const auto s = compress_24(q, mask);
  // 2 (codes) + 1 (meta) + 0.125 (scales) = 3.125 bits/weight.
  EXPECT_NEAR(s.bits_per_weight(), 3.125, 1e-9);
}

TEST(Compress, NonZeroPrunedCodeRejected) {
  const auto w = random_weights(16, 4, 4);
  const auto mask = prune_24_magnitude(w.view());
  auto q = quantize_masked(w, mask, 16);
  // Corrupt one pruned position with a non-zero code.
  for (index_t i = 0; i < 16; ++i) {
    if (!mask.keep(i, 0)) {
      q.codes(i, 0) = 9;
      break;
    }
  }
  EXPECT_THROW(compress_24(q, mask), marlin::Error);
}

TEST(Metadata, WordsEncodeAscendingIndices) {
  const auto w = random_weights(32, 8, 5);
  const auto mask = prune_24_magnitude(w.view());
  const auto q = quantize_masked(w, mask, 32);
  const auto s = compress_24(q, mask);
  for (index_t j = 0; j < 8; ++j) {
    for (index_t g = 0; g < 8; ++g) {
      const auto [i0, i1] = meta_select(s, g, j);
      EXPECT_LT(i0, i1);  // ascending 2-bit indices
      EXPECT_EQ(mask.keep(g * 4 + i0, j), 1);
      EXPECT_EQ(mask.keep(g * 4 + i1, j), 1);
    }
  }
  const auto words = pack_metadata_words(s);
  EXPECT_EQ(words.size(), static_cast<std::size_t>(32 / 16 * 8));
}

TEST(Metadata, ReshuffleIsAPermutationOfWords) {
  const auto w = random_weights(32, 16, 6);
  const auto mask = prune_24_magnitude(w.view());
  const auto q = quantize_masked(w, mask, 32);
  const auto s = compress_24(q, mask);
  const auto r = reshuffle_metadata(s);
  ASSERT_EQ(r.words.size(), 2u);       // 32/16 slabs
  ASSERT_EQ(r.words[0].size(), 2u);    // 16/8 column blocks
  // Every (slab, column) word appears exactly once.
  std::set<std::pair<index_t, index_t>> seen;
  for (std::size_t slab = 0; slab < r.words.size(); ++slab) {
    for (std::size_t b = 0; b < r.words[slab].size(); ++b) {
      for (std::size_t i = 0; i < 8; ++i) {
        const index_t col = r.source_col[slab][b][i];
        EXPECT_TRUE(seen.insert({static_cast<index_t>(slab), col}).second);
      }
    }
  }
  EXPECT_EQ(seen.size(), 2u * 16u);
  // Interleave order within a block: 0,2,4,6,1,3,5,7.
  EXPECT_EQ(r.source_col[0][0][0], 0);
  EXPECT_EQ(r.source_col[0][0][1], 2);
  EXPECT_EQ(r.source_col[0][0][4], 1);
}

TEST(SparseGpt, ProducesValid24AndExactZeros) {
  const auto layer = eval::make_synthetic_layer(64, 16, 256, 77);
  quant::HessianAccumulator acc(64);
  acc.add_sequence(layer.calib.view());
  quant::GptqConfig cfg;
  cfg.quant.group_size = 32;
  const auto r = sparsegpt_24_quantize(layer.w.view(), acc.hessian(), cfg);
  EXPECT_TRUE(is_valid_24(r.mask));
  const auto deq = r.weights.dequantize();
  for (index_t i = 0; i < 64; ++i) {
    for (index_t j = 0; j < 16; ++j) {
      if (!r.mask.keep(i, j)) {
        EXPECT_EQ(deq(i, j), 0.0f);
      }
    }
  }
}

TEST(SparseGpt, BeatsMagnitudePruneThenRtn) {
  const auto layer = eval::make_synthetic_layer(128, 16, 512, 88);
  quant::HessianAccumulator acc(128);
  acc.add_sequence(layer.calib.view());
  quant::GptqConfig cfg;
  cfg.quant.group_size = 64;

  const auto sg = sparsegpt_24_quantize(layer.w.view(), acc.hessian(), cfg);

  const auto mask = prune_24_magnitude(layer.w.view());
  const auto naive = quantize_masked(
      Matrix<float>(layer.w), mask, 64);

  const double e_sg = eval::layer_output_nmse(
      layer.w.view(), sg.weights.dequantize().view(), layer.calib.view());
  const double e_naive = eval::layer_output_nmse(
      layer.w.view(), naive.dequantize().view(), layer.calib.view());
  EXPECT_LT(e_sg, e_naive);
}

TEST(SparseGpt, ComposesWithCompression) {
  const auto layer = eval::make_synthetic_layer(64, 64, 256, 99);
  quant::HessianAccumulator acc(64);
  acc.add_sequence(layer.calib.view());
  quant::GptqConfig cfg;
  cfg.quant.group_size = 64;
  const auto r = sparsegpt_24_quantize(layer.w.view(), acc.hessian(), cfg);
  const auto s = compress_24(r.weights, r.mask);
  const auto restored = decompress_24(s);
  const auto direct = r.weights.dequantize();
  for (index_t i = 0; i < 64; ++i) {
    for (index_t j = 0; j < 64; ++j) {
      ASSERT_EQ(direct(i, j), restored(i, j));
    }
  }
}

TEST(SparseGpt, RejectsBadBitsAndGroupSizes) {
  Matrix<float> w(8, 4, 0.1f);
  Matrix<double> h(8, 8, 0.0);
  for (index_t i = 0; i < 8; ++i) h(i, i) = 1.0;
  for (const index_t g : {index_t{0}, index_t{-4}, index_t{6}}) {
    quant::GptqConfig cfg;
    cfg.quant.group_size = g;
    EXPECT_THROW(sparsegpt_24_quantize(w.view(), h, cfg), Error)
        << "group " << g;
  }
  for (const int bits : {1, 9}) {
    quant::GptqConfig cfg;
    cfg.quant.bits = bits;
    EXPECT_THROW(sparsegpt_24_quantize(w.view(), h, cfg), Error)
        << "bits " << bits;
  }
}

}  // namespace
}  // namespace marlin::sparse
