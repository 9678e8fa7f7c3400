#pragma once
// Compressed 2:4 weight structures (paper §4, Figures 7 and 8).
//
// Two data structures encode a 2:4-sparse INT4 matrix:
//  (1) non-zero values: the K/2 x N surviving codes, further packed 8-per-
//      uint32 like dense MARLIN (Figure 7, steps 1a/1b);
//  (2) metadata indices: for each group of 4 original rows, the two 2-bit
//      positions of the survivors, packed 4 bits per group and 4 groups per
//      16-bit word (Figure 8), then reshuffled so a single ldmatrix serves
//      four consecutive mma.sp steps with the sparsity-selector constraint
//      (threads {T0,T1} carry metadata for their 4-thread group).

#include <cstdint>
#include <vector>

#include "quant/qweights.hpp"
#include "sparse/two_four.hpp"

namespace marlin::sparse {

struct Sparse24Weights {
  index_t k = 0;  // ORIGINAL reduction dim (uncompressed)
  index_t n = 0;
  quant::QuantConfig cfg;
  /// Surviving codes, row-compressed: (K/2) x N, values 0..15.
  Matrix<std::uint8_t> nz_codes;
  /// meta(g, j): 4-bit nibble for 4-row group g of column j:
  /// low 2 bits = index of first survivor, high 2 bits = second (ascending).
  Matrix<std::uint8_t> meta;  // (K/4) x N
  Matrix<Half> scales;        // groups(K) x N — groups over ORIGINAL rows

  [[nodiscard]] index_t compressed_k() const { return k / 2; }
  /// Storage bits per ORIGINAL weight: 4-bit codes on half the elements,
  /// 2-bit indices per non-zero, plus scales (paper: 3.125 b/w at g=128
  /// excluding scales' 0.125).
  [[nodiscard]] double bits_per_weight() const {
    const double code_bits = 4.0 * 0.5;
    const double meta_bits = 1.0;  // 4 bits / 4-row group
    const double scale_bits = 16.0 * static_cast<double>(scales.rows()) *
                              static_cast<double>(n) /
                              (static_cast<double>(k) * static_cast<double>(n));
    return code_bits + meta_bits + scale_bits;
  }
};

/// Compress quantized weights whose pruned entries encode exact zero
/// (code == 8). `mask` must be valid 2:4.
Sparse24Weights compress_24(const quant::QuantizedWeights& q,
                            const SparseMask& mask);

/// Reference inverse: dense K x N floats with zeros restored.
Matrix<float> decompress_24(const Sparse24Weights& s);

/// Figure 8 metadata word stream: 16-bit words covering 16 original rows of
/// one column (4 nibbles, bottom group in the low nibble). Test-only:
/// Metadata.WordsEncodeAscendingIndices.
std::vector<std::uint16_t> pack_metadata_words(const Sparse24Weights& s);

/// Figure 8 (2a/2b): reshuffled metadata so that one 128-bit load per
/// 8-thread group feeds four mma.sp steps. Returns, for each (row-slab of
/// 16 original rows x column-block of 8), the 8 words in load order and a
/// map back to (column, slab) so tests can verify the round trip.
/// Test-only: Metadata.ReshuffleIsAPermutationOfWords.
struct ReshuffledMeta {
  /// words[slab][block][i]: i-th 16-bit word of the 128-bit vector.
  std::vector<std::vector<std::vector<std::uint16_t>>> words;
  /// source_col[slab][block][i]: original column the word came from.
  std::vector<std::vector<std::vector<index_t>>> source_col;
};
ReshuffledMeta reshuffle_metadata(const Sparse24Weights& s);

/// Emulates the SPTC operand selection: for group g of column j, returns
/// the two original row indices the metadata addresses.
std::pair<int, int> meta_select(const Sparse24Weights& s, index_t group,
                                index_t col);

}  // namespace marlin::sparse
