#pragma once
// Offline weight/scale reshuffling into the MARLIN storage format
// (paper §3.4: "we simplify things by reshuffling 16 x 64 tiles so that
// they are laid out contiguously in memory", and "reorganize weights such
// that the 16-byte vector read by each thread contains precisely its
// necessary 8 quantized weights of 4 separate 16x16 Tensor Core blocks").
//
// Storage layout of `packed` (one uint32 = 8 interleaved INT4 codes):
//   slab   = k / 16          (16 reduction rows)
//   chunk  = n / 64          (64 output columns = 4 blocks of 16)
//   offset = ((slab * num_chunks + chunk) * 32 + lane) * 4 + block
// so each thread's four uint32 for a (slab, chunk) pair are contiguous —
// one 16-byte vector per thread, the widest load on Ampere.
//
// Scales are permuted per 64-column chunk so that each thread-group's 8
// scales for the chunk are contiguous (one 16-byte half vector):
//   packed column tg*8 + m  <-  original column m*8 + tg,
// where tg = lane/4 is the fragment column-group of the thread.

#include <array>
#include <cstdint>
#include <vector>

#include "quant/awq.hpp"
#include "quant/qweights.hpp"
#include "util/matrix.hpp"

namespace marlin::layout {

inline constexpr index_t kSlabRows = 16;   // reduction rows per slab
inline constexpr index_t kChunkCols = 64;  // output columns per chunk

struct MarlinWeights {
  index_t k = 0;
  index_t n = 0;
  quant::QuantConfig cfg;
  std::vector<std::uint32_t> packed;
  Matrix<Half> scales_packed;  // groups x N, column-permuted per chunk
  /// AWQ-format extension (vLLM awq-marlin): integer zero points, permuted
  /// like the scales. Empty for the symmetric GPTQ format.
  Matrix<std::uint8_t> zeros_packed;

  [[nodiscard]] bool asymmetric() const { return zeros_packed.size() > 0; }

  [[nodiscard]] index_t num_slabs() const { return k / kSlabRows; }
  [[nodiscard]] index_t num_chunks() const { return n / kChunkCols; }
  [[nodiscard]] std::size_t packed_index(index_t slab, index_t chunk, int lane,
                                         int block) const {
    return static_cast<std::size_t>(
        ((slab * num_chunks() + chunk) * 32 + lane) * 4 + block);
  }
  /// Storage bytes of the packed weight stream (0.5 B/weight).
  [[nodiscard]] std::int64_t weight_bytes() const {
    return static_cast<std::int64_t>(packed.size()) * 4;
  }
  [[nodiscard]] std::int64_t scale_bytes() const {
    return scales_packed.size() * 2;
  }
};

/// Permutation within a 64-column chunk: packed position -> original column.
[[nodiscard]] std::array<int, 64> scale_chunk_perm();

/// Repack unpacked quantized weights (K divisible by 16, N by 64) into the
/// MARLIN format. This is the "conversion script" equivalent for GPTQ
/// checkpoints (paper §3.5).
MarlinWeights marlin_repack(const quant::QuantizedWeights& q);

/// AWQ repack: same tile/interleave layout plus packed zero points. The
/// stored stream quantizes the channel-scaled W'; activations must be
/// divided by `channel_scale` upstream (returned unchanged for the caller).
/// Test-only until bench_ext_awq runs it: Awq.MarlinRepackRoundTrip.
MarlinWeights marlin_repack_awq(const quant::AsymmetricQuantizedWeights& q);

/// Reference inverse: fully dequantise a MarlinWeights back to K x N floats
/// (bit-identical to QuantizedWeights::dequantize of the source; for AWQ,
/// to the *scaled* weights W'). Test-only: RepackRoundTrip.* and Awq.*.
Matrix<float> marlin_unpack_dequant(const MarlinWeights& mw);

}  // namespace marlin::layout
