#pragma once
// Thread <-> matrix-element mappings for Ampere mma.sync.m16n8k16 fragments
// (PTX ISA §9.7.13; "Warp-level matrix fragment" layouts).
//
// These mappings are dictated by the microarchitecture: each of the 32
// threads of a warp holds a fixed set of elements of the A (16x16), B
// (16x8) and C/D (16x8) operands. MARLIN's offline weight reshuffle is
// defined *in terms of* this mapping: the 16-byte vector each thread loads
// must contain exactly its B-fragment weights for four separate 16x16
// weight blocks (paper §3.4).

#include <cstdint>

#include "util/error.hpp"

namespace marlin::layout {

struct Coord {
  int row = 0;
  int col = 0;
};

// The three mma operand maps are test-only (Fragment.*); the repack and the
// kernel use weight_block16_coord.

/// A operand (m16 x k16, FP16): 8 elements per thread, indices 0..7.
[[nodiscard]] constexpr Coord mma_a_coord(int lane, int idx) {
  const int group = lane >> 2;         // 0..7
  const int tig = lane & 3;            // thread-in-group 0..3
  const int row = group + ((idx & 2) ? 8 : 0);
  const int col = tig * 2 + (idx & 1) + ((idx & 4) ? 8 : 0);
  return {row, col};
}

/// B operand (k16 x n8, FP16): 4 elements per thread, indices 0..3.
[[nodiscard]] constexpr Coord mma_b_coord(int lane, int idx) {
  const int group = lane >> 2;
  const int tig = lane & 3;
  const int row = tig * 2 + (idx & 1) + ((idx & 2) ? 8 : 0);
  const int col = group;
  return {row, col};
}

/// C/D accumulator (m16 x n8, FP32): 4 elements per thread, indices 0..3.
[[nodiscard]] constexpr Coord mma_c_coord(int lane, int idx) {
  const int group = lane >> 2;
  const int tig = lane & 3;
  const int row = group + ((idx & 2) ? 8 : 0);
  const int col = tig * 2 + (idx & 1);
  return {row, col};
}

/// A 16x16 *weight* block feeds two k16n8 mma B-operands (n = 0..7 and
/// n = 8..15). Per thread that is 8 weights; logical order within the
/// thread's packed register: first the n8-block 0 fragment (idx 0..3), then
/// the n8-block 1 fragment (idx 0..3).
[[nodiscard]] constexpr Coord weight_block16_coord(int lane, int w) {
  MARLIN_ASSERT(w >= 0 && w < 8);
  const Coord c = mma_b_coord(lane, w & 3);
  return {c.row, c.col + ((w & 4) ? 8 : 0)};
}

}  // namespace marlin::layout
