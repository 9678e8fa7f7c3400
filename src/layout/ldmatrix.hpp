#pragma once
// Emulation of the ldmatrix.sync.aligned.m8n8.x4 address pattern.
//
// ldmatrix loads four 8x8 FP16 matrices from shared memory: thread t
// supplies the byte address of one 16-byte row (threads 0-7 address the
// rows of sub-matrix 0, 8-15 of sub-matrix 1, ...). For MARLIN's A operand
// a 16x16 block is fetched as the four 8x8 quadrants in the order
// (top-left, bottom-left, top-right, bottom-right), matching the a0..a7
// fragment layout. The generated addresses are what the SMEM bank model
// checks for conflicts.
// Test-only: Swizzle.LdmatrixConflictFreeWhereLinearIsNot and
// Swizzle.StoreOfContiguousRowsConflictFree are its callers.

#include <array>
#include <cstdint>

#include "layout/swizzle.hpp"

namespace marlin::layout {

/// Byte addresses supplied by all 32 threads for one 16x16 A block whose
/// top-left logical vector coordinate is (block_row16 * 16, block_vcol * 2)
/// inside a SMEM tile of `vectors_per_row` 16-byte vectors per row.
/// `swizzled` selects the i(i^j) layout (true) or the linear layout (false).
[[nodiscard]] inline std::array<std::uint64_t, 32> ldmatrix_x4_addresses(
    int block_row16, int block_vcol, int vectors_per_row, bool swizzled) {
  std::array<std::uint64_t, 32> addr{};
  for (int t = 0; t < 32; ++t) {
    const int sub = t / 8;       // which 8x8 sub-matrix
    const int r = t % 8;         // row within the sub-matrix
    const int row = block_row16 * 16 + (sub % 2) * 8 + r;
    const int vcol = block_vcol * 2 + sub / 2;
    addr[static_cast<std::size_t>(t)] =
        swizzled ? swizzled_offset_bytes(row, vcol, vectors_per_row)
                 : linear_offset_bytes(row, vcol, vectors_per_row);
  }
  return addr;
}

/// Byte addresses for a warp's cp.async *write* of a contiguous row range:
/// thread t writes logical vector (row0 + t / vectors_per_row,
/// t % vectors_per_row). This is how the global->shared copy of A lands in
/// SMEM; with the swizzle it must also be conflict-free (paper §3.4 notes
/// this undocumented requirement).
[[nodiscard]] inline std::array<std::uint64_t, 32> smem_store_addresses(
    int row0, int vectors_per_row, bool swizzled) {
  std::array<std::uint64_t, 32> addr{};
  for (int t = 0; t < 32; ++t) {
    const int row = row0 + t / vectors_per_row;
    const int col = t % vectors_per_row;
    addr[static_cast<std::size_t>(t)] =
        swizzled ? swizzled_offset_bytes(row, col, vectors_per_row)
                 : linear_offset_bytes(row, col, vectors_per_row);
  }
  return addr;
}

}  // namespace marlin::layout
