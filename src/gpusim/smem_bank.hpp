#pragma once
// Shared-memory bank conflict model.
//
// Ampere shared memory has 32 banks of 4-byte words. A warp-wide access is
// split into phases; for 128-bit (16-byte) per-thread accesses the hardware
// issues 4 phases of 8 threads each. Within one phase, the number of
// serialised transactions equals the maximum number of *distinct* 16-byte
// chunks that fall into the same bank group. The MARLIN shared-memory
// layout for A (the i(i XOR j) swizzle, paper §3.4) is designed so that
// both the ldmatrix reads and the cp.async writes are conflict-free; the
// layout tests verify this against this model.
// Test-only: SmemBank.* and Swizzle.* are its callers.

#include <cstdint>
#include <span>

namespace marlin::gpusim {

inline constexpr int kNumBanks = 32;
inline constexpr int kBankWidthBytes = 4;

/// Number of serialised transactions for one phase of 16-byte accesses.
/// `byte_addresses` holds the base address of each thread's 16-byte access.
/// Conflict-free == 1.
[[nodiscard]] int phase_conflict_transactions(
    std::span<const std::uint64_t> byte_addresses);

/// Full warp access of 32 threads x 16 bytes, split into 4 phases of 8
/// threads (hardware order: threads 0-7, 8-15, 16-23, 24-31). Returns the
/// *maximum* transactions over phases; 1 means the whole access is
/// conflict-free.
[[nodiscard]] int warp_conflict_transactions(
    std::span<const std::uint64_t, 32> byte_addresses);

}  // namespace marlin::gpusim
