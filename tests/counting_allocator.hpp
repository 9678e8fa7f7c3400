#pragma once
// Counting global allocator: linking counting_allocator.cpp into a test
// binary replaces every operator new there with one that bumps relaxed
// call and byte counters, so a test can assert that a code window
// performed zero heap allocations, or how many bytes it asked for.

#include <cstdint>

/// operator new calls so far in this process.
std::uint64_t alloc_count();
/// Bytes asked of operator new so far in this process.
std::uint64_t alloc_bytes();
