#pragma once
// Ref-counted KV block handle.
//
// `SequenceBlocks` is what a sequence holds instead of a naked
// `std::vector<index_t>` of block ids: the ids are still there (read-only
// for callers), but every mutation — acquiring blocks, growing, forking,
// releasing — goes through the `BlockManager`, which keeps a per-block
// refcount. Two sequences may therefore reference the same physical
// block (a shared prompt prefix, or a copy-on-write fork of an n>1
// sampling request); the block returns to the free list (or to the
// prefix cache's LRU) only when the last reference is released.
//
// The handle also carries a writable mark: the token range it can write
// without an allocation or a copy, because every block in it is held by
// this handle alone and unpublished. A successful `grow_to` sets it and
// every other mutation of the handle clears it, so a decode step that
// stays inside its last block costs one comparison.
//
// Copying the struct copies the id list but does NOT acquire references —
// use `BlockManager::fork` for a real shared handle. The manager's
// double-release guard turns an accidentally copied-and-released handle
// into an error instead of silent corruption.

#include <cstddef>
#include <limits>
#include <vector>

#include "util/matrix.hpp"

namespace marlin::serve::sched {

class BlockManager;

/// Handle to the KV blocks one sequence references (see header comment).
class SequenceBlocks {
 public:
  /// Block ids in sequence order, for pricing and tests. Mutation is the
  /// BlockManager's job.
  [[nodiscard]] const std::vector<index_t>& ids() const { return ids_; }
  /// Blocks referenced.
  [[nodiscard]] index_t count() const {
    return static_cast<index_t>(ids_.size());
  }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  /// Pre-sizes the id vector (reserve-to-lifetime keeps the steady-state
  /// decode tick allocation-free).
  void reserve(std::size_t blocks) { ids_.reserve(blocks); }
  /// Leading blocks served from the prefix cache at the last admission
  /// (refcount++ instead of a fresh allocation + recomputed prefill).
  [[nodiscard]] index_t cached_prefix_blocks() const { return cached_prefix_; }
  /// The writable mark's end: tokens up to it can be written without an
  /// allocation or a copy (below any token count while the mark is
  /// cleared).
  [[nodiscard]] index_t writable_end() const { return writable_end_; }

 private:
  friend class BlockManager;
  /// Clears the writable mark: no write passes the fast check.
  void forget_writable() {
    write_from_ = std::numeric_limits<index_t>::max();
    writable_end_ = std::numeric_limits<index_t>::min();
  }

  std::vector<index_t> ids_;
  index_t cached_prefix_ = 0;
  /// Writable mark: the blocks holding tokens [write_from_, writable_end_)
  /// are held by this handle alone and unpublished, and writable_end_ is
  /// the token capacity of `ids_`. Cleared (empty range) by default.
  index_t write_from_ = std::numeric_limits<index_t>::max();
  index_t writable_end_ = std::numeric_limits<index_t>::min();
};

}  // namespace marlin::serve::sched
