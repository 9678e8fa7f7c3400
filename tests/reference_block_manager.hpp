#pragma once
// Test-only reference for the paged KV block manager: `BlockManager` and
// its `SequenceBlocks` handle as they stood when every `grow_to` call
// scanned its write range for shared blocks, however few tokens it added,
// and the constructor reserved every per-id array to the full block
// budget. Kept verbatim so the optimized manager can be driven through
// random operation sequences beside it and compared for bit-equal block
// ids and counters after every operation.
//
// Shares the live `BlockManagerConfig`, `PrefixCacheConfig` and
// `kNoQuota`; everything else is a frozen copy.

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/sched/block_manager.hpp"

namespace marlin::serve::sched::reference {

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

 private:
  friend class BlockManager;
  std::vector<index_t> ids_;
  index_t cached_prefix_ = 0;
};

class BlockManager {
 public:
  explicit BlockManager(BlockManagerConfig cfg);

  [[nodiscard]] const BlockManagerConfig& config() const { return cfg_; }
  [[nodiscard]] index_t block_size() const { return cfg_.block_size; }
  [[nodiscard]] bool unlimited() const { return cfg_.num_blocks == 0; }
  [[nodiscard]] index_t total_blocks() const { return cfg_.num_blocks; }
  /// Blocks with at least one live reference. Cached (refcount-0 LRU)
  /// blocks do not count — they are reclaimable on demand.
  [[nodiscard]] index_t used_blocks() const { return used_; }
  /// Budget headroom: total minus used. Blocks parked in the prefix
  /// cache's LRU count as free — allocation evicts them transparently.
  [[nodiscard]] index_t free_blocks() const;
  [[nodiscard]] index_t watermark_blocks() const { return watermark_blocks_; }
  /// High-water mark of blocks simultaneously referenced.
  [[nodiscard]] index_t peak_used_blocks() const { return peak_used_; }

  // Cumulative traffic counters for the observability layer (plain
  // increments on the allocation paths — recording off or on, they cost
  // the same and allocate nothing).

  /// Total physical blocks handed out (fresh allocations and CoW copies;
  /// prefix-cache hits are counted in `prefix_cache_hit_blocks` instead).
  [[nodiscard]] index_t blocks_allocated_total() const {
    return allocated_total_;
  }
  /// Total physical blocks whose refcount dropped to zero (returned to
  /// the free list or parked in the prefix cache).
  [[nodiscard]] index_t blocks_freed_total() const { return freed_total_; }
  /// `grow_to` calls the budget refused — the scheduler preempts on each.
  [[nodiscard]] index_t grow_failures() const { return grow_failures_; }

  // Prefix-cache / sharing counters.

  /// Admission-time block lookups against the prefix table.
  [[nodiscard]] index_t prefix_cache_lookup_blocks() const {
    return prefix_lookups_total_;
  }
  /// Lookups served by an existing block (refcount++ instead of a fresh
  /// allocation + recomputed prefill) — the "blocks saved" figure.
  [[nodiscard]] index_t prefix_cache_hit_blocks() const {
    return prefix_hits_total_;
  }
  /// Cached blocks reclaimed into the free list under pressure.
  [[nodiscard]] index_t prefix_cache_evictions() const {
    return prefix_evictions_total_;
  }
  /// `fork` calls (one per extra sequence sharing a prompt).
  [[nodiscard]] index_t cow_forks() const { return cow_forks_total_; }
  /// Shared blocks copied before a write (the CoW split points).
  [[nodiscard]] index_t cow_copies() const { return cow_copies_total_; }
  /// Blocks currently parked in the LRU (refcount 0, content cached).
  [[nodiscard]] index_t cached_blocks() const { return cached_; }

  /// Blocks needed to hold `tokens` tokens of KV.
  [[nodiscard]] index_t blocks_for_tokens(index_t tokens) const;

  /// Watermark admission rule: can a sequence that prefills `tokens`
  /// tokens be admitted while leaving the reserve free?
  [[nodiscard]] bool can_admit(index_t tokens) const;
  /// Plain capacity check (decode growth — may consume the reserve).
  [[nodiscard]] bool can_allocate(index_t n) const;

  // ---- handle API ------------------------------------------------------

  /// Appends `n` fresh blocks to `seq` on `tenant`'s account; throws if
  /// the budget cannot cover them (soft quotas never fail an allocation).
  /// The single entry point that replaced the `allocate`/`allocate_into`
  /// pair: callers reserve `seq` to lifetime capacity up front, so a
  /// steady-state decode tick performs no heap allocation.
  void acquire(SequenceBlocks& seq, index_t n, index_t tenant = 0);

  /// Prefill-admission variant: `chain[j]` is the chained content hash of
  /// prompt block j (see `Request::append_prefix_chain`); `chain` may
  /// cover at most the first `n` blocks. The leading run of published
  /// matches is referenced from the cache, the remaining blocks are
  /// allocated fresh with their chain hashes attached (published when
  /// `publish` is called after prefill completes). Returns the number of
  /// cached blocks reused, also recorded as `seq.cached_prefix_blocks()`.
  index_t acquire_prefill(SequenceBlocks& seq, index_t n,
                          const std::vector<std::uint64_t>& chain,
                          index_t tenant = 0);

  /// Makes the hashed blocks of a fully prefilled sequence hittable.
  /// First publisher of a hash wins; a concurrent duplicate's blocks
  /// simply lose their hash and free normally. No-op when the cache is
  /// off.
  void publish(const SequenceBlocks& seq);

  /// Leading blocks of `chain` currently published (live or parked) —
  /// what an admission of this prefix would reuse. Read-only: refcounts
  /// and LRU order are untouched. The cluster router's prefix-affinity
  /// probe.
  [[nodiscard]] index_t cached_chain_blocks(
      const std::vector<std::uint64_t>& chain) const;

  /// Releases every reference `seq` holds on `tenant`'s account and
  /// clears the handle. Last-reference published blocks park in the LRU
  /// (deepest chain position first in eviction order); others return to
  /// the free list. Releasing a block the tenant does not hold throws
  /// (double-release guard).
  void release(SequenceBlocks& seq, index_t tenant = 0);

  /// New handle referencing every block of `parent` (refcount++ on each,
  /// no physical allocation) on `tenant`'s account — the n>1 sampling
  /// fork. `reserve_blocks` pre-sizes the child handle (0 = parent size).
  [[nodiscard]] SequenceBlocks fork(const SequenceBlocks& parent,
                                    index_t tenant = 0,
                                    index_t reserve_blocks = 0);

  /// Grows `seq` so it covers `tokens` tokens on `tenant`'s account,
  /// appending missing tail blocks and copy-on-write-copying any shared
  /// (or published) block the write range [`covered_tokens`, `tokens`)
  /// touches. `covered_tokens` is the KV the sequence has already
  /// written; pass `tokens` when only appending. Returns false (holdings
  /// untouched) if the budget cannot cover appends + copies.
  [[nodiscard]] bool grow_to(SequenceBlocks& seq, index_t tokens,
                             index_t covered_tokens, index_t tenant = 0);

  // ---- per-tenant quota accounting -------------------------------------

  /// Blocks charged to `tenant` (shared blocks charge their last-acquired
  /// live holder — see the header's charging rule).
  [[nodiscard]] index_t tenant_used_blocks(index_t tenant) const;
  /// True when the tenant carries a configured quota.
  [[nodiscard]] bool has_quota(index_t tenant) const;
  /// The tenant's *effective* quota: the configured value capped by the
  /// total budget (a quota cannot promise more than the cache holds).
  /// Returns kNoQuota for unquoted tenants.
  [[nodiscard]] index_t effective_quota(index_t tenant) const;
  /// Blocks the tenant holds beyond its effective quota (0 for unquoted
  /// or within-quota tenants) — the scheduler's reclaim preference key.
  [[nodiscard]] index_t over_quota_blocks(index_t tenant) const;
  /// Would `tenant` stay within its quota after `extra` more blocks?
  /// Unquoted tenants always fit.
  [[nodiscard]] bool within_quota(index_t tenant, index_t extra) const;

 private:
  /// Hasher for the prefix table: keys are already mix64 chain outputs,
  /// so identity is uniform. The table is never iterated — determinism
  /// cannot depend on bucket order.
  struct IdentityHash {
    std::size_t operator()(std::uint64_t x) const {
      return static_cast<std::size_t>(x);
    }
  };

  [[nodiscard]] bool cache_on() const { return cfg_.prefix_cache.enabled; }
  /// Grows the per-id state arrays to cover a freshly minted `id`.
  void ensure_id(index_t id);
  /// Pops a free block id: a returned id first (LIFO); then, bounded, a
  /// fresh id while any is unminted and LRU eviction after; unlimited,
  /// LRU eviction and then a fresh id.
  [[nodiscard]] index_t pop_free_block();
  /// `tenant`'s charge-accounting slot, grown on first appearance.
  [[nodiscard]] index_t& tenant_slot(index_t tenant);
  /// Pops a recycled holder node (or mints one) carrying `tenant`.
  [[nodiscard]] index_t new_holder_node(index_t tenant);
  /// refcount++ with last-toucher charging; resurrects parked blocks.
  void acquire_ref(index_t id, index_t tenant);
  /// refcount-- with charge fallback; at zero, parks or frees the block.
  void release_ref(index_t id, index_t tenant);
  /// Drops a refcount-0 block's cache identity and frees its id.
  void scrub_to_free(index_t id);
  void lru_push_back(index_t id);
  void lru_remove(index_t id);
  /// Reclaims the LRU head into the free list.
  void evict_one();
  /// Raw-id bodies shared by the handle API (acquire/release/fork/CoW).
  void acquire_ids(std::vector<index_t>& out, index_t n, index_t tenant);
  void release_ids(std::vector<index_t>& ids, index_t tenant);

  BlockManagerConfig cfg_;
  index_t watermark_blocks_ = 0;
  index_t used_ = 0;
  index_t peak_used_ = 0;
  index_t allocated_total_ = 0;
  index_t freed_total_ = 0;
  index_t grow_failures_ = 0;
  index_t prefix_lookups_total_ = 0;
  index_t prefix_hits_total_ = 0;
  index_t prefix_evictions_total_ = 0;
  index_t cow_forks_total_ = 0;
  index_t cow_copies_total_ = 0;
  std::vector<index_t> free_list_;  // returned ids ready to reuse
  index_t next_fresh_ = 0;          // next never-minted id

  // Per-id state (indexed by block id; grown as ids are minted — within
  // the reserved capacity in bounded mode).
  std::vector<index_t> refcount_;
  /// Chain hash per id; meaningful iff `hashed_[id]`.
  std::vector<std::uint64_t> hash_;
  std::vector<std::uint8_t> hashed_;     // id carries a chain hash
  std::vector<std::uint8_t> published_;  // id owns the table_ entry
  std::vector<std::uint8_t> parked_;     // id sits in the LRU (refcount 0)
  std::vector<index_t> lru_prev_, lru_next_;  // -1-terminated, iff parked
  /// Holder stacks, stored as intrusive linked nodes in one shared pool.
  /// (A vector-of-vectors here costs one heap allocation per block id at
  /// construction — tens of milliseconds for HBM-derived budgets.)
  /// `holder_head_[id]` tops id's stack with the most recently acquired
  /// live holder — the charged tenant of the last-toucher rule — and
  /// nodes link toward older holders through `node_next_`. Freed nodes
  /// recycle through `node_free_head_`; the pool is pre-reserved to 2x
  /// the budget so steady-state reference traffic never allocates
  /// (heavier sharing grows it geometrically, amortized).
  std::vector<index_t> node_tenant_;
  std::vector<index_t> node_next_;
  index_t node_free_head_ = -1;
  std::vector<index_t> holder_head_;

  index_t lru_head_ = -1;  // next to evict
  index_t lru_tail_ = -1;  // most recently parked
  index_t cached_ = 0;     // blocks parked in the LRU
  /// hash -> published block id. Never iterated (see IdentityHash).
  std::unordered_map<std::uint64_t, index_t, IdentityHash> table_;

  std::map<index_t, index_t> quotas_;  // tenant -> configured quota
  /// Blocks charged per tenant, indexed by tenant id (ids are small and
  /// dense). A flat array keeps the per-block charge transfer of the
  /// last-toucher rule off the hot path's map; grown only when a new
  /// tenant id first appears, so steady-state traffic never allocates.
  std::vector<index_t> tenant_used_;
};

}  // namespace marlin::serve::sched::reference
