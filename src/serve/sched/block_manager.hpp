#pragma once
// Paged KV-cache accounting (vLLM-style block manager) with ref-counted
// block sharing and a hashed prefix cache.
//
// The KV cache is carved into fixed-size blocks of `block_size` tokens; a
// sequence references ceil(tokens / block_size) blocks through a
// `SequenceBlocks` handle. Every physical block carries a refcount, so
// blocks can be shared: `fork` hands a second sequence references to the
// same blocks (n>1 sampling shares the prompt), and the prefix cache
// serves admission lookups by bumping refcounts instead of allocating.
// `release` decrements; a block leaves circulation only at refcount 0.
//
// Admission applies a watermark rule: a new sequence is admitted only if
// its prefill allocation leaves `watermark` of the budget free, so running
// sequences have headroom to grow before the scheduler must preempt.
// Decode-time growth may dip into the watermark reserve. A budget of 0
// blocks means "unlimited" — allocation never fails, but ids and peak
// usage are still tracked (the pre-subsystem goldens configuration).
//
// Prefix cache: full prompt blocks are keyed by a chained content hash
// h_j = mix64(h_{j-1} ^ key_j) (the pinned splitmix64 mixer from
// util/hash.hpp — never std::hash, whose values are implementation-
// defined). A block's hash is assigned at admission but only *published*
// into the lookup table when its prefill completes — un-computed KV must
// not be hittable. When the last reference to a published block is
// released the block is not freed: it parks in an LRU list ("cached"),
// still counted as free budget, and is reclaimed into the free list on
// allocation pressure — deepest chain positions first — before any
// admission fails. A later identical prefix resurrects it with a
// refcount++ and skips recomputing that prefill chunk.
//
// Copy-on-write: growth declares the token range the sequence will write;
// any referenced block in that range that is shared (or published) is
// copied to a fresh block first, so forked sequences split only at their
// first divergent token.
//
// Multi-tenant quotas are soft (see `tenant.hpp`): a tenant past its
// quota is borrowing, and the scheduler reclaims from the most over-quota
// tenant when the cache runs dry. Charging rule for *shared* blocks: a
// physical block is charged to exactly one tenant at a time — the holder
// of the most recently acquired still-live reference ("last toucher
// pays"); releasing that reference moves the charge back to the previous
// holder. With sharing disabled this degenerates to the classic
// "allocator pays" rule.
//
// The real budget comes from the device: HBM capacity minus resident
// weights minus an activation reserve, divided by the per-token KV bytes
// of the model (see `derive_kv_block_budget`).

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/engine.hpp"
#include "serve/sched/counters.hpp"
#include "serve/sched/sequence_blocks.hpp"
#include "serve/sched/tenant.hpp"
#include "util/hash.hpp"
#include "util/matrix.hpp"

namespace marlin::serve::sched {

/// Hashed-prefix-cache knobs (disabled by default: the manager then
/// behaves bit-for-bit like the pre-cache allocator).
struct PrefixCacheConfig {
  /// Master switch: hash prompt blocks, serve admission lookups, park
  /// released published blocks in the LRU instead of freeing them.
  bool enabled = false;
  /// Cap on blocks parked in the LRU (0 = bounded only by the budget).
  index_t max_cached_blocks = 0;
  /// Minimum *full* shared-prefix blocks a request must carry before the
  /// cache engages for it — sub-block prefixes cannot be shared.
  index_t min_prefix_blocks = 1;

  /// Throws on out-of-range values.
  void validate() const;
};

struct BlockManagerConfig {
  index_t block_size = 16;  // tokens per KV block
  index_t num_blocks = 0;   // 0 = unlimited
  /// Fraction of the budget that must stay free after an admission.
  double watermark = 0.01;
  /// Soft per-tenant block quotas: `{tenant id, blocks}`. Tenants absent
  /// from the list are unquoted. See the header comment for semantics.
  std::vector<std::pair<index_t, index_t>> tenant_quotas;
  /// Hashed prefix cache (off by default).
  PrefixCacheConfig prefix_cache;
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

  /// Cumulative KV traffic (plain increments on the allocation paths —
  /// recording off or on, they cost the same and allocate nothing).
  [[nodiscard]] const KvCounters& counters() const { return counters_; }
  // Flat reads of five of them: `perfbench/driver.cpp` reads these names.
  [[nodiscard]] index_t prefix_cache_lookup_blocks() const {
    return counters_.prefix_cache_lookup_blocks;
  }
  [[nodiscard]] index_t prefix_cache_hit_blocks() const {
    return counters_.prefix_cache_hit_blocks;
  }
  [[nodiscard]] index_t prefix_cache_evictions() const {
    return counters_.prefix_cache_evictions;
  }
  [[nodiscard]] index_t cow_forks() const { return counters_.cow_forks; }
  [[nodiscard]] index_t cow_copies() const { return counters_.cow_copies; }
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
  void publish(SequenceBlocks& seq);

  /// Leading blocks of `chain` currently published (live or parked) —
  /// what an admission of this prefix would reuse. Read-only: refcounts
  /// and LRU order are untouched. Test-only: a white-box observer for
  /// PrefixCache.* and BlockManagerReference.
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
  [[nodiscard]] SequenceBlocks fork(SequenceBlocks& parent,
                                    index_t tenant = 0,
                                    index_t reserve_blocks = 0);

  /// Grows `seq` so it covers `tokens` tokens on `tenant`'s account,
  /// appending missing tail blocks and copy-on-write-copying any shared
  /// (or published) block the write range [`covered_tokens`, `tokens`)
  /// touches. `covered_tokens` is the KV the sequence has already
  /// written; pass `tokens` when only appending. Returns false (holdings
  /// untouched) if the budget cannot cover appends + copies.
  ///
  /// A write inside the handle's writable mark (see sequence_blocks.hpp)
  /// needs neither and returns at once; only the rest scan the write
  /// range (`KvCounters::kv_grow_scans`).
  [[nodiscard]] bool grow_to(SequenceBlocks& seq, index_t tokens,
                             index_t covered_tokens, index_t tenant = 0) {
    if (tokens <= seq.writable_end_ && covered_tokens >= seq.write_from_) {
      return true;
    }
    return grow_scan(seq, tokens, covered_tokens, tenant);
  }

  // ---- per-tenant quota accounting -------------------------------------

  /// Blocks charged to `tenant` (shared blocks charge their last-acquired
  /// live holder — see the header's charging rule).
  [[nodiscard]] index_t tenant_used_blocks(index_t tenant) const;
  /// True when the tenant carries a configured quota. Test-only:
  /// TenantQuota.* reads it.
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
  /// `grow_to` past the writable-mark check: scans the write range,
  /// copies and appends, and sets the mark on success.
  [[nodiscard]] bool grow_scan(SequenceBlocks& seq, index_t tokens,
                               index_t covered_tokens, index_t tenant);
  /// Raw-id bodies shared by the handle API (acquire/release/fork/CoW).
  void acquire_ids(std::vector<index_t>& out, index_t n, index_t tenant);
  void release_ids(std::vector<index_t>& ids, index_t tenant);

  BlockManagerConfig cfg_;
  index_t watermark_blocks_ = 0;
  index_t used_ = 0;
  index_t peak_used_ = 0;
  KvCounters counters_;
  std::vector<index_t> free_list_;  // returned ids ready to reuse
  index_t next_fresh_ = 0;          // next never-minted id

  // Per-id state (indexed by block id; grown geometrically as ids are
  // minted, so a replica pays for the blocks it hands out, not for its
  // budget).
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
  /// recycle through `node_free_head_`; the pool grows geometrically with
  /// the peak number of live references, so steady-state reference
  /// traffic never allocates.
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

/// Shared budget arithmetic: paged KV blocks of `block_size` tokens that
/// fit in `hbm_bytes` beside `weight_bytes` of resident weights, holding
/// back 10% of HBM for activations. The headroom is clamped at zero and a
/// clear deficit error is thrown — a negative headroom must never reach the
/// block-count cast and underflow (reachable once tensor-parallel sharding
/// shrinks per-rank weights asymmetrically). `what` names the model/rank
/// for the message.
[[nodiscard]] index_t kv_blocks_that_fit(double hbm_bytes, double weight_bytes,
                                         double kv_bytes_per_token,
                                         index_t block_size,
                                         const std::string& what);

/// Per-GPU KV block budget of `engine` on its configured device: HBM bytes
/// minus resident weights (`Engine::weight_bytes` of the whole model, so
/// the embedding and LM head at FP16) minus the activation reserve,
/// divided by the bytes one block of KV occupies. Equals the one-rank
/// `ParallelEngine::min_kv_block_budget`. Throws if the weights alone
/// overflow the device.
[[nodiscard]] index_t derive_kv_block_budget(const Engine& engine,
                                             index_t block_size);

}  // namespace marlin::serve::sched
