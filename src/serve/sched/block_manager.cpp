#include "serve/sched/block_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace marlin::serve::sched {

namespace {
std::size_t uz(index_t i) { return static_cast<std::size_t>(i); }
}  // namespace

void PrefixCacheConfig::validate() const {
  MARLIN_CHECK(max_cached_blocks >= 0, "max cached blocks must be >= 0");
  MARLIN_CHECK(min_prefix_blocks >= 1, "min prefix blocks must be >= 1");
}

BlockManager::BlockManager(BlockManagerConfig cfg) : cfg_(std::move(cfg)) {
  MARLIN_CHECK(cfg_.block_size >= 1, "block size must be >= 1 token");
  MARLIN_CHECK(cfg_.num_blocks >= 0, "negative block budget");
  MARLIN_CHECK(cfg_.watermark >= 0.0 && cfg_.watermark < 1.0,
               "watermark must be in [0, 1)");
  cfg_.prefix_cache.validate();
  // Nothing is reserved for the budget: ids are minted on first use and
  // the per-id arrays grow with them, so a replica pays memory only for
  // the blocks it hands out (a budget-sized reservation costs ~83 B per
  // block per replica even if the blocks are never used).
  if (!unlimited()) {
    watermark_blocks_ = static_cast<index_t>(
        std::ceil(cfg_.watermark * static_cast<double>(cfg_.num_blocks)));
  }
  for (const auto& [tenant, quota] : cfg_.tenant_quotas) {
    MARLIN_CHECK(tenant >= 0, "tenant id must be >= 0");
    MARLIN_CHECK(quota >= 0, "tenant " << tenant
                                       << " quota must be >= 0 blocks");
    MARLIN_CHECK(!quotas_.contains(tenant),
                 "duplicate quota for tenant " << tenant);
    quotas_[tenant] = quota;
  }
}

index_t BlockManager::free_blocks() const {
  if (unlimited()) return std::numeric_limits<index_t>::max() / 2;
  // Parked (refcount-0 prefix-cached) blocks count as free: allocation
  // evicts them on demand before ever failing.
  return cfg_.num_blocks - used_;
}

index_t BlockManager::blocks_for_tokens(index_t tokens) const {
  return (tokens + cfg_.block_size - 1) / cfg_.block_size;
}

bool BlockManager::can_admit(index_t tokens) const {
  if (unlimited()) return true;
  return blocks_for_tokens(tokens) + watermark_blocks_ <= free_blocks();
}

bool BlockManager::can_allocate(index_t n) const {
  return unlimited() || n <= free_blocks();
}

void BlockManager::ensure_id(index_t id) {
  const std::size_t need = uz(id) + 1;
  if (refcount_.size() >= need) return;
  refcount_.resize(need, 0);
  hash_.resize(need, 0);
  hashed_.resize(need, 0);
  published_.resize(need, 0);
  parked_.resize(need, 0);
  lru_prev_.resize(need, -1);
  lru_next_.resize(need, -1);
  holder_head_.resize(need, -1);
}

index_t BlockManager::pop_free_block() {
  // Returned ids first (LIFO). A bounded budget then mints its unseen ids
  // in ascending order and reclaims the LRU's oldest parked block only
  // once all are minted; an unlimited cache reclaims before minting.
  const bool mint_first = !unlimited() && next_fresh_ < cfg_.num_blocks;
  if (free_list_.empty() && !mint_first && cached_ > 0) evict_one();
  if (!free_list_.empty()) {
    const index_t id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  MARLIN_ASSERT(unlimited() || mint_first);
  const index_t id = next_fresh_++;
  ensure_id(id);
  return id;
}

index_t& BlockManager::tenant_slot(index_t tenant) {
  if (uz(tenant) >= tenant_used_.size()) {
    tenant_used_.resize(uz(tenant) + 1, 0);
  }
  return tenant_used_[uz(tenant)];
}

index_t BlockManager::new_holder_node(index_t tenant) {
  if (node_free_head_ >= 0) {
    const index_t node = node_free_head_;
    node_free_head_ = node_next_[uz(node)];
    node_tenant_[uz(node)] = tenant;
    return node;
  }
  const auto node = static_cast<index_t>(node_tenant_.size());
  node_tenant_.push_back(tenant);
  node_next_.push_back(-1);
  return node;
}

void BlockManager::acquire_ref(index_t id, index_t tenant) {
  if (refcount_[uz(id)] == 0) {
    if (parked_[uz(id)] != 0) {  // resurrected from the prefix cache
      lru_remove(id);
      parked_[uz(id)] = 0;
      --cached_;
    }
    ++used_;
    peak_used_ = std::max(peak_used_, used_);
    ++counters_.kv_blocks_allocated;
  } else {
    // Last toucher pays: the charge moves from the previous top holder.
    tenant_slot(node_tenant_[uz(holder_head_[uz(id)])]) -= 1;
  }
  tenant_slot(tenant) += 1;
  const index_t node = new_holder_node(tenant);
  node_next_[uz(node)] = holder_head_[uz(id)];
  holder_head_[uz(id)] = node;
  ++refcount_[uz(id)];
}

void BlockManager::release_ref(index_t id, index_t tenant) {
  MARLIN_CHECK(id >= 0 && id < static_cast<index_t>(refcount_.size()) &&
                   refcount_[uz(id)] > 0,
               "double-release or foreign KV block id " << id);
  // Walk the stack from the most recent holder toward older ones and
  // drop the first reference `tenant` holds.
  index_t prev = -1;
  index_t node = holder_head_[uz(id)];
  while (node >= 0 && node_tenant_[uz(node)] != tenant) {
    prev = node;
    node = node_next_[uz(node)];
  }
  MARLIN_CHECK(node >= 0, "tenant " << tenant << " releases KV block " << id
                                    << " it does not hold");
  if (prev < 0) {
    holder_head_[uz(id)] = node_next_[uz(node)];
    tenant_slot(tenant) -= 1;
    // The charge falls back to the previous holder (if any remain).
    if (holder_head_[uz(id)] >= 0) {
      tenant_slot(node_tenant_[uz(holder_head_[uz(id)])]) += 1;
    }
  } else {
    // A non-top reference never carried the charge.
    node_next_[uz(prev)] = node_next_[uz(node)];
  }
  node_next_[uz(node)] = node_free_head_;  // recycle
  node_free_head_ = node;
  if (--refcount_[uz(id)] == 0) {
    --used_;
    ++counters_.kv_blocks_freed;
    if (cache_on() && published_[uz(id)] != 0) {
      // Park instead of free: the content stays hittable until pressure
      // reclaims it.
      parked_[uz(id)] = 1;
      lru_push_back(id);
      ++cached_;
      if (cfg_.prefix_cache.max_cached_blocks > 0 &&
          cached_ > cfg_.prefix_cache.max_cached_blocks) {
        evict_one();
      }
    } else {
      scrub_to_free(id);
    }
  }
}

void BlockManager::scrub_to_free(index_t id) {
  if (published_[uz(id)] != 0) {
    table_.erase(hash_[uz(id)]);
    published_[uz(id)] = 0;
  }
  hashed_[uz(id)] = 0;
  free_list_.push_back(id);
}

void BlockManager::lru_push_back(index_t id) {
  lru_prev_[uz(id)] = lru_tail_;
  lru_next_[uz(id)] = -1;
  if (lru_tail_ >= 0) {
    lru_next_[uz(lru_tail_)] = id;
  } else {
    lru_head_ = id;
  }
  lru_tail_ = id;
}

void BlockManager::lru_remove(index_t id) {
  const index_t prev = lru_prev_[uz(id)];
  const index_t next = lru_next_[uz(id)];
  if (prev >= 0) {
    lru_next_[uz(prev)] = next;
  } else {
    lru_head_ = next;
  }
  if (next >= 0) {
    lru_prev_[uz(next)] = prev;
  } else {
    lru_tail_ = prev;
  }
  lru_prev_[uz(id)] = -1;
  lru_next_[uz(id)] = -1;
}

void BlockManager::evict_one() {
  MARLIN_ASSERT(lru_head_ >= 0);
  const index_t id = lru_head_;
  lru_remove(id);
  parked_[uz(id)] = 0;
  --cached_;
  ++counters_.prefix_cache_evictions;
  scrub_to_free(id);
}

void BlockManager::acquire_ids(std::vector<index_t>& out, index_t n,
                               index_t tenant) {
  MARLIN_CHECK(n >= 0, "negative allocation");
  MARLIN_CHECK(tenant >= 0, "tenant id must be >= 0");
  MARLIN_CHECK(can_allocate(n), "KV budget exhausted: need "
                                    << n << " blocks, " << free_blocks()
                                    << " free of " << cfg_.num_blocks);
  for (index_t i = 0; i < n; ++i) {
    const index_t id = pop_free_block();
    acquire_ref(id, tenant);
    out.push_back(id);
  }
}

void BlockManager::release_ids(std::vector<index_t>& ids, index_t tenant) {
  // Reverse order parks deeper chain positions closer to the LRU head, so
  // pressure reclaims the least valuable (deepest) prefix blocks first.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    release_ref(*it, tenant);
  }
  ids.clear();
}

void BlockManager::acquire(SequenceBlocks& seq, index_t n, index_t tenant) {
  seq.forget_writable();
  acquire_ids(seq.ids_, n, tenant);
}

index_t BlockManager::acquire_prefill(SequenceBlocks& seq, index_t n,
                                      const std::vector<std::uint64_t>& chain,
                                      index_t tenant) {
  MARLIN_CHECK(n >= 0, "negative allocation");
  MARLIN_CHECK(tenant >= 0, "tenant id must be >= 0");
  MARLIN_CHECK(static_cast<index_t>(chain.size()) <= n,
               "prefix chain covers " << chain.size()
                                      << " blocks but the allocation is "
                                      << n);
  seq.forget_writable();
  // Pass 1 (read-only): the leading run of published matches, and how
  // many of them are parked — resurrecting a parked block consumes free
  // budget, referencing a live one does not.
  index_t hits = 0;
  index_t parked_hits = 0;
  if (cache_on()) {
    for (const std::uint64_t key : chain) {
      const auto it = table_.find(key);
      if (it == table_.end()) break;
      ++hits;
      if (parked_[uz(it->second)] != 0) ++parked_hits;
    }
    counters_.prefix_cache_lookup_blocks += static_cast<index_t>(chain.size());
    counters_.prefix_cache_hit_blocks += hits;
  }
  const index_t fresh = n - hits;
  MARLIN_CHECK(can_allocate(fresh + parked_hits),
               "KV budget exhausted: need " << fresh + parked_hits
                                            << " blocks, " << free_blocks()
                                            << " free of " << cfg_.num_blocks);
  // Pass 2: reference the cached run, then allocate the rest fresh; fresh
  // blocks inside the chain get their hash attached so `publish` can make
  // them hittable once their prefill completes.
  for (index_t j = 0; j < hits; ++j) {
    const index_t id = table_.find(chain[uz(j)])->second;
    acquire_ref(id, tenant);
    seq.ids_.push_back(id);
  }
  for (index_t j = hits; j < n; ++j) {
    const index_t id = pop_free_block();
    acquire_ref(id, tenant);
    if (cache_on() && j < static_cast<index_t>(chain.size())) {
      hashed_[uz(id)] = 1;
      hash_[uz(id)] = chain[uz(j)];
    }
    seq.ids_.push_back(id);
  }
  seq.cached_prefix_ = hits;
  return hits;
}

void BlockManager::publish(SequenceBlocks& seq) {
  seq.forget_writable();  // published blocks copy before a write
  if (!cache_on()) return;
  for (const index_t id : seq.ids_) {
    if (hashed_[uz(id)] == 0 || published_[uz(id)] != 0) continue;
    const auto [it, inserted] = table_.try_emplace(hash_[uz(id)], id);
    if (inserted) {
      published_[uz(id)] = 1;
    } else {
      // A concurrent identical prefill published this content first;
      // this duplicate loses its hash and frees normally.
      hashed_[uz(id)] = 0;
    }
  }
}

index_t BlockManager::cached_chain_blocks(
    const std::vector<std::uint64_t>& chain) const {
  index_t run = 0;
  for (const std::uint64_t key : chain) {
    if (!table_.contains(key)) break;
    ++run;
  }
  return run;
}

void BlockManager::release(SequenceBlocks& seq, index_t tenant) {
  seq.forget_writable();
  release_ids(seq.ids_, tenant);
  seq.cached_prefix_ = 0;
}

SequenceBlocks BlockManager::fork(SequenceBlocks& parent, index_t tenant,
                                  index_t reserve_blocks) {
  MARLIN_CHECK(tenant >= 0, "tenant id must be >= 0");
  parent.forget_writable();  // its blocks are shared now; the child's too
  SequenceBlocks child;
  child.ids_.reserve(std::max(parent.ids_.size(), uz(reserve_blocks)));
  for (const index_t id : parent.ids_) {
    acquire_ref(id, tenant);
    child.ids_.push_back(id);
  }
  child.cached_prefix_ = parent.cached_prefix_;
  ++counters_.cow_forks;
  return child;
}

bool BlockManager::grow_scan(SequenceBlocks& seq, index_t tokens,
                             index_t covered_tokens, index_t tenant) {
  ++counters_.kv_grow_scans;
  const index_t have = seq.count();
  const index_t need = blocks_for_tokens(tokens) - have;
  // Copy-on-write scan: blocks the write range [covered_tokens, tokens)
  // touches that are shared (refcount > 1) — or published, whose content
  // must stay valid for future cache hits — get copied before the write.
  const index_t first_write =
      std::clamp<index_t>(covered_tokens / cfg_.block_size, 0, have);
  index_t copies = 0;
  for (index_t k = first_write; k < have; ++k) {
    const index_t id = seq.ids_[uz(k)];
    if (refcount_[uz(id)] > 1 || published_[uz(id)] != 0) ++copies;
  }
  const index_t fresh = std::max<index_t>(need, 0) + copies;
  if (fresh > 0 && !can_allocate(fresh)) {
    ++counters_.kv_grow_failures;
    return false;
  }
  for (index_t k = first_write; k < have && copies > 0; ++k) {
    const index_t old_id = seq.ids_[uz(k)];
    if (refcount_[uz(old_id)] > 1 || published_[uz(old_id)] != 0) {
      const index_t copy = pop_free_block();
      acquire_ref(copy, tenant);
      release_ref(old_id, tenant);
      seq.ids_[uz(k)] = copy;
      ++counters_.cow_copies;
      --copies;
    }
  }
  if (need > 0) acquire_ids(seq.ids_, need, tenant);
  // Every block from the first written one on is now exclusive and
  // unpublished: copies and appends are fresh, the rest were already.
  seq.write_from_ = first_write * cfg_.block_size;
  seq.writable_end_ = seq.count() * cfg_.block_size;
  return true;
}

index_t BlockManager::tenant_used_blocks(index_t tenant) const {
  if (tenant < 0 || uz(tenant) >= tenant_used_.size()) return 0;
  return tenant_used_[uz(tenant)];
}

bool BlockManager::has_quota(index_t tenant) const {
  return quotas_.contains(tenant);
}

index_t BlockManager::effective_quota(index_t tenant) const {
  const auto it = quotas_.find(tenant);
  if (it == quotas_.end()) return kNoQuota;
  // A quota cannot promise more than the cache holds (quota > budget is
  // legal configuration but clamps here); unlimited caches never clamp.
  return unlimited() ? it->second : std::min(it->second, cfg_.num_blocks);
}

index_t BlockManager::over_quota_blocks(index_t tenant) const {
  const index_t quota = effective_quota(tenant);
  if (quota == kNoQuota) return 0;
  return std::max<index_t>(0, tenant_used_blocks(tenant) - quota);
}

bool BlockManager::within_quota(index_t tenant, index_t extra) const {
  const index_t quota = effective_quota(tenant);
  if (quota == kNoQuota) return true;
  return tenant_used_blocks(tenant) + extra <= quota;
}

index_t kv_blocks_that_fit(double hbm_bytes, double weight_bytes,
                           double kv_bytes_per_token, index_t block_size,
                           const std::string& what) {
  // Share of HBM held back for activations and workspace.
  constexpr double kActivationReserve = 0.1;
  MARLIN_CHECK(block_size >= 1, "block size must be >= 1 token");
  MARLIN_CHECK(kv_bytes_per_token > 0.0, "KV bytes per token must be > 0");
  const double usable = hbm_bytes * (1.0 - kActivationReserve);
  const double available = usable - weight_bytes;
  // Clamp the headroom at zero with a clear deficit message. Letting a
  // negative `available` reach the block-count cast below would underflow
  // into a garbage budget.
  MARLIN_CHECK(available > 0,
               what << " weights (" << weight_bytes / 1e9
                    << " GB) exceed the usable " << usable / 1e9
                    << " GB of HBM by " << (weight_bytes - usable) / 1e9
                    << " GB; KV block budget clamps to 0");
  const double block_bytes =
      kv_bytes_per_token * static_cast<double>(block_size);
  const auto blocks = static_cast<index_t>(available / block_bytes);
  // A budget of 0 would mean "unlimited" downstream — refuse instead:
  // if not even one block fits next to the weights, the device can't
  // serve this model.
  MARLIN_CHECK(blocks >= 1, "no KV headroom: only "
                                << available / 1e9 << " GB left beside "
                                << what);
  return blocks;
}

index_t derive_kv_block_budget(const Engine& engine, index_t block_size) {
  return kv_blocks_that_fit(
      engine.config().gpu.hbm_bytes(),
      engine.weight_bytes(engine.config().model.num_layers, true, true, 1),
      engine.kv_bytes_per_token(), block_size,
      engine.config().model.name + std::string(" on ") +
          engine.config().gpu.name);
}

}  // namespace marlin::serve::sched
