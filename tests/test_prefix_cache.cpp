// Ref-counted KV block API, hashed prefix cache and copy-on-write
// sharing: refcount/charging invariants, the pinned chain-hash values,
// LRU parking/eviction order, first-publisher-wins races, cache-off
// bit-equality end to end, the zero-alloc steady-state decode tick with
// the cache warm, and random operation sequences checked op by op against
// the frozen manager in reference_block_manager.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "counting_allocator.hpp"
#include "reference_block_manager.hpp"
#include "serve/server_sim.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marlin::serve::sched {
namespace {

BlockManagerConfig cache_cfg(index_t num_blocks, index_t max_cached = 0) {
  BlockManagerConfig cfg;
  cfg.block_size = 16;
  cfg.num_blocks = num_blocks;
  cfg.watermark = 0.0;
  cfg.prefix_cache.enabled = true;
  cfg.prefix_cache.max_cached_blocks = max_cached;
  return cfg;
}

/// Chain hashes of a `blocks`-block prefix tagged `prefix_id`.
std::vector<std::uint64_t> chain_of(index_t prefix_id, index_t blocks) {
  Request r(0, 0.0, blocks * 16, 1);
  r.prefix_id = prefix_id;
  r.prefix_tokens = blocks * 16;
  std::vector<std::uint64_t> chain;
  r.append_prefix_chain(16, blocks, chain);
  return chain;
}

// ------------------------------------------------------------ chain hash

TEST(PrefixChain, PinnedHashValuesNeverDrift) {
  // The cache key is pinned to util::mix64 (splitmix64 finalizer) with
  // published seed/salt constants. These literals are the contract: if
  // they change, every persisted cache key in the wild changes with them.
  const auto chain = chain_of(0, 2);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], 0x5cd35c8514c1f3f4ull);
  EXPECT_EQ(chain[1], 0x467cc3f44e102525ull);

  // Re-derive from the documented formula h_j = mix64(h_{j-1} ^ key_j).
  const std::uint64_t base = util::mix64(kPrefixKeySalt ^ 0ull);
  std::uint64_t h = kPrefixHashSeed;
  for (std::size_t j = 0; j < chain.size(); ++j) {
    h = util::mix64(h ^ util::mix64(base + j));
    EXPECT_EQ(chain[j], h);
  }
}

TEST(PrefixChain, DistinctTagsAndPositionsDiverge) {
  const auto a = chain_of(0, 4);
  const auto b = chain_of(1, 4);
  for (std::size_t j = 0; j < a.size(); ++j) EXPECT_NE(a[j], b[j]);
  // A shorter request's chain is a strict prefix of a longer one's.
  const auto head = chain_of(0, 2);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), a.begin()));
}

TEST(PrefixChain, HashableBlocksAndTruncation) {
  Request r(0, 0.0, 64, 8);
  EXPECT_EQ(r.hashable_prefix_blocks(16), 0);  // no tag
  r.prefix_id = 3;
  r.prefix_tokens = 20;  // partial tail block cannot be shared
  EXPECT_EQ(r.hashable_prefix_blocks(16), 1);
  r.prefix_tokens = 64;
  EXPECT_EQ(r.hashable_prefix_blocks(16), 4);
  std::vector<std::uint64_t> chain;
  r.append_prefix_chain(16, 2, chain);  // max_blocks truncates
  EXPECT_EQ(chain.size(), 2u);
}

TEST(PrefixChain, MaxKvBlocksSharesPromptAcrossSequences) {
  Request r(0, 0.0, 64, 16);
  EXPECT_EQ(r.max_kv_blocks(16), 5);  // ceil(79 / 16), n = 1
  r.num_sequences = 4;
  EXPECT_EQ(r.max_kv_blocks(16), 8);  // 4 shared + 4 * (5 - 4)
  Request p(1, 0.0, 60, 16);          // partial prompt block is per-seq
  p.num_sequences = 2;
  EXPECT_EQ(p.max_kv_blocks(16), 7);  // 3 shared + 2 * (5 - 3)
}

// --------------------------------------------------- refcounts / parking

TEST(PrefixCache, MissPublishParkAndResurrect) {
  BlockManager bm(cache_cfg(8));
  const auto chain = chain_of(0, 4);

  SequenceBlocks a;
  EXPECT_EQ(bm.acquire_prefill(a, 4, chain), 0);  // cold: all misses
  EXPECT_EQ(bm.counters().prefix_cache_lookup_blocks, 4);
  EXPECT_EQ(bm.cached_chain_blocks(chain), 0);  // unpublished: unhittable
  bm.publish(a);
  EXPECT_EQ(bm.cached_chain_blocks(chain), 4);

  bm.release(a);
  EXPECT_EQ(bm.used_blocks(), 0);
  EXPECT_EQ(bm.cached_blocks(), 4);  // parked, not freed
  EXPECT_EQ(bm.free_blocks(), 8);    // parked blocks count as free budget
  EXPECT_EQ(bm.cached_chain_blocks(chain), 4);

  SequenceBlocks b;
  EXPECT_EQ(bm.acquire_prefill(b, 4, chain), 4);  // warm: resurrected
  EXPECT_EQ(b.cached_prefix_blocks(), 4);
  EXPECT_EQ(bm.counters().prefix_cache_hit_blocks, 4);
  EXPECT_EQ(bm.cached_blocks(), 0);
  EXPECT_EQ(bm.used_blocks(), 4);
  bm.release(b);
}

TEST(PrefixCache, PressureEvictsDeepestChainPositionsFirst) {
  BlockManager bm(cache_cfg(6));
  const auto chain = chain_of(0, 4);
  SequenceBlocks a;
  bm.acquire_prefill(a, 4, chain);
  bm.publish(a);
  bm.release(a);  // 4 parked, 2 on the free list

  // Allocating 3 drains the free list and must reclaim exactly one
  // cached block — the deepest chain position, so the surviving prefix
  // stays contiguous and hittable.
  SequenceBlocks t;
  bm.acquire(t, 3);
  EXPECT_EQ(bm.counters().prefix_cache_evictions, 1);
  EXPECT_EQ(bm.cached_blocks(), 3);
  EXPECT_EQ(bm.cached_chain_blocks(chain), 3);
  bm.release(t);

  SequenceBlocks b;
  EXPECT_EQ(bm.acquire_prefill(b, 4, chain), 3);  // leading run still hits
  EXPECT_EQ(b.cached_prefix_blocks(), 3);
  bm.release(b);
}

TEST(PrefixCache, BoundedIdsMintInOrderReuseLifoAndEvictLast) {
  // A bounded budget mints ids on first use, yet hands them out in the
  // order a stack pre-filled with every id would: 0, 1, 2, ... fresh,
  // returned ids LIFO ahead of fresh ones, and a parked block is evicted
  // only once every id is in use or parked.
  BlockManager bm(cache_cfg(6));
  const auto chain = chain_of(0, 2);
  SequenceBlocks p;
  bm.acquire_prefill(p, 2, chain);
  EXPECT_EQ(p.ids(), (std::vector<index_t>{0, 1}));
  bm.publish(p);
  bm.release(p);  // parks 1 (LRU head), then 0
  EXPECT_EQ(bm.cached_blocks(), 2);

  SequenceBlocks a;
  bm.acquire(a, 3);  // unminted ids go out before any parked one
  EXPECT_EQ(a.ids(), (std::vector<index_t>{2, 3, 4}));
  EXPECT_EQ(bm.counters().prefix_cache_evictions, 0);
  bm.release(a);  // returns 4, 3, 2: 2 is on top

  SequenceBlocks b;
  bm.acquire(b, 2);
  EXPECT_EQ(b.ids(), (std::vector<index_t>{2, 3}));
  SequenceBlocks c;
  bm.acquire(c, 2);  // the last returned id, then the last unminted one
  EXPECT_EQ(c.ids(), (std::vector<index_t>{4, 5}));
  EXPECT_EQ(bm.counters().prefix_cache_evictions, 0);

  SequenceBlocks d;
  bm.acquire(d, 1);  // every id in use or parked: evict the LRU head
  EXPECT_EQ(d.ids(), (std::vector<index_t>{1}));
  EXPECT_EQ(bm.counters().prefix_cache_evictions, 1);
  EXPECT_EQ(bm.cached_chain_blocks(chain), 1);
  for (SequenceBlocks* s : {&b, &c, &d}) bm.release(*s);
  EXPECT_EQ(bm.used_blocks(), 0);
}

TEST(PrefixCache, MaxCachedBlocksCapsTheLru) {
  BlockManager bm(cache_cfg(8, /*max_cached=*/2));
  const auto chain = chain_of(0, 4);
  SequenceBlocks a;
  bm.acquire_prefill(a, 4, chain);
  bm.publish(a);
  bm.release(a);
  EXPECT_EQ(bm.cached_blocks(), 2);  // cap enforced at park time
  EXPECT_EQ(bm.counters().prefix_cache_evictions, 2);
  EXPECT_EQ(bm.cached_chain_blocks(chain), 2);
}

TEST(PrefixCache, FirstPublisherWinsOnConcurrentDuplicates) {
  BlockManager bm(cache_cfg(16));
  const auto chain = chain_of(0, 3);
  SequenceBlocks a, b;
  // Both admitted before either prefill completes: both miss.
  EXPECT_EQ(bm.acquire_prefill(a, 3, chain), 0);
  EXPECT_EQ(bm.acquire_prefill(b, 3, chain), 0);
  EXPECT_EQ(bm.used_blocks(), 6);
  bm.publish(a);
  bm.publish(b);  // loser: drops its hashes, no table overwrite
  EXPECT_EQ(bm.cached_chain_blocks(chain), 3);

  bm.release(b);  // unpublished duplicate frees normally
  EXPECT_EQ(bm.cached_blocks(), 0);
  bm.release(a);  // winner parks
  EXPECT_EQ(bm.cached_blocks(), 3);
  SequenceBlocks c;
  EXPECT_EQ(bm.acquire_prefill(c, 3, chain), 3);
  bm.release(c);
}

TEST(PrefixCache, WorksInUnlimitedMode) {
  BlockManager bm(cache_cfg(0));  // num_blocks = 0: unlimited budget
  const auto chain = chain_of(5, 2);
  SequenceBlocks a;
  EXPECT_EQ(bm.acquire_prefill(a, 2, chain), 0);
  bm.publish(a);
  bm.release(a);
  SequenceBlocks b;
  EXPECT_EQ(bm.acquire_prefill(b, 2, chain), 2);
  EXPECT_EQ(bm.used_blocks(), 2);
  bm.release(b);
  EXPECT_EQ(bm.used_blocks(), 0);
}

TEST(PrefixCache, ConfigValidation) {
  PrefixCacheConfig pc;
  pc.max_cached_blocks = -1;
  EXPECT_THROW(pc.validate(), Error);
  pc.max_cached_blocks = 0;
  pc.min_prefix_blocks = 0;  // sub-block prefixes cannot be shared
  EXPECT_THROW(pc.validate(), Error);
}

// ------------------------------------------------------------------- CoW

TEST(CopyOnWrite, ForkSharesThenSplitsAtFirstDivergentToken) {
  BlockManager bm(cache_cfg(8));
  SequenceBlocks parent;
  bm.acquire(parent, 4);  // 64 tokens of prompt KV
  SequenceBlocks child = bm.fork(parent);
  EXPECT_EQ(bm.counters().cow_forks, 1);
  EXPECT_EQ(bm.used_blocks(), 4);  // refcount++, no physical allocation
  EXPECT_EQ(child.ids(), parent.ids());

  // The child writes tokens [48, 64): block 3 is shared, so it is copied;
  // blocks 0..2 stay physically shared.
  ASSERT_TRUE(bm.grow_to(child, 64, 48));
  EXPECT_EQ(bm.counters().cow_copies, 1);
  EXPECT_EQ(bm.used_blocks(), 5);
  EXPECT_EQ(child.ids()[0], parent.ids()[0]);
  EXPECT_EQ(child.ids()[2], parent.ids()[2]);
  EXPECT_NE(child.ids()[3], parent.ids()[3]);

  bm.release(parent);
  EXPECT_EQ(bm.used_blocks(), 4);  // child still references blocks 0..2
  bm.release(child);
  EXPECT_EQ(bm.used_blocks(), 0);
}

TEST(CopyOnWrite, PublishedBlocksAreCopiedBeforeAWrite) {
  // A published block is shared with the cache even at refcount 1: a
  // write into it must copy, and the original parks for future hits.
  BlockManager bm(cache_cfg(8));
  const auto chain = chain_of(0, 2);
  SequenceBlocks a;
  bm.acquire_prefill(a, 2, chain);
  bm.publish(a);
  ASSERT_TRUE(bm.grow_to(a, 33, 20));  // writes [20, 33): copies block 1
  EXPECT_EQ(bm.counters().cow_copies, 1);
  EXPECT_EQ(bm.cached_blocks(), 1);  // displaced original parked
  EXPECT_EQ(bm.cached_chain_blocks(chain), 2);
  EXPECT_EQ(a.count(), 3);
  bm.release(a);
}

TEST(CopyOnWrite, AppendOnlyGrowthNeverCopies) {
  BlockManager bm(cache_cfg(8));
  SequenceBlocks parent;
  bm.acquire(parent, 2);
  SequenceBlocks child = bm.fork(parent);
  // covered == tokens' block boundary: pure append past the shared run.
  ASSERT_TRUE(bm.grow_to(child, 48, 32));
  EXPECT_EQ(bm.counters().cow_copies, 0);
  EXPECT_EQ(child.count(), 3);
  bm.release(parent);
  bm.release(child);
}

TEST(CopyOnWrite, GrowFailureLeavesHoldingsUntouched) {
  BlockManager bm(cache_cfg(4));
  SequenceBlocks parent;
  bm.acquire(parent, 3);
  SequenceBlocks child = bm.fork(parent);
  // Needs 1 append + 2 CoW copies = 3 blocks; only 1 is left.
  EXPECT_FALSE(bm.grow_to(child, 64, 20));
  EXPECT_EQ(bm.counters().kv_grow_failures, 1);
  EXPECT_EQ(child.count(), 3);
  EXPECT_EQ(child.ids(), parent.ids());
  EXPECT_EQ(bm.used_blocks(), 3);
  bm.release(parent);
  bm.release(child);
}

// ------------------------------------------------------- tenant charging

TEST(TenantCharging, LastToucherPaysAndChargeFallsBack) {
  BlockManager bm(cache_cfg(8));
  const auto chain = chain_of(0, 2);

  SequenceBlocks a;
  bm.acquire_prefill(a, 2, chain, /*tenant=*/0);
  bm.publish(a);
  EXPECT_EQ(bm.tenant_used_blocks(0), 2);

  // Tenant 1 re-acquires the shared blocks: the charge migrates to the
  // most recent live holder ("last toucher pays").
  SequenceBlocks b;
  EXPECT_EQ(bm.acquire_prefill(b, 2, chain, /*tenant=*/1), 2);
  EXPECT_EQ(bm.tenant_used_blocks(1), 2);
  EXPECT_EQ(bm.tenant_used_blocks(0), 0);

  // Releasing the top holder moves the charge back to the previous one.
  bm.release(b, 1);
  EXPECT_EQ(bm.tenant_used_blocks(1), 0);
  EXPECT_EQ(bm.tenant_used_blocks(0), 2);
  bm.release(a, 0);
  EXPECT_EQ(bm.tenant_used_blocks(0), 0);
  EXPECT_EQ(bm.cached_blocks(), 2);  // parked blocks charge nobody
}

TEST(TenantCharging, ReleasingBlocksTheTenantDoesNotHoldThrows) {
  BlockManager bm(cache_cfg(4));
  SequenceBlocks a;
  bm.acquire(a, 2, /*tenant=*/0);
  SequenceBlocks copy = a;  // copies ids, acquires no references
  EXPECT_THROW(bm.release(copy, /*tenant=*/1), Error);
  bm.release(a, 0);
  EXPECT_THROW(bm.release(copy, 0), Error);  // double release, stale copy
}

// ------------------------------------------------------------ end to end

serve::Engine test_engine() {
  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  ecfg.format = serve::WeightFormat::kMarlin;
  return serve::Engine(ecfg);
}

serve::ServingConfig shared_prefix_config() {
  serve::ServingConfig sc;
  sc.qps = 8.0;
  sc.duration_s = 10.0;
  sc.input_tokens = 64;
  sc.output_tokens = 16;
  sc.kv_blocks = 256;
  sc.shared_prefix_tokens = 128;
  sc.shared_prefix_groups = 2;
  sc.shared_prefix_share = 0.8;
  return sc;
}

TEST(PrefixCacheEndToEnd, CacheOffIsBitIdenticalOnAnyWorkload) {
  // With the cache disabled the manager must behave exactly like the
  // legacy allocator — even when the workload carries shared prefixes.
  const serve::Engine engine = test_engine();
  serve::ServingConfig off = shared_prefix_config();
  off.prefix_cache.enabled = false;
  const auto a = serve::simulate_cluster_detailed(engine, off).sched;
  const auto b = serve::simulate_cluster_detailed(engine, off).sched;
  EXPECT_EQ(a.metrics.mean_tpot_ms, b.metrics.mean_tpot_ms);
  EXPECT_EQ(a.prefix_cache_lookup_blocks, 0);
  EXPECT_EQ(a.prefix_cache_hit_blocks, 0);
  EXPECT_EQ(a.cow_forks, 0);
}

TEST(PrefixCacheEndToEnd, UniqueWorkloadIsUnchangedByTheCache) {
  // No shared prefixes: enabling the cache must not change a single
  // scheduling decision ("the cache never hurts").
  const serve::Engine engine = test_engine();
  serve::ServingConfig sc = shared_prefix_config();
  sc.shared_prefix_tokens = 0;  // fully unique prompts
  sc.prefix_cache.enabled = false;
  const auto off = serve::simulate_cluster_detailed(engine, sc).sched;
  sc.prefix_cache.enabled = true;
  const auto on = serve::simulate_cluster_detailed(engine, sc).sched;

  EXPECT_EQ(off.metrics, on.metrics);
  EXPECT_EQ(static_cast<const RunCounters&>(off),
            static_cast<const RunCounters&>(on));
  EXPECT_EQ(off.peak_kv_blocks, on.peak_kv_blocks);
  EXPECT_EQ(off.sim_end_s, on.sim_end_s);
  EXPECT_EQ(on.prefix_cache_hit_blocks, 0);  // nothing shareable
}

TEST(PrefixCacheEndToEnd, SharedPrefixesHitAndSkipPrefillTokens) {
  const serve::Engine engine = test_engine();
  serve::ServingConfig sc = shared_prefix_config();
  sc.prefix_cache.enabled = true;
  const auto st = serve::simulate_cluster_detailed(engine, sc).sched;
  EXPECT_GT(st.prefix_cache_lookup_blocks, 0);
  EXPECT_GT(st.prefix_cache_hit_blocks, 0);
  EXPECT_GT(st.prefix_tokens_skipped, 0);
  EXPECT_LE(st.prefix_cache_hit_blocks, st.prefix_cache_lookup_blocks);
  // Skipped tokens are whole cached blocks' worth of prefill.
  EXPECT_EQ(st.prefix_tokens_skipped,
            st.prefix_cache_hit_blocks * sc.kv_block_size);

  // Warm admissions reach their first token sooner than the cold run.
  serve::ServingConfig off = sc;
  off.prefix_cache.enabled = false;
  const auto cold = serve::simulate_cluster_detailed(engine, off).sched;
  EXPECT_LT(st.metrics.mean_ttft_ms, cold.metrics.mean_ttft_ms);
  EXPECT_EQ(st.metrics.completed, cold.metrics.completed);
}

TEST(PrefixCacheEndToEnd, ParallelSamplingForksAndDiverges) {
  const serve::Engine engine = test_engine();
  serve::ServingConfig sc = shared_prefix_config();
  sc.prefix_cache.enabled = true;
  sc.sampling_n = 4;
  // 60 + 128 prompt tokens: the partial tail block is shared at fork
  // time and must CoW-split on each sequence's first divergent write.
  sc.input_tokens = 60;
  const auto st = serve::simulate_cluster_detailed(engine, sc).sched;
  EXPECT_GT(st.cow_forks, 0);
  EXPECT_GT(st.cow_copies, 0);
  EXPECT_GT(st.metrics.completed, 0);
  // Each request decodes n sequences in lockstep, so the engine sees a
  // strictly larger decode batch than the n=1 run.
  serve::ServingConfig single = sc;
  single.sampling_n = 1;
  const auto one = serve::simulate_cluster_detailed(engine, single).sched;
  EXPECT_GT(st.metrics.mean_batch, one.metrics.mean_batch);
}

// ------------------------------------------------- allocation regression

TEST(HotPath, WarmCacheSteadyStateDecodeTickDoesNotAllocate) {
  // The zero-alloc steady-state guarantee must survive the cache being
  // ON and WARM: ref-counted growth, LRU bookkeeping and last-toucher
  // charging all run on pre-sized storage.
  const serve::Engine engine = test_engine();

  SchedulerConfig scfg;
  scfg.policy = SchedPolicy::kFcfs;
  scfg.max_batch = 8;
  scfg.blocks.block_size = 16;
  scfg.blocks.num_blocks = 256;
  scfg.blocks.prefix_cache.enabled = true;
  const Scheduler sched(engine, scfg);

  std::vector<Request> requests;
  for (index_t i = 0; i < 8; ++i) {
    Request& r = requests.emplace_back(i, 0.0, 64, 32);
    r.prefix_id = 0;  // all eight share one 32-token header
    r.prefix_tokens = 32;
  }
  for (index_t batch = 1; batch <= scfg.max_batch; ++batch) {
    for (index_t b = 0; b < 4; ++b) {
      (void)engine.decode_step_seconds(batch,
                                       static_cast<double>(b) * 64.0 + 1.0);
    }
  }

  ReplicaState s = sched.make_replica_state();

  // Wave 1 admits cold and publishes at prefill completion; wave 2 then
  // hits the warm cache, so the steady-state window below runs with live
  // shared refcounts.
  for (std::size_t i = 0; i < 4; ++i) s.queue.push_back(i);
  while (s.decode_steps < 1) {
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  for (std::size_t i = 4; i < 8; ++i) s.queue.push_back(i);
  while (s.decode_steps < 3) {
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  EXPECT_GT(s.bm.counters().prefix_cache_hit_blocks, 0);  // the cache engaged
  ASSERT_EQ(s.running.size(), requests.size());

  const std::uint64_t before = alloc_count();
  for (int tick = 0; tick < 5; ++tick) {
    sched.admit(s, requests);  // empty queue: must also be free of allocs
    sched.step(s, requests);
  }
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_EQ(allocs, 0u)
      << allocs << " heap allocations across 5 warm-cache decode ticks";
  EXPECT_EQ(s.running.size(), requests.size());  // still mid-decode

  while (s.busy()) {
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  EXPECT_EQ(s.bm.used_blocks(), 0);
  EXPECT_GT(s.bm.cached_blocks(), 0);  // shared header parked for reuse
}

TEST(BlockManagerMemory, ConstructionAllocatesByUseNotByBudget) {
  // Per-id metadata grows with the ids a manager mints: a 2^20-block
  // budget (about 83 MB of reserved arrays at the old ~83 B per block)
  // must cost next to nothing until blocks are handed out.
  for (const bool cache : {false, true}) {
    BlockManagerConfig cfg = cache_cfg(index_t{1} << 20);
    cfg.prefix_cache.enabled = cache;
    const std::uint64_t before = alloc_bytes();
    const BlockManager bm(cfg);
    EXPECT_LT(alloc_bytes() - before, std::uint64_t{64} << 10)
        << "prefix cache " << (cache ? "on" : "off");
    EXPECT_EQ(bm.free_blocks(), index_t{1} << 20);
  }
}

// ------------------------------------ differential vs the frozen manager
//
// Random operation sequences run on the live BlockManager and on the
// frozen copy in reference_block_manager.cpp side by side. After every
// operation both must agree on every handle's block ids and on every
// public counter.

/// One sequence, held in both managers.
struct PairedHandle {
  SequenceBlocks live;
  reference::SequenceBlocks ref;
  index_t tenant = 0;
  index_t written = 0;  // tokens of KV the sequence has written
};

/// First disagreement between the two managers, or "" when they match.
std::string first_difference(
    const BlockManager& a, const reference::BlockManager& b,
    const std::vector<PairedHandle>& handles, index_t tenants,
    const std::vector<std::vector<std::uint64_t>>& chains) {
  std::ostringstream out;
  const auto check = [&](const char* what, index_t x, index_t y) {
    if (out.tellp() == 0 && x != y) {
      out << what << ": live " << x << " vs reference " << y;
    }
  };
  check("used_blocks", a.used_blocks(), b.used_blocks());
  check("free_blocks", a.free_blocks(), b.free_blocks());
  check("watermark_blocks", a.watermark_blocks(), b.watermark_blocks());
  check("peak_used_blocks", a.peak_used_blocks(), b.peak_used_blocks());
  const KvCounters& kv = a.counters();
  // The frozen oracle counts a revived parked block as no allocation; the
  // live manager does, so allocated - freed is its live count.
  check("kv_blocks_allocated", kv.kv_blocks_allocated,
        b.used_blocks() + b.blocks_freed_total());
  check("kv_blocks_freed", kv.kv_blocks_freed, b.blocks_freed_total());
  check("kv_grow_failures", kv.kv_grow_failures, b.grow_failures());
  check("prefix_cache_lookup_blocks", kv.prefix_cache_lookup_blocks,
        b.prefix_cache_lookup_blocks());
  check("prefix_cache_hit_blocks", kv.prefix_cache_hit_blocks,
        b.prefix_cache_hit_blocks());
  check("prefix_cache_evictions", kv.prefix_cache_evictions,
        b.prefix_cache_evictions());
  check("cow_forks", kv.cow_forks, b.cow_forks());
  check("cow_copies", kv.cow_copies, b.cow_copies());
  check("cached_blocks", a.cached_blocks(), b.cached_blocks());
  for (index_t t = 0; t < tenants; ++t) {
    check("tenant_used_blocks", a.tenant_used_blocks(t),
          b.tenant_used_blocks(t));
    check("effective_quota", a.effective_quota(t), b.effective_quota(t));
    check("over_quota_blocks", a.over_quota_blocks(t), b.over_quota_blocks(t));
    check("within_quota", a.within_quota(t, 1) ? 1 : 0,
          b.within_quota(t, 1) ? 1 : 0);
  }
  for (const auto& chain : chains) {
    check("cached_chain_blocks", a.cached_chain_blocks(chain),
          b.cached_chain_blocks(chain));
  }
  for (std::size_t h = 0; h < handles.size() && out.tellp() == 0; ++h) {
    check("cached_prefix_blocks", handles[h].live.cached_prefix_blocks(),
          handles[h].ref.cached_prefix_blocks());
    if (out.tellp() == 0 && handles[h].live.ids() != handles[h].ref.ids()) {
      out << "ids of handle " << h;
    }
  }
  return out.str();
}

/// Work the differential reached over a sweep, so a setting that stops
/// exercising its path fails instead of passing vacuously.
struct DifferentialCoverage {
  index_t evictions = 0;
  index_t cow_copies = 0;
  index_t grow_failures = 0;
  index_t prefix_hits = 0;
  index_t over_quota = 0;
};

/// `ops` random operations on both managers under `cfg` with `tenants`
/// tenant ids: acquire, acquire_prefill over three shared chains,
/// publish, fork, grow_to (decode appends that usually fit, and writes
/// that start inside earlier, possibly shared blocks) and release.
void run_differential(const BlockManagerConfig& cfg, index_t tenants,
                      std::uint64_t seed, int ops,
                      DifferentialCoverage& coverage) {
  BlockManager live(cfg);
  reference::BlockManager ref(cfg);
  const std::vector<std::vector<std::uint64_t>> chains = {
      chain_of(0, 6), chain_of(1, 6), chain_of(2, 6)};
  const index_t bs = cfg.block_size;
  Rng rng(seed);
  const auto pick = [&](index_t n) {
    return static_cast<index_t>(rng.uniform_int(static_cast<std::uint64_t>(n)));
  };
  std::vector<PairedHandle> handles;
  for (int op = 0; op < ops; ++op) {
    index_t kind = pick(16);
    if (handles.empty()) kind = kind % 2;  // only the acquires apply
    if (handles.size() >= 12 && kind < 2) kind = 15;  // release instead
    const std::size_t at = handles.empty()
                               ? 0
                               : static_cast<std::size_t>(pick(
                                     static_cast<index_t>(handles.size())));
    const char* name = "";
    if (kind < 2) {
      // A new sequence: a plain acquire or a prefill over a shared chain.
      PairedHandle h;
      h.tenant = pick(tenants);
      bool threw_live = false;
      bool threw_ref = false;
      if (kind == 0) {
        name = "acquire";
        const index_t n = pick(5);
        try {
          live.acquire(h.live, n, h.tenant);
        } catch (const Error&) {
          threw_live = true;
        }
        try {
          ref.acquire(h.ref, n, h.tenant);
        } catch (const Error&) {
          threw_ref = true;
        }
      } else {
        name = "acquire_prefill";
        const auto& full = chains[static_cast<std::size_t>(pick(3))];
        const index_t k = pick(7);
        const std::vector<std::uint64_t> chain(full.begin(), full.begin() + k);
        const index_t n = k + pick(3);
        try {
          live.acquire_prefill(h.live, n, chain, h.tenant);
        } catch (const Error&) {
          threw_live = true;
        }
        try {
          ref.acquire_prefill(h.ref, n, chain, h.tenant);
        } catch (const Error&) {
          threw_ref = true;
        }
      }
      ASSERT_EQ(threw_live, threw_ref) << "seed " << seed << " op " << op;
      if (!threw_live) {
        h.written = std::max<index_t>(0, h.live.count() * bs - pick(bs));
        handles.push_back(std::move(h));
      }
    } else if (kind == 2 || kind == 3) {
      name = "publish";
      live.publish(handles[at].live);
      ref.publish(handles[at].ref);
    } else if (kind == 4 || kind == 5) {
      name = "fork";
      PairedHandle child;
      child.tenant = pick(4) == 0 ? pick(tenants) : handles[at].tenant;
      child.written = handles[at].written;
      child.live = live.fork(handles[at].live, child.tenant);
      child.ref = ref.fork(handles[at].ref, child.tenant);
      handles.push_back(std::move(child));
    } else if (kind < 14) {
      // Decode growth: `kind` 6..11 append one to a block's worth of
      // tokens past what is written (most fit the last block); 12..13
      // write from a random earlier token, which may sit in a shared or
      // published block.
      PairedHandle& h = handles[at];
      index_t covered = h.written;
      if (kind < 12) {
        name = "grow_to (append)";
      } else {
        name = "grow_to (rewrite)";
        covered = pick(h.live.count() * bs + 1);
      }
      const index_t tokens = std::max(covered, h.written) + 1 + pick(bs);
      const bool grew_live = live.grow_to(h.live, tokens, covered, h.tenant);
      const bool grew_ref = ref.grow_to(h.ref, tokens, covered, h.tenant);
      ASSERT_EQ(grew_live, grew_ref) << "seed " << seed << " op " << op;
      if (grew_live) h.written = std::max(h.written, tokens);
    } else {
      name = "release";
      live.release(handles[at].live, handles[at].tenant);
      ref.release(handles[at].ref, handles[at].tenant);
      handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(at));
    }
    ASSERT_EQ(first_difference(live, ref, handles, tenants, chains), "")
        << "seed " << seed << " op " << op << " (" << name << ")";
    for (index_t t = 0; t < tenants; ++t) {
      coverage.over_quota += live.over_quota_blocks(t) > 0 ? 1 : 0;
    }
  }
  coverage.evictions += live.counters().prefix_cache_evictions;
  coverage.cow_copies += live.counters().cow_copies;
  coverage.grow_failures += live.counters().kv_grow_failures;
  coverage.prefix_hits += live.counters().prefix_cache_hit_blocks;
  for (PairedHandle& h : handles) {
    live.release(h.live, h.tenant);
    ref.release(h.ref, h.tenant);
  }
  EXPECT_EQ(live.used_blocks(), 0) << "seed " << seed;
  EXPECT_EQ(first_difference(live, ref, {}, tenants, chains), "")
      << "seed " << seed;
}

DifferentialCoverage sweep_differential(const BlockManagerConfig& cfg,
                                        index_t tenants) {
  DifferentialCoverage coverage;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_differential(cfg, tenants, seed, 400, coverage);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return coverage;
}

TEST(BlockManagerReference, SmallBudgetEvictionMatches) {
  BlockManagerConfig cfg = cache_cfg(24);
  cfg.block_size = 4;
  const DifferentialCoverage c = sweep_differential(cfg, 1);
  EXPECT_GT(c.evictions, 0);
  EXPECT_GT(c.cow_copies, 0);
  EXPECT_GT(c.grow_failures, 0);
  EXPECT_GT(c.prefix_hits, 0);
}

TEST(BlockManagerReference, CachedBlockCapEvictionMatches) {
  BlockManagerConfig cfg = cache_cfg(96, /*max_cached=*/3);
  cfg.block_size = 4;
  const DifferentialCoverage c = sweep_differential(cfg, 1);
  EXPECT_GT(c.evictions, 0);
  EXPECT_GT(c.cow_copies, 0);
  EXPECT_GT(c.prefix_hits, 0);
}

TEST(BlockManagerReference, TwoTenantQuotasMatch) {
  BlockManagerConfig cfg = cache_cfg(40);
  cfg.block_size = 8;
  cfg.watermark = 0.05;
  cfg.tenant_quotas = {{0, 10}, {1, 16}};
  const DifferentialCoverage c = sweep_differential(cfg, 2);
  EXPECT_GT(c.over_quota, 0);
  EXPECT_GT(c.cow_copies, 0);
  EXPECT_GT(c.grow_failures, 0);
}

TEST(BlockManagerReference, UnlimitedAndCacheOffMatch) {
  BlockManagerConfig unlimited = cache_cfg(0);
  unlimited.block_size = 4;
  EXPECT_GT(sweep_differential(unlimited, 1).prefix_hits, 0);
  BlockManagerConfig plain = cache_cfg(32);
  plain.block_size = 4;
  plain.prefix_cache.enabled = false;
  EXPECT_GT(sweep_differential(plain, 1).cow_copies, 0);
}

}  // namespace
}  // namespace marlin::serve::sched
