#pragma once
// The run ledger: each per-replica counter is declared once, here, and
// summed by one `+=` line. `ReplicaState` inherits `RunCounters`,
// `BlockManager::counters()` returns `KvCounters`, and `SchedStats` and
// `cluster::ReplicaStats` inherit both; `cluster::fold_fleet_stats` is the
// one end-of-run fold. A new counter takes one field and one `+=` line,
// plus one row of the exporter's table (`event_loop.cpp`) if exported.

#include "util/matrix.hpp"

namespace marlin::serve::sched {

struct RunCounters {
  index_t preemptions = 0;
  index_t rejected = 0;  // could never fit in the KV budget
  index_t shed = 0;      // SLO shed-on-hopeless (kFinished, no tokens)
  index_t prefill_steps = 0;
  index_t decode_steps = 0;
  // Speculative decoding (0 when off): propose-then-verify rounds, draft
  // tokens proposed, tokens committed.
  index_t spec_rounds = 0;
  index_t spec_draft_tokens = 0;
  index_t spec_committed_tokens = 0;
  // Completed requests past their TTFT / TPOT deadline (0 without SLOs).
  index_t slo_ttft_violations = 0;
  index_t slo_tpot_violations = 0;
  // Prompt tokens whose KV came out of the prefix cache (prefill
  // skipped), and the probes that reused at least one cached block.
  index_t prefix_tokens_skipped = 0;
  index_t prefix_cache_hits = 0;
  // Requests the router placed here, and prefill -> decode KV handoffs
  // this replica sent / received (0 unless disaggregated).
  index_t routed = 0;
  index_t migrated_out = 0;
  index_t migrated_in = 0;
  // Running requests the decode rounds visited: those at a block crossing
  // or a finish, or all of them under speculation (not exported).
  index_t decode_visits = 0;
  bool operator==(const RunCounters&) const = default;
};

struct KvCounters {
  // Refcounts that left 0 (fresh blocks, CoW copies and parked prefix
  // blocks revived by a hit) and refcounts that hit 0: allocated minus
  // freed is always the live count, `BlockManager::used_blocks()`.
  index_t kv_blocks_allocated = 0;
  index_t kv_blocks_freed = 0;
  // `grow_to` calls the budget refused (each preempts), and those past
  // the writable mark that scanned their write range (not exported).
  index_t kv_grow_failures = 0;
  index_t kv_grow_scans = 0;
  // Prompt blocks probed against the prefix table, those served by a
  // cached block (the blocks saved), and cached blocks evicted.
  index_t prefix_cache_lookup_blocks = 0;
  index_t prefix_cache_hit_blocks = 0;
  index_t prefix_cache_evictions = 0;
  // `fork` calls (one per extra sequence sharing a prompt) and shared
  // blocks copied before a write.
  index_t cow_forks = 0;
  index_t cow_copies = 0;
  bool operator==(const KvCounters&) const = default;
};

// A field added above without its `+=` line below fails these asserts.
inline RunCounters& operator+=(RunCounters& a, const RunCounters& b) {
  static_assert(sizeof(RunCounters) == 16 * sizeof(index_t));
  a.preemptions += b.preemptions;
  a.rejected += b.rejected;
  a.shed += b.shed;
  a.prefill_steps += b.prefill_steps;
  a.decode_steps += b.decode_steps;
  a.spec_rounds += b.spec_rounds;
  a.spec_draft_tokens += b.spec_draft_tokens;
  a.spec_committed_tokens += b.spec_committed_tokens;
  a.slo_ttft_violations += b.slo_ttft_violations;
  a.slo_tpot_violations += b.slo_tpot_violations;
  a.prefix_tokens_skipped += b.prefix_tokens_skipped;
  a.prefix_cache_hits += b.prefix_cache_hits;
  a.routed += b.routed;
  a.migrated_out += b.migrated_out;
  a.migrated_in += b.migrated_in;
  a.decode_visits += b.decode_visits;
  return a;
}

inline KvCounters& operator+=(KvCounters& a, const KvCounters& b) {
  static_assert(sizeof(KvCounters) == 9 * sizeof(index_t));
  a.kv_blocks_allocated += b.kv_blocks_allocated;
  a.kv_blocks_freed += b.kv_blocks_freed;
  a.kv_grow_failures += b.kv_grow_failures;
  a.kv_grow_scans += b.kv_grow_scans;
  a.prefix_cache_lookup_blocks += b.prefix_cache_lookup_blocks;
  a.prefix_cache_hit_blocks += b.prefix_cache_hit_blocks;
  a.prefix_cache_evictions += b.prefix_cache_evictions;
  a.cow_forks += b.cow_forks;
  a.cow_copies += b.cow_copies;
  return a;
}

}  // namespace marlin::serve::sched
