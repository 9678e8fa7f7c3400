#include "serve/cluster/replica.hpp"

#include <algorithm>

#include "obs/serve_recorder.hpp"
#include "util/error.hpp"

namespace marlin::serve::cluster {

const char* to_string(ReplicaLifecycle lc) {
  switch (lc) {
    case ReplicaLifecycle::kActive:
      return "active";
    case ReplicaLifecycle::kDraining:
      return "draining";
    case ReplicaLifecycle::kRetired:
      return "retired";
  }
  return "?";
}

const char* to_string(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kUnified:
      return "unified";
    case ReplicaRole::kPrefill:
      return "prefill";
    case ReplicaRole::kDecode:
      return "decode";
  }
  return "?";
}

Replica::Replica(index_t id, const sched::Scheduler& scheduler,
                 ReplicaRole role)
    : id_(id), scheduler_(&scheduler),
      state_(scheduler.make_replica_state()), role_(role) {
  state_.replica_id = id;
}

void Replica::advance_to(double t) { state_.now = std::max(state_.now, t); }

void Replica::deliver(std::size_t request_id,
                      std::vector<sched::Request>& requests) {
  MARLIN_ASSERT(request_id < requests.size());
  MARLIN_CHECK(lifecycle_ == ReplicaLifecycle::kActive,
               "routed a request to " << to_string(lifecycle_) << " replica "
                                      << id_);
  sched::Request& r = requests[request_id];
  r.replica = id_;
  advance_to(r.arrival_s);
  state_.queue.push_back(request_id);
  state_.outstanding_tokens += r.owed_tokens();
  ++routed_;
  if (state_.obs != nullptr) {
    state_.obs->on_request_queued(r.arrival_s, r.id, r.tenant_id, id_);
  }
}

void Replica::tick(std::vector<sched::Request>& requests) {
  scheduler_->admit(state_, requests);
  scheduler_->step(state_, requests);
  if (state_.obs != nullptr) {
    state_.obs->on_tick(state_.now, id_,
                        static_cast<index_t>(state_.queue.size()),
                        static_cast<index_t>(state_.running.size()),
                        state_.bm.used_blocks(), state_.bm.total_blocks());
  }
}

void Replica::begin_drain() {
  if (lifecycle_ == ReplicaLifecycle::kActive) {
    lifecycle_ = ReplicaLifecycle::kDraining;
  }
}

bool Replica::try_retire() {
  if (lifecycle_ != ReplicaLifecycle::kDraining || state_.busy()) {
    return false;
  }
  lifecycle_ = ReplicaLifecycle::kRetired;
  return true;
}

void Replica::migrate_out(std::size_t request_id,
                          std::vector<sched::Request>& requests) {
  MARLIN_ASSERT(request_id < requests.size());
  sched::Request& r = requests[request_id];
  MARLIN_CHECK(r.state == sched::RequestState::kRunning,
               "cannot migrate request " << r.id << " in state "
                                         << to_string(r.state)
                                         << " (only running requests whose "
                                            "prefill completed may move)");
  MARLIN_CHECK(r.replica == id_, "request " << r.id << " is placed on replica "
                                            << r.replica << ", not " << id_);
  const auto it =
      std::find(state_.running.begin(), state_.running.end(), request_id);
  MARLIN_CHECK(it != state_.running.end(),
               "request " << r.id << " is not in replica " << id_
                          << "'s running batch");
  state_.running.erase(it);
  state_.outstanding_tokens -= r.owed_tokens();
  state_.bm.release(r.blocks, r.tenant_id);
  for (sched::SequenceBlocks& f : r.forks) state_.bm.release(f, r.tenant_id);
  r.forks.clear();
  ++migrated_out_;
}

index_t Replica::begin_migration(std::size_t request_id,
                                 std::vector<sched::Request>& requests) {
  MARLIN_ASSERT(request_id < requests.size());
  sched::Request& r = requests[request_id];
  sched::BlockManager& bm = state_.bm;
  r.blocks.reserve(
      static_cast<std::size_t>(bm.blocks_for_tokens(r.max_kv_tokens())));
  const index_t need = bm.blocks_for_tokens(r.prefill_target());
  index_t cached_tokens = 0;
  const sched::PrefixCacheConfig& pc = bm.config().prefix_cache;
  if (pc.enabled &&
      r.hashable_prefix_blocks(bm.block_size()) >= pc.min_prefix_blocks) {
    r.append_prefix_chain(bm.block_size(), need, probe_chain_);
    const index_t hits =
        bm.acquire_prefill(r.blocks, need, probe_chain_, r.tenant_id);
    // Blocks already published here don't cross the wire; count the
    // skipped tokens like a prefill-side cache hit.
    cached_tokens = hits * bm.block_size();
    state_.prefix_tokens_skipped += cached_tokens;
    if (hits > 0) {
      ++state_.prefix_cache_hits;
      if (state_.obs != nullptr) {
        state_.obs->on_prefix_cache_hit(state_.now, r.id, id_, hits,
                                        cached_tokens);
      }
    }
  } else {
    bm.acquire(r.blocks, need, r.tenant_id);
  }
  bm.publish(r.blocks);
  if (r.num_sequences > 1) {
    const index_t per_seq = bm.blocks_for_tokens(r.max_kv_tokens());
    r.forks.reserve(static_cast<std::size_t>(r.num_sequences - 1));
    for (index_t k = 1; k < r.num_sequences; ++k) {
      r.forks.push_back(bm.fork(r.blocks, r.tenant_id, per_seq));
    }
  }
  return cached_tokens;
}

void Replica::finish_migration(std::size_t request_id, double ready_s,
                               std::vector<sched::Request>& requests) {
  MARLIN_ASSERT(request_id < requests.size());
  sched::Request& r = requests[request_id];
  r.replica = id_;
  advance_to(ready_s);
  state_.running.push_back(request_id);
  state_.outstanding_tokens += r.owed_tokens();
  ++migrated_in_;
}

}  // namespace marlin::serve::cluster
