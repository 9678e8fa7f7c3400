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
    : scheduler_(&scheduler), state_(scheduler.make_replica_state()),
      role_(role) {
  state_.replica_id = id;
}

void Replica::advance_to(double t) { state_.now = std::max(state_.now, t); }

void Replica::deliver(std::size_t request_id,
                      std::vector<sched::Request>& requests) {
  MARLIN_ASSERT(request_id < requests.size());
  MARLIN_CHECK(lifecycle_ == ReplicaLifecycle::kActive,
               "routed a request to " << to_string(lifecycle_) << " replica "
                                      << id());
  sched::Request& r = requests[request_id];
  r.replica = id();
  advance_to(r.arrival_s);
  state_.queue.push_back(request_id);
  state_.outstanding_tokens += r.owed_tokens();
  ++state_.routed;
  if (state_.obs != nullptr) {
    state_.obs->on_request_queued(r.arrival_s, r.id, r.tenant_id, id());
  }
}

void Replica::tick(std::vector<sched::Request>& requests) {
  scheduler_->admit(state_, requests);
  scheduler_->step(state_, requests);
  if (state_.obs != nullptr) {
    state_.obs->on_tick(state_.now, id(),
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
  MARLIN_CHECK(r.replica == id(), "request " << r.id
                                             << " is placed on replica "
                                             << r.replica << ", not " << id());
  const auto it =
      std::find(state_.running.begin(), state_.running.end(), request_id);
  MARLIN_CHECK(it != state_.running.end(),
               "request " << r.id << " is not in replica " << id()
                          << "'s running batch");
  state_.leave_running(
      static_cast<std::size_t>(it - state_.running.begin()), requests);
  state_.outstanding_tokens -= r.owed_tokens();
  state_.release_kv(r);
  ++state_.migrated_out;
}

index_t Replica::begin_migration(std::size_t request_id,
                                 std::vector<sched::Request>& requests) {
  MARLIN_ASSERT(request_id < requests.size());
  sched::Request& r = requests[request_id];
  // Blocks already published here don't cross the wire; the skipped
  // tokens count like a prefill-side cache hit.
  const index_t cached_tokens = state_.acquire_prompt(r);
  state_.bm.publish(r.blocks);
  state_.fork_sequences(r);
  return cached_tokens;
}

void Replica::delay_first_token(std::size_t request_id, double ready_s,
                                std::vector<sched::Request>& requests) {
  MARLIN_ASSERT(request_id < requests.size());
  sched::Request& r = requests[request_id];
  const double deadline_ms = scheduler_->config().slo.ttft_deadline_ms;
  if (deadline_ms > 0 && r.first_token_s >= 0 &&
      (r.first_token_s - r.arrival_s) * 1e3 <= deadline_ms &&
      (ready_s - r.arrival_s) * 1e3 > deadline_ms) {
    ++state_.slo_ttft_violations;
    if (state_.obs != nullptr) {
      state_.obs->on_slo_ttft_violation(ready_s, r.id);
    }
  }
  r.first_token_s = ready_s;
}

void Replica::finish_migration(std::size_t request_id, double ready_s,
                               std::vector<sched::Request>& requests) {
  MARLIN_ASSERT(request_id < requests.size());
  sched::Request& r = requests[request_id];
  r.replica = id();
  advance_to(ready_s);
  state_.join_running(request_id, requests);
  state_.outstanding_tokens += r.owed_tokens();
  ++state_.migrated_in;
}

}  // namespace marlin::serve::cluster
