#pragma once
// One serving replica: a {StepModel, BlockManager, Scheduler} bundle with
// an add/drain lifecycle, driven by the cluster EventLoop.
//
// The Replica owns its mutable `sched::ReplicaState` (clock, queue,
// flights, KV block manager, WFQ state, counters) and borrows the passive
// `sched::Scheduler` policy object that ticks it — the scheduler in turn
// references the StepModel pricing the engine steps, so one Scheduler
// (and one step table) can be shared by every replica of a
// homogeneous fleet while each Replica keeps fully independent state.
//
// Lifecycle: kActive replicas accept routed requests; `begin_drain` stops
// new placements while queued and in-flight work keeps being served;
// a drained replica retires (kRetired) once it goes idle. Retired
// replicas keep their counters for the end-of-run ClusterStats.

#include <vector>

#include "serve/sched/scheduler.hpp"

namespace marlin::serve::cluster {

enum class ReplicaLifecycle { kActive, kDraining, kRetired };

const char* to_string(ReplicaLifecycle lc);

/// Pool membership under disaggregated serving. Unified replicas (the
/// default, and the only role outside disaggregation) both prefill and
/// decode; prefill-role replicas take arrivals and hand requests off at
/// prefill completion; decode-role replicas never take arrivals — they
/// only receive migrated requests.
enum class ReplicaRole { kUnified, kPrefill, kDecode };

const char* to_string(ReplicaRole role);

class Replica {
 public:
  /// `scheduler` is borrowed and must outlive the replica; its config
  /// carves this replica's private KV block budget.
  Replica(index_t id, const sched::Scheduler& scheduler,
          ReplicaRole role = ReplicaRole::kUnified);

  [[nodiscard]] index_t id() const { return state_.replica_id; }
  [[nodiscard]] ReplicaLifecycle lifecycle() const { return lifecycle_; }
  [[nodiscard]] ReplicaRole role() const { return role_; }
  /// Accepts new placements: active (draining/retired replicas only
  /// finish what they already hold) and not decode-role (the decode pool
  /// is fed by migration, never by the router).
  [[nodiscard]] bool routable() const {
    return lifecycle_ == ReplicaLifecycle::kActive &&
           role_ != ReplicaRole::kDecode;
  }
  /// Requests waiting or in flight — a busy replica must keep ticking.
  [[nodiscard]] bool busy() const { return state_.busy(); }
  /// The replica's discrete-event clock (time its last step completed).
  [[nodiscard]] double now() const { return state_.now; }

  /// Clock-advance to `t` if `t` is in the future (idle jump / fleet
  /// join); never moves the clock backwards.
  void advance_to(double t);

  /// Accepts request `request_id`: stamps its placement, advances the
  /// clock to its arrival (a request cannot be seen early) and queues it.
  void deliver(std::size_t request_id, std::vector<sched::Request>& requests);

  /// One scheduler tick: an admission pass, then one engine step.
  void tick(std::vector<sched::Request>& requests);

  /// Attaches the observability recorder (borrowed; null detaches — the
  /// default, recording-off fast path). The EventLoop sets this on every
  /// replica it creates when a recorder is supplied.
  void set_observer(obs::ServeRecorder* obs) { state_.obs = obs; }

  /// Stops new placements; already-routed work keeps being served.
  void begin_drain();
  /// Retires a draining replica once idle. Returns true on the
  /// kDraining -> kRetired transition.
  bool try_retire();

  // ---- prefill -> decode migration (disaggregated pools) ---------------

  /// Source half of a migration: removes a request whose prefill just
  /// completed from this replica's running batch and releases every KV
  /// reference it holds here (published prompt blocks park in the local
  /// prefix cache as usual). Throws unless the request is currently
  /// running on this replica — a queued, preempted or finished request
  /// must never migrate.
  void migrate_out(std::size_t request_id,
                   std::vector<sched::Request>& requests);

  /// Destination half, called at the migration decision: re-acquires the
  /// request's prefill KV through the handle API — the leading run of its
  /// prefix chain is served from this replica's prefix cache where
  /// published, and only the remainder needs the wire — publishes it, and
  /// re-forks the extra sampling sequences. The request is *not* running
  /// here yet (the transfer is still in flight); `finish_migration`
  /// delivers it. Returns the prompt tokens the local cache skipped.
  index_t begin_migration(std::size_t request_id,
                          std::vector<sched::Request>& requests);

  /// Source side, once the handoff is priced: the request's first token
  /// streams only when its KV lands at `ready_s`. A TTFT deadline its
  /// prefill here met but the wire misses counts in this replica's
  /// `slo_ttft_violations`.
  void delay_first_token(std::size_t request_id, double ready_s,
                         std::vector<sched::Request>& requests);

  /// Completes an in-flight migration at `ready_s`: stamps the placement,
  /// advances the clock (the request cannot decode before its KV landed)
  /// and appends it to the running batch.
  void finish_migration(std::size_t request_id, double ready_s,
                        std::vector<sched::Request>& requests);

  /// The least-loaded placement key: `Request::owed_tokens()` summed
  /// over queued and in-flight requests, i.e. prompt + output - prefilled
  /// per request. A running request keeps counting its full output (the
  /// key does not shrink as it decodes). O(1): a counter maintained on
  /// every change, see `sched::ReplicaState::outstanding_tokens`.
  [[nodiscard]] index_t outstanding_tokens() const {
    return state_.outstanding_tokens;
  }

  /// Direct state access for the EventLoop's stats aggregation and for
  /// white-box tests.
  [[nodiscard]] const sched::ReplicaState& state() const { return state_; }

 private:
  const sched::Scheduler* scheduler_;
  sched::ReplicaState state_;
  ReplicaLifecycle lifecycle_ = ReplicaLifecycle::kActive;
  ReplicaRole role_ = ReplicaRole::kUnified;
};

}  // namespace marlin::serve::cluster
