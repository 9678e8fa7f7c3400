#pragma once
// Cluster-level discrete-event loop: the clock that used to live inside
// the scheduler's run loop, hoisted one level up so it can drive a whole
// fleet of replicas behind a front-end Router.
//
// The loop is strictly serial and deterministic, so a run gives the same
// bits at every thread count. Its one clock is an `EventQueue` popped in
// time order; at one instant an autoscaler *evaluation* runs first, then
// KV *landings* (in decision order), then the trace's next *arrival*,
// then replica *ticks* (lowest id first):
//
//   - evaluation: adds a replica or drains the highest-id one against the
//     queue depth at that instant, then queues the next one;
//   - landing: a KV handoff completes and joins its decode replica;
//   - arrival: the Router places the request (an idle replica's clock
//     advances to the arrival — a request cannot be seen early) and the
//     next request is queued;
//   - tick (one per busy replica, keyed by its clock): one admission
//     pass plus one engine step (see Scheduler's passive API); a drained
//     replica that went idle retires.
//
// So a replica woken by an arrival ticks before any later arrival is
// routed, and landings land in ready-time order. The run ends when only
// the next evaluation is left.
//
// Cost per event: O(log(R + L)) queue work for R replicas and L landings
// in flight; an arrival adds O(R) integer compares in the Router (each
// replica's least-loaded key is a maintained counter). An evaluation
// scans the fleet once.
//
// With one replica this reduces — engine call for engine call — to the
// original single-engine scheduler loop, which keeps every
// single-replica golden byte-identical (pinned by test_serve_cluster).

#include <deque>
#include <vector>

#include "serve/cluster/replica.hpp"
#include "serve/cluster/router.hpp"
#include "serve/sched/scheduler.hpp"

namespace marlin::serve::cluster {

/// Deterministic trace-driven autoscaler. Evaluates on the simulated
/// clock (an evaluation event every `interval_s`) against the mean
/// queue depth per routable replica — purely a function of the trace, so
/// runs reproduce bit-identically.
struct AutoscalerConfig {
  bool enabled = false;
  index_t min_replicas = 1;
  index_t max_replicas = 8;
  /// Simulated seconds between evaluations.
  double interval_s = 5.0;
  /// Scale up (add one replica) when mean queued requests per routable
  /// replica exceeds this.
  double scale_up_queue_per_replica = 8.0;
  /// Scale down (drain the highest-id routable replica) when the mean
  /// falls below this.
  double scale_down_queue_per_replica = 1.0;

  void validate() const;
};

/// Disaggregated prefill/decode pools. When enabled the fleet is
/// `prefill_replicas` prefill-role replicas (ids 0..P-1, the only ones
/// the Router places arrivals on) plus `decode_replicas` decode-role
/// replicas (ids P..P+D-1); `ClusterOptions::replicas` is ignored. At
/// prefill completion a request migrates to the decode replica with the
/// least outstanding work (ties: lowest id), its KV priced as one
/// point-to-point transfer on the link: bytes = `kv_bytes_per_token` x
/// the prompt tokens whose blocks the destination's prefix cache does
/// not already hold, seconds = bytes / `link_bytes_per_s` +
/// `link_latency_s` (a zero-rate, zero-latency link is free — the
/// differential-test configuration). The transfer latency lands on the
/// request's TTFT. Requests migrate at most once; when no active decode
/// replica can hold the KV (or the source is draining), the request
/// decodes in place — the unified fallback.
struct DisaggConfig {
  bool enabled = false;
  index_t prefill_replicas = 1;
  index_t decode_replicas = 1;
  /// KV bytes one context token occupies. `simulate_cluster_detailed`
  /// fills 0 from the engine; a direct EventLoop caller picks its own.
  double kv_bytes_per_token = 0;
  /// Transfer link. 0 bytes/s means infinitely fast (only the latency
  /// term is paid); 0/0 is the zero-cost link.
  double link_bytes_per_s = 0;
  double link_latency_s = 0;

  /// Seconds one KV transfer of `bytes` takes on the link.
  [[nodiscard]] double transfer_seconds(double bytes) const {
    return (link_bytes_per_s > 0 ? bytes / link_bytes_per_s : 0.0) +
           link_latency_s;
  }
  void validate() const;
};

struct ClusterOptions {
  /// Initial fleet size. The defaults — one replica, round-robin, no
  /// autoscaler, which a lone replica both make trivial — are exactly the
  /// legacy single-engine configuration.
  index_t replicas = 1;
  Placement placement = Placement::kRoundRobin;
  AutoscalerConfig autoscaler;
  /// Disaggregated prefill/decode pools (sizes the fleet by itself when
  /// enabled; mutually exclusive with the autoscaler).
  DisaggConfig disagg;

  void validate() const;
};

/// One replica's end-of-run accounting: its ledger plus its fleet place.
struct ReplicaStats : sched::RunCounters, sched::KvCounters {
  index_t id = 0;
  ReplicaLifecycle lifecycle = ReplicaLifecycle::kActive;
  ReplicaRole role = ReplicaRole::kUnified;
  double clock_s = 0;  // final value of the replica's clock
  index_t completed = 0;
  index_t peak_kv_blocks = 0;
  /// KV blocks still allocated after the run — always 0 unless a
  /// lifecycle bug leaks them (asserted by tests).
  index_t leaked_kv_blocks = 0;
};

/// Fleet-level outcome: the legacy SchedStats (metrics over all requests,
/// counters summed across replicas — for one replica bit-identical to the
/// pre-cluster scheduler loop) plus the per-replica split and autoscaler
/// accounting.
struct ClusterStats {
  sched::SchedStats sched;
  std::vector<ReplicaStats> replicas;
  index_t replicas_added = 0;    // autoscaler additions beyond the initial
  index_t replicas_drained = 0;  // drains begun (retired or still busy)
  index_t autoscaler_evaluations = 0;  // evaluation points reached
  index_t peak_replicas = 0;     // max simultaneously routable

  // KV wire traffic under disaggregation (zero when off); the handoff
  // count is `sched.migrated_out`.
  double transfer_bytes = 0;
  double transfer_seconds = 0;  // summed per-transfer link time
};

/// The one end-of-run fold every loop shares: a `ReplicaStats` row per
/// replica, the replicas' ledgers summed into `stats.sched`, the fleet's
/// KV peak and end time, and the metrics over `stats.sched.requests`.
void fold_fleet_stats(const std::deque<Replica>& fleet, ClusterStats& stats);

class EventLoop {
 public:
  /// `scheduler` is the shared passive policy (and step-model pricing)
  /// every replica is ticked with; borrowed, must outlive the loop.
  EventLoop(const sched::Scheduler& scheduler, ClusterOptions opts);

  /// Runs `trace` (ascending arrival times) to completion. Stateless
  /// across calls: every run builds a fresh fleet, so repeat runs
  /// reproduce exactly. `obs` (borrowed, may be null) attaches the
  /// observability recorder to the router, every replica and the
  /// autoscaler; the run's scheduling decisions are identical with or
  /// without it.
  [[nodiscard]] ClusterStats run(
      const std::vector<sched::TraceRequest>& trace,
      obs::ServeRecorder* obs = nullptr) const;

 private:
  const sched::Scheduler& scheduler_;
  ClusterOptions opts_;
};

}  // namespace marlin::serve::cluster
