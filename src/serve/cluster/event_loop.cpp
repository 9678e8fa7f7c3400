#include "serve/cluster/event_loop.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/serve_recorder.hpp"
#include "serve/cluster/event_queue.hpp"
#include "util/error.hpp"

namespace marlin::serve::cluster {

void AutoscalerConfig::validate() const {
  MARLIN_CHECK(min_replicas >= 1, "autoscaler min_replicas must be >= 1");
  MARLIN_CHECK(max_replicas >= min_replicas,
               "autoscaler max_replicas (" << max_replicas
                                           << ") below min_replicas ("
                                           << min_replicas << ")");
  MARLIN_CHECK(interval_s > 0, "autoscaler interval must be > 0");
  MARLIN_CHECK(scale_down_queue_per_replica >= 0,
               "negative autoscaler scale-down threshold");
  MARLIN_CHECK(scale_up_queue_per_replica > scale_down_queue_per_replica,
               "autoscaler scale-up threshold must exceed scale-down "
               "(hysteresis)");
}

void DisaggConfig::validate() const {
  if (!enabled) return;
  MARLIN_CHECK(prefill_replicas >= 1,
               "disaggregation needs at least one prefill replica");
  MARLIN_CHECK(decode_replicas >= 1,
               "disaggregation needs at least one decode replica");
  MARLIN_CHECK(kv_bytes_per_token >= 0,
               "negative disagg kv_bytes_per_token");
  MARLIN_CHECK(link_bytes_per_s >= 0 && link_latency_s >= 0,
               "negative disagg link pricing");
}

void ClusterOptions::validate() const {
  MARLIN_CHECK(replicas >= 1, "cluster needs at least one replica");
  autoscaler.validate();
  disagg.validate();
  MARLIN_CHECK(!(disagg.enabled && autoscaler.enabled),
               "disaggregated pools and the autoscaler are mutually "
               "exclusive (pool sizes are fixed)");
  if (autoscaler.enabled) {
    MARLIN_CHECK(replicas >= autoscaler.min_replicas &&
                     replicas <= autoscaler.max_replicas,
                 "initial replica count " << replicas
                                          << " outside autoscaler bounds ["
                                          << autoscaler.min_replicas << ", "
                                          << autoscaler.max_replicas << "]");
  }
}

namespace {

using S = sched::SchedStats;
/// The exported ledger: one `marlin_*_total` counter per row, read from
/// the fleet totals. `kv_grow_scans` is a work counter and stays out, as
/// does `migrated_in` (every handoff lands, so it equals `migrated_out`).
struct LedgerRow {
  const char* name;
  const char* help;
  index_t S::*member;
};
constexpr LedgerRow kLedgerRows[] = {
    {"marlin_requests_rejected_total",
     "Requests that could never fit the KV budget", &S::rejected},
    {"marlin_requests_shed_total", "Requests shed by deadline-aware admission",
     &S::shed},
    {"marlin_preemptions_total", "Recompute preemptions of running sequences",
     &S::preemptions},
    {"marlin_prefill_steps_total", "Chunked-prefill rounds", &S::prefill_steps},
    {"marlin_decode_steps_total", "Decode engine steps", &S::decode_steps},
    {"marlin_spec_rounds_total", "Speculative propose-then-verify rounds",
     &S::spec_rounds},
    {"marlin_spec_draft_tokens_total", "Draft tokens proposed",
     &S::spec_draft_tokens},
    {"marlin_spec_committed_tokens_total", "Tokens committed by verification",
     &S::spec_committed_tokens},
    {"marlin_prefix_cache_hits_total",
     "Admissions that reused cached prefix blocks", &S::prefix_cache_hits},
    {"marlin_prefix_cache_hit_blocks_total",
     "KV blocks reused from the prefix cache", &S::prefix_cache_hit_blocks},
    {"marlin_prefix_tokens_skipped_total",
     "Prefill tokens skipped thanks to cached prefixes",
     &S::prefix_tokens_skipped},
    {"marlin_prefix_cache_lookup_blocks_total",
     "Prompt blocks probed against the prefix cache",
     &S::prefix_cache_lookup_blocks},
    {"marlin_prefix_cache_evictions_total",
     "Cached-but-idle prefix blocks reclaimed under pressure",
     &S::prefix_cache_evictions},
    {"marlin_cow_forks_total",
     "Sequences forked to share a prompt copy-on-write", &S::cow_forks},
    {"marlin_cow_copies_total",
     "Shared KV blocks copied on first divergent write", &S::cow_copies},
    {"marlin_slo_ttft_violations_total",
     "Completed requests past the TTFT deadline", &S::slo_ttft_violations},
    {"marlin_slo_tpot_violations_total",
     "Completed requests past the TPOT deadline", &S::slo_tpot_violations},
    {"marlin_kv_blocks_allocated_total", "KV blocks handed out over the run",
     &S::kv_blocks_allocated},
    {"marlin_kv_blocks_freed_total", "KV blocks returned over the run",
     &S::kv_blocks_freed},
    {"marlin_kv_grow_failures_total",
     "Decode KV growths refused by the budget (preemption pressure)",
     &S::kv_grow_failures},
    {"marlin_requests_routed_total", "Requests the router placed on a replica",
     &S::routed},
    {"marlin_kv_transfers_total",
     "Prefill -> decode KV handoffs (disaggregated pools)", &S::migrated_out},
};

/// The metrics exposition's single writer of run totals: every
/// `marlin_*_total` counter and run-end gauge, derived from the finished
/// run's stats. Counters are incremented by the run's totals, so a
/// registry reused across runs accumulates; gauges take this run's value.
void export_run_metrics(const ClusterStats& stats, obs::MetricsRegistry& m) {
  const S& st = stats.sched;
  const auto n = [](index_t v) { return static_cast<double>(v); };
  for (const LedgerRow& c : kLedgerRows) {
    m.counter(c.name, c.help).inc(n(st.*c.member));
  }
  index_t retired = 0;
  for (const ReplicaStats& rep : stats.replicas) {
    retired += rep.lifecycle == ReplicaLifecycle::kRetired ? 1 : 0;
  }
  const struct {
    const char* name;
    const char* help;
    double value;
  } fleet_counters[] = {
      {"marlin_requests_completed_total", "Requests that finished generating",
       n(st.metrics.completed)},
      {"marlin_kv_transfer_bytes_total", "KV bytes moved prefill -> decode",
       stats.transfer_bytes},
      {"marlin_kv_transfer_seconds_total",
       "Link seconds spent moving KV prefill -> decode",
       stats.transfer_seconds},
      {"marlin_replicas_started_total", "Replicas brought up",
       static_cast<double>(stats.replicas.size())},
      {"marlin_replicas_drained_total",
       "Replica drains begun by the autoscaler", n(stats.replicas_drained)},
      {"marlin_replicas_retired_total", "Drained replicas that went idle",
       n(retired)},
      {"marlin_autoscaler_evaluations_total", "Autoscaler evaluation points",
       n(stats.autoscaler_evaluations)},
  };
  for (const auto& c : fleet_counters) m.counter(c.name, c.help).inc(c.value);
  for (const sched::TenantMetrics& t : sched::per_tenant_metrics(st)) {
    if (t.completed == 0) continue;
    m.counter("marlin_tenant_tokens_generated_total",
              "Output tokens generated, per tenant",
              "tenant=\"" + std::to_string(t.tenant) + "\"")
        .inc(n(t.output_tokens));
  }

  m.gauge("marlin_sim_end_seconds", "Simulated time the run finished at")
      .set(st.sim_end_s);
  m.gauge("marlin_kv_blocks_peak", "Fleet-wide peak KV blocks in use")
      .set(n(st.peak_kv_blocks));
  m.gauge("marlin_replicas_peak", "Peak simultaneously routable replicas")
      .set(n(stats.peak_replicas));
  m.gauge("marlin_prefix_cache_hit_rate",
          "Fraction of probed prompt blocks served from the prefix cache")
      .set(st.prefix_cache_lookup_blocks > 0
               ? n(st.prefix_cache_hit_blocks) /
                     n(st.prefix_cache_lookup_blocks)
               : 0.0);
}

}  // namespace

EventLoop::EventLoop(const sched::Scheduler& scheduler, ClusterOptions opts)
    : scheduler_(scheduler), opts_(opts) {
  opts_.validate();
}

ClusterStats EventLoop::run(const std::vector<sched::TraceRequest>& trace,
                            obs::ServeRecorder* obs) const {
  ClusterStats stats;
  std::vector<sched::Request>& requests = stats.sched.requests;
  requests = sched::requests_from_trace(trace);

  // The fleet only ever grows (a deque keeps references stable); retired
  // replicas stay in place so ids keep indexing it. Under disaggregation
  // the prefill pool takes ids 0..P-1 and the decode pool P..P+D-1.
  const DisaggConfig& disagg = opts_.disagg;
  const index_t initial_replicas =
      disagg.enabled ? disagg.prefill_replicas + disagg.decode_replicas
                     : opts_.replicas;
  std::deque<Replica> fleet;
  EventQueue events;
  // Queues or re-keys a replica's tick where another event can change its
  // clock or busy state: a delivery or a landing (a tick re-keys itself).
  const auto rekey = [&](const Replica& rep) {
    events.set_tick(static_cast<std::size_t>(rep.id()), rep.busy(),
                    rep.now());
  };
  for (index_t i = 0; i < initial_replicas; ++i) {
    const ReplicaRole role =
        !disagg.enabled ? ReplicaRole::kUnified
        : (i < disagg.prefill_replicas ? ReplicaRole::kPrefill
                                       : ReplicaRole::kDecode);
    fleet.emplace_back(i, scheduler_, role);
    if (obs != nullptr) {
      fleet.back().set_observer(obs);
      obs->on_replica_start(0.0, i);
    }
  }
  Router router(opts_.placement, obs);

  // The trace cursor is the one queued arrival: routing request i queues
  // request i + 1.
  if (!requests.empty()) events.push_arrival(requests[0].arrival_s, 0);

  const auto routable_count = [&] {
    index_t n = 0;
    for (const Replica& rep : fleet) n += rep.routable() ? 1 : 0;
    return n;
  };
  // A replica goes idle only in its own tick and begins draining only at
  // an autoscaler evaluation, so checking just that replica at those two
  // points retires every drained replica the moment it can retire.
  const auto retire_if_drained = [&](Replica& rep) {
    if (rep.try_retire() && obs != nullptr) {
      obs->on_replica_retire(rep.now(), rep.id());
    }
  };

  // ---- prefill -> decode migration (disaggregated pools) ---------------
  // A migration decided at time t releases the KV on the source and
  // acquires it on the destination immediately (the receive buffer is
  // held for the transfer's duration), then the request sits in flight
  // until `ready_s = t + link time`, when its landing event delivers it
  // to the destination's decode batch.

  // Scans a prefill replica right after its tick for requests whose
  // prefill just completed. Each is decided exactly once: migrate when an
  // active decode replica can hold the KV, otherwise decode in place (the
  // unified fallback — also taken on a draining source, which finishes
  // its work where it is).
  const auto scan_migrations = [&](Replica& src) {
    for (std::size_t pos = 0; pos < src.state().running.size();) {
      const std::size_t id = src.state().running[pos];
      sched::Request& r = requests[id];
      if (r.migration_decided ||
          r.state != sched::RequestState::kRunning) {
        ++pos;
        continue;
      }
      r.migration_decided = true;
      if (src.lifecycle() != ReplicaLifecycle::kActive) {
        ++pos;
        continue;
      }
      const index_t need =
          src.state().bm.blocks_for_tokens(r.prefill_target());
      Replica* dest = nullptr;
      index_t dest_load = 0;
      for (Replica& rep : fleet) {
        if (rep.role() != ReplicaRole::kDecode ||
            rep.lifecycle() != ReplicaLifecycle::kActive ||
            !rep.state().bm.can_allocate(need)) {
          continue;
        }
        // Strict < keeps the lowest id on ties.
        const index_t load = rep.outstanding_tokens();
        if (dest == nullptr || load < dest_load) {
          dest = &rep;
          dest_load = load;
        }
      }
      if (dest == nullptr) {  // decode pool full: decode in place
        ++pos;
        continue;
      }
      const double t0 = src.now();
      src.migrate_out(id, requests);  // shrinks running at `pos`
      const index_t skipped = dest->begin_migration(id, requests);
      const index_t moved = std::max<index_t>(0, r.prompt_tokens - skipped);
      const double bytes =
          disagg.kv_bytes_per_token * static_cast<double>(moved);
      const double ready_s = t0 + disagg.transfer_seconds(bytes);
      src.delay_first_token(id, ready_s, requests);
      stats.transfer_bytes += bytes;
      stats.transfer_seconds += ready_s - t0;
      if (obs != nullptr) {
        obs->on_kv_transfer(t0, ready_s, r.id, src.id(), dest->id(), bytes,
                            moved);
      }
      events.push_landing(ready_s, id, static_cast<std::size_t>(dest->id()));
    }
  };

  // ---- handlers, one per event kind ------------------------------------
  const AutoscalerConfig& as = opts_.autoscaler;
  stats.peak_replicas = routable_count();
  if (as.enabled) {
    events.push_evaluation(as.interval_s);
  }

  // Adds a replica or drains the highest-id one against the mean queue
  // depth per routable replica, then queues the next evaluation.
  const auto evaluate = [&](double t_eval) {
    events.push_evaluation(t_eval + as.interval_s);
    ++stats.autoscaler_evaluations;
    const index_t routable = routable_count();
    index_t queued = 0;
    for (const Replica& rep : fleet) {
      if (rep.routable()) {
        queued += static_cast<index_t>(rep.state().queue.size());
      }
    }
    const double load =
        static_cast<double>(queued) / static_cast<double>(routable);
    if (load > as.scale_up_queue_per_replica && routable < as.max_replicas) {
      const index_t new_id = static_cast<index_t>(fleet.size());
      fleet.emplace_back(new_id, scheduler_);
      fleet.back().advance_to(t_eval);  // joins at the evaluation time
      if (obs != nullptr) {
        fleet.back().set_observer(obs);
        obs->on_autoscaler_eval(t_eval, load, routable, "scale-up");
        obs->on_replica_start(t_eval, new_id);
      }
      ++stats.replicas_added;
      stats.peak_replicas = std::max(stats.peak_replicas, routable_count());
    } else if (load < as.scale_down_queue_per_replica &&
               routable > as.min_replicas) {
      if (obs != nullptr) {
        obs->on_autoscaler_eval(t_eval, load, routable, "scale-down");
      }
      // Drain the highest-id routable replica (the newest addition —
      // LIFO keeps the stable core replicas serving).
      for (std::size_t i = fleet.size(); i-- > 0;) {
        if (fleet[i].routable()) {
          fleet[i].begin_drain();
          ++stats.replicas_drained;
          if (obs != nullptr) obs->on_replica_drain(t_eval, fleet[i].id());
          retire_if_drained(fleet[i]);
          break;
        }
      }
    } else if (obs != nullptr) {
      obs->on_autoscaler_eval(t_eval, load, routable, "hold");
    }
  };

  // One admission pass plus one engine step. A tick must change
  // *something* (the clock, a flight, or a terminal counter); one that
  // does not leaves its replica out of the queue. Only a decode replica
  // blocked on KV that its in-flight landings hold can do that, and its
  // next landing queues it again.
  const auto progress = [](const sched::ReplicaState& s) {
    return std::tuple(s.now, s.queue.size(), s.active(), s.rejected + s.shed);
  };
  const auto tick = [&](Replica& rep) {
    const auto before = progress(rep.state());
    rep.tick(requests);
    const bool stuck = rep.busy() && progress(rep.state()) == before;
    if (disagg.enabled && rep.role() == ReplicaRole::kPrefill) {
      scan_migrations(rep);
    }
    events.set_tick(static_cast<std::size_t>(rep.id()),
                    rep.busy() && !stuck, rep.now());
    retire_if_drained(rep);
  };

  // An evaluation never keeps the run alive: the run ends when nothing
  // else is queued.
  while (!events.empty()) {
    const Event ev = events.top();
    if (ev.kind() == EventKind::kTick) {
      tick(fleet[ev.id()]);
      continue;
    }
    events.pop();
    if (ev.kind() == EventKind::kEvaluation) {
      if (events.empty()) break;
      evaluate(ev.time);
    } else if (ev.kind() == EventKind::kLanding) {
      const EventQueue::Landing landing = events.take_landing(ev.id());
      Replica& dest = fleet[landing.dest];
      dest.finish_migration(landing.request, ev.time, requests);
      rekey(dest);
    } else {
      const std::size_t i = ev.id();
      Replica& placed = fleet[router.pick(requests[i], fleet)];
      placed.deliver(i, requests);
      rekey(placed);
      if (i + 1 < requests.size()) {
        events.push_arrival(requests[i + 1].arrival_s, i + 1);
      }
    }
  }
  // A replica still busy made no progress and had no landing to wait for.
  for (const Replica& rep : fleet) {
    MARLIN_CHECK(!rep.busy(), "event loop stalled: replica "
                                  << rep.id() << " made no progress at t="
                                  << rep.now());
  }

  fold_fleet_stats(fleet, stats);
  if (obs != nullptr && obs->metrics() != nullptr) {
    export_run_metrics(stats, *obs->metrics());
  }
  return stats;
}

void fold_fleet_stats(const std::deque<Replica>& fleet, ClusterStats& stats) {
  sched::SchedStats& st = stats.sched;
  double batch_weighted = 0;
  double decode_time_total = 0;
  stats.replicas.reserve(fleet.size());
  for (const Replica& rep : fleet) {
    const sched::ReplicaState& s = rep.state();
    st += s;
    st += s.bm.counters();
    st.peak_kv_blocks = std::max(st.peak_kv_blocks, s.bm.peak_used_blocks());
    st.sim_end_s = std::max(st.sim_end_s, s.now);
    batch_weighted += s.batch_weighted;
    decode_time_total += s.decode_time_total;

    ReplicaStats& r = stats.replicas.emplace_back();
    r += s;
    r += s.bm.counters();
    r.id = rep.id();
    r.lifecycle = rep.lifecycle();
    r.role = rep.role();
    r.clock_s = s.now;
    r.peak_kv_blocks = s.bm.peak_used_blocks();
    r.leaked_kv_blocks = s.bm.used_blocks();
  }
  st.metrics = sched::metrics_from_requests(st.requests, batch_weighted,
                                            decode_time_total);
  for (const sched::Request& r : st.requests) {
    if (r.finish_s >= 0 && r.replica >= 0) {
      ++stats.replicas[static_cast<std::size_t>(r.replica)].completed;
    }
  }
}

}  // namespace marlin::serve::cluster
