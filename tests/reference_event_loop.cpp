#include "reference_event_loop.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace marlin::serve::cluster::reference {
namespace {

/// The Router's placement policies over the recounted key.
class Placer {
 public:
  explicit Placer(Placement placement) : placement_(placement) {}

  std::size_t pick(const sched::Request& r, const std::deque<Replica>& fleet,
                   const std::vector<sched::Request>& requests) {
    std::vector<std::size_t> routable;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (fleet[i].routable()) routable.push_back(i);
    }
    MARLIN_CHECK(!routable.empty(),
                 "router has no routable replica for request " << r.id);
    switch (placement_) {
      case Placement::kRoundRobin: {
        const std::size_t slot = rr_cursor_ % routable.size();
        rr_cursor_ = slot + 1;
        return routable[slot];
      }
      case Placement::kLeastLoaded: {
        std::size_t best = routable[0];
        index_t best_load = recount_load(fleet[best], requests);
        for (std::size_t k = 1; k < routable.size(); ++k) {
          const index_t load = recount_load(fleet[routable[k]], requests);
          if (load < best_load) {
            best_load = load;
            best = routable[k];
          }
        }
        return best;
      }
      case Placement::kSessionAffinity: {
        const auto h = util::mix64(static_cast<std::uint64_t>(r.tenant_id));
        return routable[static_cast<std::size_t>(h % routable.size())];
      }
    }
    return routable[0];
  }

 private:
  Placement placement_;
  std::size_t rr_cursor_ = 0;
};

}  // namespace

index_t recount_load(const Replica& rep,
                     const std::vector<sched::Request>& requests) {
  const auto owed = [&](std::size_t id) {
    const sched::Request& r = requests[id];
    return (r.prefill_target() - r.prefilled) +
           (r.output_tokens - r.generated);
  };
  index_t total = 0;
  for (const std::size_t id : rep.state().queue) total += owed(id);
  for (const std::size_t id : rep.state().prefilling) total += owed(id);
  for (const std::size_t id : rep.state().running) total += owed(id);
  return total;
}

ClusterStats run(const sched::Scheduler& scheduler,
                 const ClusterOptions& opts,
                 const std::vector<sched::TraceRequest>& trace) {
  opts.validate();
  ClusterStats stats;
  std::vector<sched::Request>& requests = stats.sched.requests;
  requests = sched::requests_from_trace(trace);

  const DisaggConfig& disagg = opts.disagg;
  const index_t initial_replicas =
      disagg.enabled ? disagg.prefill_replicas + disagg.decode_replicas
                     : opts.replicas;
  std::deque<Replica> fleet;
  for (index_t i = 0; i < initial_replicas; ++i) {
    const ReplicaRole role =
        !disagg.enabled ? ReplicaRole::kUnified
        : (i < disagg.prefill_replicas ? ReplicaRole::kPrefill
                                       : ReplicaRole::kDecode);
    fleet.emplace_back(i, scheduler, role);
  }
  Placer placer(opts.placement);
  std::size_t next_arrival = 0;

  const auto routable_count = [&] {
    index_t n = 0;
    for (const Replica& rep : fleet) n += rep.routable() ? 1 : 0;
    return n;
  };
  const auto retire_drained = [&] {
    for (Replica& rep : fleet) (void)rep.try_retire();
  };

  struct PendingMigration {
    std::size_t request_id;
    std::size_t dest;
    double ready_s;
  };
  std::vector<PendingMigration> pending;  // decision order
  // Replicas whose last tick made no progress: they wait for a landing.
  std::vector<bool> parked(fleet.size(), false);

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
      if (src.lifecycle() != ReplicaLifecycle::kActive ||
          src.state().generated(r) >= r.output_tokens) {
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
        const index_t load = recount_load(rep, requests);
        if (dest == nullptr || load < dest_load) {
          dest = &rep;
          dest_load = load;
        }
      }
      if (dest == nullptr) {
        ++pos;
        continue;
      }
      const double t0 = src.now();
      src.migrate_out(id, requests);
      const index_t skipped = dest->begin_migration(id, requests);
      const index_t moved = std::max<index_t>(0, r.prompt_tokens - skipped);
      const double bytes =
          disagg.kv_bytes_per_token * static_cast<double>(moved);
      const double ready_s = t0 + disagg.transfer_seconds(bytes);
      src.delay_first_token(id, ready_s, requests);
      stats.transfer_bytes += bytes;
      stats.transfer_seconds += ready_s - t0;
      pending.push_back(PendingMigration{
          id, static_cast<std::size_t>(dest->id()), ready_s});
    }
  };

  const AutoscalerConfig& as = opts.autoscaler;
  double next_eval_s = as.interval_s;
  stats.peak_replicas = routable_count();

  const auto evaluate = [&] {
    const double t_eval = next_eval_s;
    next_eval_s += as.interval_s;
    ++stats.autoscaler_evaluations;
    retire_drained();
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
      fleet.emplace_back(new_id, scheduler);
      fleet.back().advance_to(t_eval);
      parked.push_back(false);
      ++stats.replicas_added;
      stats.peak_replicas = std::max(stats.peak_replicas, routable_count());
    } else if (load < as.scale_down_queue_per_replica &&
               routable > as.min_replicas) {
      for (std::size_t i = fleet.size(); i-- > 0;) {
        if (fleet[i].routable()) {
          fleet[i].begin_drain();
          ++stats.replicas_drained;
          break;
        }
      }
      retire_drained();
    }
  };

  const auto tick = [&](Replica& target) {
    const double now_before = target.now();
    const std::size_t queue_before = target.state().queue.size();
    const std::size_t active_before = target.state().active();
    const index_t terminal_before =
        target.state().rejected + target.state().shed;
    target.tick(requests);
    parked[static_cast<std::size_t>(target.id())] =
        target.busy() && target.now() == now_before &&
        target.state().queue.size() == queue_before &&
        target.state().active() == active_before &&
        target.state().rejected + target.state().shed == terminal_before;
    if (disagg.enabled && target.role() == ReplicaRole::kPrefill) {
      scan_migrations(target);
    }
    retire_drained();
  };

  // Each step runs the earliest event, found by scanning every source:
  // (time, phase) with phases evaluation < landing < arrival < tick, and
  // ties within a phase to the first found (decision order for landings,
  // lowest id for ticks) by a strict <.
  enum Phase { kEvaluation, kLanding, kArrival, kTick };
  while (true) {
    bool found = false;
    double time = 0;
    Phase phase = kTick;
    std::size_t index = 0;
    const auto consider = [&](double t, Phase p, std::size_t i) {
      if (!found || t < time || (t == time && p < phase)) {
        found = true;
        time = t;
        phase = p;
        index = i;
      }
    };
    for (std::size_t i = 0; i < pending.size(); ++i) {
      consider(pending[i].ready_s, kLanding, i);
    }
    if (next_arrival < requests.size()) {
      consider(requests[next_arrival].arrival_s, kArrival, next_arrival);
    }
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (fleet[i].busy() && !parked[i]) consider(fleet[i].now(), kTick, i);
    }
    // Only the other events keep the run going.
    if (!found) break;
    if (as.enabled) consider(next_eval_s, kEvaluation, 0);

    if (phase == kEvaluation) {
      evaluate();
    } else if (phase == kLanding) {
      const PendingMigration p = pending[index];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(index));
      fleet[p.dest].finish_migration(p.request_id, p.ready_s, requests);
      parked[p.dest] = false;
    } else if (phase == kArrival) {
      const std::size_t placed = placer.pick(requests[index], fleet, requests);
      fleet[placed].deliver(index, requests);
      parked[placed] = false;
      ++next_arrival;
    } else {
      tick(fleet[index]);
    }
  }
  for (const Replica& rep : fleet) {
    MARLIN_CHECK(!rep.busy(), "reference loop: replica " << rep.id()
                                                         << " stalled");
  }

  fold_fleet_stats(fleet, stats);
  return stats;
}

}  // namespace marlin::serve::cluster::reference
