#include "reference_admission.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "reference_step.hpp"
#include "util/error.hpp"

namespace marlin::serve::sched::reference {

void admit(const Scheduler& scheduler, ReplicaState& s,
           std::vector<Request>& requests) {
  const SchedulerConfig& cfg = scheduler.config();
  MARLIN_CHECK(s.obs == nullptr, "the reference admission does not record");
  const bool wfq = cfg.policy == SchedPolicy::kWeightedFair;
  const auto batch_cap = static_cast<std::size_t>(cfg.max_batch);
  if (s.queue.empty() || s.active() >= batch_cap) return;

  const auto set_prefilled = [&](Request& r, index_t prefilled) {
    s.outstanding_tokens -= r.owed_tokens();
    r.prefilled = prefilled;
    s.outstanding_tokens += r.owed_tokens();
  };
  const auto slo_hopeless = [&](const Request& r) {
    const double deadline_ms = cfg.slo.ttft_deadline_ms;
    if (deadline_ms <= 0 || r.first_token_s >= 0) return false;
    const double best_ttft_s =
        (s.now - r.arrival_s) +
        scheduler.model().prefill_seconds(1, r.prefill_target());
    return best_ttft_s * 1e3 > deadline_ms;
  };
  const auto never_fits = [&](const Request& r) {
    return !s.bm.unlimited() &&
           r.max_kv_blocks(s.bm.block_size()) + s.bm.watermark_blocks() >
               s.bm.total_blocks();
  };
  const auto policy_key = [&](const Request& r) -> index_t {
    if (cfg.policy == SchedPolicy::kShortestJob) {
      return r.prefill_target() + (r.output_tokens - r.generated);
    }
    if (cfg.policy == SchedPolicy::kMaxUtilization) return r.max_kv_tokens();
    return 0;
  };
  const auto wfq_key = [&](const Request& r) {
    TenantSpec spec;  // an unconfigured tenant is neutral
    for (const TenantSpec& t : cfg.tenants) {
      if (t.id == r.tenant_id) spec = t;
    }
    return static_cast<double>(s.served_tokens(r.tenant_id)) / spec.weight +
           static_cast<double>(spec.tier) * 8192.0 -
           256.0 * (s.now - r.arrival_s);
  };
  // WFQ borrow-and-reclaim, planned on a snapshot and executed only when
  // the plan covers the admission.
  const auto reclaim_for = [&](const Request& r) {
    const index_t needed = s.bm.blocks_for_tokens(r.prefill_target());
    if (!s.bm.within_quota(r.tenant_id, needed)) return;
    index_t free = s.bm.free_blocks();
    std::map<index_t, index_t> used;
    for (const std::size_t id : s.running) {
      const index_t tenant = requests[id].tenant_id;
      if (!used.contains(tenant)) {
        used[tenant] = s.bm.tenant_used_blocks(tenant);
      }
    }
    std::vector<bool> planned(s.running.size(), false);
    std::vector<std::size_t> plan;
    while (needed + s.bm.watermark_blocks() > free) {
      std::size_t best = s.running.size();
      index_t worst_over = 0;
      for (std::size_t i = s.running.size(); i-- > 0;) {
        const Request& v = requests[s.running[i]];
        if (planned[i] || v.tenant_id == r.tenant_id) continue;
        const index_t quota = s.bm.effective_quota(v.tenant_id);
        const index_t over =
            quota == kNoQuota
                ? 0
                : std::max<index_t>(0, used.find(v.tenant_id)->second - quota);
        if (over > worst_over) {
          worst_over = over;
          best = i;
        }
      }
      if (best >= s.running.size()) return;
      planned[best] = true;
      plan.push_back(s.running[best]);
      const index_t held = held_blocks(requests[s.running[best]]);
      free += held;
      used[requests[s.running[best]].tenant_id] -= held;
    }
    for (const std::size_t victim_id : plan) {
      const auto pos = static_cast<std::size_t>(
          std::find(s.running.begin(), s.running.end(), victim_id) -
          s.running.begin());
      preempt_running_at(s, requests, pos);
    }
  };

  std::vector<std::size_t> order(s.queue.begin(), s.queue.end());
  if (wfq) {
    std::vector<std::pair<double, std::size_t>> keyed;
    for (const std::size_t id : order) {
      keyed.emplace_back(wfq_key(requests[id]), id);
    }
    std::stable_sort(
        keyed.begin(), keyed.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  } else if (cfg.policy != SchedPolicy::kFcfs) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return policy_key(requests[a]) <
                              policy_key(requests[b]);
                     });
  }
  std::vector<std::uint8_t> taken(requests.size(), 0);
  std::vector<std::uint64_t> chain;
  for (const std::size_t id : order) {
    if (s.active() >= batch_cap) break;
    Request& r = requests[id];
    if (slo_hopeless(r)) {
      r.shed = true;
      r.set_state(RequestState::kFinished);
      s.outstanding_tokens -= r.owed_tokens();
      ++s.shed;
      taken[id] = 1;
      continue;
    }
    if (never_fits(r)) {
      r.rejected = true;
      r.set_state(RequestState::kFinished);
      s.outstanding_tokens -= r.owed_tokens();
      ++s.rejected;
      taken[id] = 1;
      continue;
    }
    if (wfq && !s.bm.can_admit(r.prefill_target())) reclaim_for(r);
    if (!s.bm.can_admit(r.prefill_target())) {
      // FCFS and SJF respect head-of-line order; max-util and WFQ keep
      // scanning for anything that still fits.
      if (cfg.policy == SchedPolicy::kFcfs ||
          cfg.policy == SchedPolicy::kShortestJob) {
        break;
      }
      continue;
    }
    r.blocks.reserve(
        static_cast<std::size_t>(s.bm.blocks_for_tokens(r.max_kv_tokens())));
    const index_t need = s.bm.blocks_for_tokens(r.prefill_target());
    index_t cached_tokens = 0;
    const PrefixCacheConfig& pc = s.bm.config().prefix_cache;
    if (pc.enabled &&
        r.hashable_prefix_blocks(s.bm.block_size()) >= pc.min_prefix_blocks) {
      r.append_prefix_chain(s.bm.block_size(), need, chain);
      const index_t hits =
          s.bm.acquire_prefill(r.blocks, need, chain, r.tenant_id);
      cached_tokens = hits * s.bm.block_size();
      s.prefix_tokens_skipped += cached_tokens;
      if (hits > 0) ++s.prefix_cache_hits;
    } else {
      s.bm.acquire(r.blocks, need, r.tenant_id);
    }
    r.set_state(RequestState::kPrefilling);
    set_prefilled(r, cached_tokens);
    s.prefilling.push_back(id);
    taken[id] = 1;
  }
  std::erase_if(s.queue, [&](std::size_t id) { return taken[id] != 0; });
}

}  // namespace marlin::serve::sched::reference
