#include "reference_admission.hpp"

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace marlin::serve::sched::reference {

void admit_fcfs(const Scheduler& scheduler, ReplicaState& s,
                std::vector<Request>& requests) {
  const SchedulerConfig& cfg = scheduler.config();
  MARLIN_CHECK(cfg.policy == SchedPolicy::kFcfs,
               "the reference admission is FCFS only");
  MARLIN_CHECK(s.obs == nullptr, "the reference admission does not record");
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

  const std::vector<std::size_t> order(s.queue.begin(), s.queue.end());
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
    if (!s.bm.can_admit(r.prefill_target())) break;  // head-of-line block
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
