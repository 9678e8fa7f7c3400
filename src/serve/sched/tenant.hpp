#pragma once
// Multi-tenant serving: who a request belongs to and what that tenant is
// entitled to.
//
// A tenant is one customer / traffic class sharing the serving instance.
// Its spec carries the three knobs the weighted-fair-queuing scheduler
// arbitrates on:
//
//   * `weight`  — WFQ share. Admission orders requests by their tenant's
//     weighted service debt (tokens served / weight), so a weight-4 tenant
//     is entitled to 4x the tokens of a weight-1 tenant under contention.
//   * `tier`    — priority tier (lower = more latency-critical). A tier
//     adds a fixed service-debt penalty, so interactive traffic overtakes
//     batch traffic until aging erases the gap (starvation-proof).
//   * `kv_block_quota` — soft per-tenant cap on KV-cache blocks.
//     kNoQuota (-1) = unquoted; 0 = borrow-only (any held block counts as
//     over-quota); > 0 = the tenant's fair share of the paged cache.
//     Quotas never block allocation while free blocks exist ("borrow");
//     when the cache runs dry, preemption reclaims from the most
//     over-quota tenant first ("reclaim").
//
// `traffic_share` feeds the workload generator's tenant mix — it shapes
// the trace, not the scheduler.

#include <string>

#include "util/matrix.hpp"

namespace marlin::serve::sched {

/// `TenantSpec::kv_block_quota` value meaning "no quota configured".
inline constexpr index_t kNoQuota = -1;

struct TenantSpec {
  index_t id = 0;
  std::string name = "default";
  double weight = 1.0;             // WFQ share; must be > 0
  int tier = 0;                    // priority tier, lower = higher priority
  index_t kv_block_quota = kNoQuota;  // soft KV block cap (see header)
  double traffic_share = 1.0;      // workload-mix share; must be > 0

  void validate() const;
};

}  // namespace marlin::serve::sched
