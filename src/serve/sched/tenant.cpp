#include "serve/sched/tenant.hpp"

#include "util/error.hpp"

namespace marlin::serve::sched {

void TenantSpec::validate() const {
  MARLIN_CHECK(id >= 0, "tenant id must be >= 0 (got " << id << ")");
  MARLIN_CHECK(weight > 0.0,
               "tenant " << id << " needs a positive WFQ weight (got "
                         << weight << ")");
  MARLIN_CHECK(tier >= 0, "tenant " << id << " tier must be >= 0");
  MARLIN_CHECK(kv_block_quota >= kNoQuota,
               "tenant " << id << " KV quota must be -1 (none), 0 "
                         << "(borrow-only) or positive");
  MARLIN_CHECK(traffic_share > 0.0,
               "tenant " << id << " needs a positive traffic share");
}

}  // namespace marlin::serve::sched
