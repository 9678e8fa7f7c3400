#include "serve/cluster/router.hpp"

#include "obs/serve_recorder.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace marlin::serve::cluster {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kRoundRobin:
      return "round-robin";
    case Placement::kLeastLoaded:
      return "least-loaded";
    case Placement::kSessionAffinity:
      return "session-affinity";
  }
  return "?";
}

Placement placement_by_name(const std::string& name) {
  for (const auto p : {Placement::kRoundRobin, Placement::kLeastLoaded,
                       Placement::kSessionAffinity}) {
    if (name == to_string(p)) return p;
  }
  MARLIN_CHECK(false, "unknown placement policy `"
                          << name
                          << "`; known: round-robin, least-loaded, "
                             "session-affinity");
  return Placement::kRoundRobin;  // unreachable
}

std::size_t Router::pick(const sched::Request& r,
                         const std::deque<Replica>& fleet) {
  // The routable set, in id order (fleet is only ever appended to, so
  // deque order == id order). `routable_` is member scratch whose
  // capacity persists across arrivals.
  std::vector<std::size_t>& routable = routable_;
  routable.clear();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (fleet[i].routable()) routable.push_back(i);
  }
  MARLIN_CHECK(!routable.empty(),
               "router has no routable replica for request " << r.id);

  std::size_t chosen = routable[0];
  switch (placement_) {
    case Placement::kRoundRobin: {
      const std::size_t slot = rr_cursor_ % routable.size();
      rr_cursor_ = slot + 1;  // stays bounded as the routable set resizes
      chosen = routable[slot];
      break;
    }
    case Placement::kLeastLoaded: {
      std::size_t best = routable[0];
      index_t best_load = fleet[best].outstanding_tokens();
      for (std::size_t k = 1; k < routable.size(); ++k) {
        const index_t load = fleet[routable[k]].outstanding_tokens();
        if (load < best_load) {  // ties keep the lowest id
          best_load = load;
          best = routable[k];
        }
      }
      chosen = best;
      break;
    }
    case Placement::kSessionAffinity: {
      const auto h = util::mix64(static_cast<std::uint64_t>(r.tenant_id));
      chosen = routable[static_cast<std::size_t>(h % routable.size())];
      break;
    }
  }
  if (obs_ != nullptr) {
    obs_->on_route(r.arrival_s, r.id, r.tenant_id, fleet[chosen].id(),
                   to_string(placement_));
  }
  return chosen;
}

}  // namespace marlin::serve::cluster
