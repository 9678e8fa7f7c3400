#pragma once
// Front-end request router: picks the replica a newly arrived request is
// placed on. Placement is pluggable and strictly deterministic — the
// router sees arrivals in trace order at deterministic points of the
// EventLoop, so every policy reproduces bit-identically at any thread
// count.
//
//   * kRoundRobin     — rotate over routable replicas in id order.
//   * kLeastLoaded    — fewest outstanding tokens (prompt + output -
//                       prefilled, summed over queue and flights; see
//                       `Replica::outstanding_tokens`); ties go to the
//                       lowest replica id. One integer compare per
//                       routable replica.
//   * kSessionAffinity — hash the tenant id onto the routable set, so one
//                       tenant's requests land on one replica while the
//                       fleet size holds (the hook prefix caching will
//                       later exploit). Uses `util::mix64`, the pinned
//                       splitmix64 finalizer, never std::hash
//                       (implementation-defined).

#include <deque>
#include <string>
#include <vector>

#include "serve/cluster/replica.hpp"

namespace marlin::serve::cluster {

enum class Placement { kRoundRobin, kLeastLoaded, kSessionAffinity };

const char* to_string(Placement p);
/// Parses "round-robin" / "least-loaded" / "session-affinity"; throws on
/// anything else.
Placement placement_by_name(const std::string& name);

class Router {
 public:
  /// `obs` (borrowed, may be null) records one placement instant per
  /// arrival on the cluster/router trace track.
  explicit Router(Placement placement, obs::ServeRecorder* obs = nullptr)
      : placement_(placement), obs_(obs) {}

  [[nodiscard]] Placement placement() const { return placement_; }

  /// Picks the routable replica for `r` and returns its index into
  /// `fleet`. Throws if no replica is routable.
  [[nodiscard]] std::size_t pick(const sched::Request& r,
                                 const std::deque<Replica>& fleet);

 private:
  Placement placement_;
  obs::ServeRecorder* obs_;
  std::size_t rr_cursor_ = 0;  // next round-robin *routable-set* slot
  /// Reused routable-set scratch: `pick` runs once per arrival, and the
  /// capacity retained here keeps the routing hot path allocation-free.
  std::vector<std::size_t> routable_;
};

}  // namespace marlin::serve::cluster
