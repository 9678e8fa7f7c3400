#pragma once
// Test-only reference for the cluster EventLoop, kept deliberately
// simple so the optimized loop can be fuzzed against it for bit-equal
// ClusterStats. It runs the same time order — (time, phase) with phases
// evaluation < landing < arrival < tick, landings tied in decision order
// and ticks to the lowest id — but finds each next event by a linear scan
// over the next evaluation, the in-flight landings, the trace cursor and
// every replica, and keeps no queue. It also scans the fleet for drained
// replicas to retire after every tick, recounts every replica's
// least-loaded key from its queue and flights per arrival, and registers
// tenants by walking the trace once per replica.
//
// It shares `Replica`, the passive `Scheduler` and the end-of-run fold
// `fold_fleet_stats` with the real loop (so both run the same tick and
// the same accounting), but none of the loop's own state: not the event
// queue, not the maintained load counter, not the once-per-run tenant
// table. Recording is not supported. Tests build the inputs of both
// loops with one `serve::Simulation`.

#include <vector>

#include "serve/cluster/event_loop.hpp"

namespace marlin::serve::cluster::reference {

/// The least-loaded key recounted from scratch by its definition:
/// prefill still owed plus decode tokens still owed, over the replica's
/// queue and both flights.
[[nodiscard]] index_t recount_load(
    const Replica& rep, const std::vector<sched::Request>& requests);

/// `EventLoop(scheduler, opts).run(trace)` computed the slow way.
[[nodiscard]] ClusterStats run(const sched::Scheduler& scheduler,
                               const ClusterOptions& opts,
                               const std::vector<sched::TraceRequest>& trace);

}  // namespace marlin::serve::cluster::reference
