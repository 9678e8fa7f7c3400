#pragma once
// Test-only reference for FCFS admission: `Scheduler::admit` as it stood
// when every pass copied the whole queue into a snapshot, walked it in
// order, and erased the taken requests from the deque afterwards —
// O(queue) per pass however few requests it admits. Kept deliberately
// simple so the real admission can be fuzzed against it for bit-equal
// request outcomes and replica counters.
//
// Written only against the public ReplicaState / BlockManager / StepModel
// API. Supports the FCFS policy without a recorder; anything else throws.

#include <vector>

#include "serve/sched/scheduler.hpp"

namespace marlin::serve::sched::reference {

/// One FCFS admission pass over `s`, the slow way: sheds SLO-hopeless
/// requests, rejects never-fitting ones and admits the rest in queue
/// order until the batch cap or the first request the KV watermark
/// refuses.
void admit_fcfs(const Scheduler& scheduler, ReplicaState& s,
                std::vector<Request>& requests);

}  // namespace marlin::serve::sched::reference
