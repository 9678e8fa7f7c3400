#pragma once
// Test-only reference for admission: `Scheduler::admit` as it stood when
// every pass copied the whole queue into a snapshot, stable-sorted it in
// policy order (FCFS keeps queue order), walked it, and erased the taken
// requests from the deque afterwards — O(queue) per pass however few
// requests it admits. Kept deliberately simple so the real admission can
// be fuzzed against it for bit-equal request outcomes and replica
// counters.
//
// Written only against the public ReplicaState / BlockManager / StepModel
// API. Every policy is supported, WFQ's quota reclaim included (its
// preemptions go through reference_step.hpp); recording is not (a
// recorder throws).

#include <vector>

#include "serve/sched/scheduler.hpp"

namespace marlin::serve::sched::reference {

/// One admission pass over `s`, the slow way: in policy order, sheds
/// SLO-hopeless requests, rejects never-fitting ones, reclaims quota
/// under WFQ and admits the rest until the batch cap. FCFS and SJF stop at
/// the first request the KV watermark refuses; max-util and WFQ skip it.
void admit(const Scheduler& scheduler, ReplicaState& s,
           std::vector<Request>& requests);

}  // namespace marlin::serve::sched::reference
