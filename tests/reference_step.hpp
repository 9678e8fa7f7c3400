#pragma once
// Test-only reference for `Scheduler::step`: the step as it stood when
// every decode round visited every running request twice — once to grow
// its KV and sum the batch and context, once to commit its tokens — and
// kept `Request::generated` current on every request after every round.
// Kept deliberately simple so the real step can be fuzzed against it for
// bit-equal request outcomes and replica counters. Under every policy it
// counts each tenant's served tokens as an integer sum, added per
// request per round; the WFQ key divides that sum by the weight once.
//
// Written only against the public ReplicaState / BlockManager / StepModel
// API; it never touches the real step's own bookkeeping on ReplicaState
// (it fills the service ledger through `service_of(t).tokens` alone, with
// no running sequences), so a run must drive one ReplicaState with the
// reference admission (reference_admission.hpp) and this step only.
// Every policy, speculation, n > 1 sampling, the prefix cache and tenant
// quotas are supported; recording is not (a recorder throws).

#include <cstddef>
#include <vector>

#include "serve/sched/scheduler.hpp"

namespace marlin::serve::sched::reference {

/// One engine step at `s.now`: a chunked-prefill round if any request is
/// prefilling, otherwise KV growth with growth preemption and one decode
/// (or speculative) round over every running request.
void step(const Scheduler& scheduler, ReplicaState& s,
          std::vector<Request>& requests);

/// Recompute preemption of `s.running[pos]`: its KV released, its
/// prefill cursor reset, and the request re-queued at the front.
void preempt_running_at(ReplicaState& s, std::vector<Request>& requests,
                        std::size_t pos);

/// Physical block references `r` holds across all its sequences.
[[nodiscard]] index_t held_blocks(const Request& r);

}  // namespace marlin::serve::sched::reference
