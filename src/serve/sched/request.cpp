#include "serve/sched/request.hpp"

#include <algorithm>

#include "serve/sched/workload.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace marlin::serve::sched {

const char* to_string(RequestState s) {
  switch (s) {
    case RequestState::kQueued:
      return "queued";
    case RequestState::kPrefilling:
      return "prefilling";
    case RequestState::kRunning:
      return "running";
    case RequestState::kPreempted:
      return "preempted";
    case RequestState::kFinished:
      return "finished";
  }
  return "?";
}

bool transition_allowed(RequestState from, RequestState to) {
  switch (from) {
    case RequestState::kQueued:
      // Admission starts prefill; rejection finishes without running.
      return to == RequestState::kPrefilling || to == RequestState::kFinished;
    case RequestState::kPrefilling:
      return to == RequestState::kRunning;
    case RequestState::kRunning:
      return to == RequestState::kPreempted || to == RequestState::kFinished;
    case RequestState::kPreempted:
      // Re-admission recomputes the KV from scratch.
      return to == RequestState::kPrefilling;
    case RequestState::kFinished:
      return false;
  }
  return false;
}

Request::Request(index_t id_, double arrival_s_, index_t prompt_tokens_,
                 index_t output_tokens_, index_t tenant_id_)
    : id(id_), arrival_s(arrival_s_), prompt_tokens(prompt_tokens_),
      output_tokens(output_tokens_), tenant_id(tenant_id_) {
  MARLIN_CHECK(prompt_tokens >= 1, "request needs at least one prompt token");
  MARLIN_CHECK(output_tokens >= 1, "request needs at least one output token");
  MARLIN_CHECK(tenant_id >= 0, "tenant id must be >= 0");
}

index_t Request::max_kv_blocks(index_t block_size) const {
  const index_t per_seq = (max_kv_tokens() + block_size - 1) / block_size;
  // Blocks fully inside the prompt stay shared across sequences; the
  // partial tail block (if any) is CoW-copied per sequence on the first
  // decode write, so it counts per sequence.
  const index_t shared = std::min(prompt_tokens / block_size, per_seq);
  return shared + num_sequences * (per_seq - shared);
}

index_t Request::hashable_prefix_blocks(index_t block_size) const {
  if (prefix_id < 0) return 0;
  return std::min(prefix_tokens, prompt_tokens) / block_size;
}

void Request::append_prefix_chain(index_t block_size, index_t max_blocks,
                                  std::vector<std::uint64_t>& out) const {
  out.clear();
  const index_t blocks =
      std::min(hashable_prefix_blocks(block_size), max_blocks);
  if (blocks <= 0) return;
  const std::uint64_t base =
      util::mix64(kPrefixKeySalt ^ static_cast<std::uint64_t>(prefix_id));
  std::uint64_t h = kPrefixHashSeed;
  for (index_t j = 0; j < blocks; ++j) {
    const std::uint64_t key = util::mix64(base + static_cast<std::uint64_t>(j));
    h = util::mix64(h ^ key);
    out.push_back(h);
  }
}

void Request::set_state(RequestState next) {
  MARLIN_CHECK(transition_allowed(state, next),
               "illegal request transition " << to_string(state) << " -> "
                                             << to_string(next) << " (id "
                                             << id << ")");
  state = next;
}

std::vector<Request> requests_from_trace(
    const std::vector<TraceRequest>& trace) {
  std::vector<Request> requests;
  requests.reserve(trace.size());
  for (const TraceRequest& t : trace) {
    Request& r = requests.emplace_back(static_cast<index_t>(requests.size()),
                                       t.arrival_s, t.input_tokens,
                                       t.output_tokens, t.tenant_id);
    r.prefix_id = t.prefix_id;
    r.prefix_tokens = t.prefix_tokens;
    r.num_sequences = std::max<index_t>(1, t.num_sequences);
  }
  return requests;
}

}  // namespace marlin::serve::sched
