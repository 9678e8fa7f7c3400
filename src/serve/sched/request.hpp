#pragma once
// Request lifecycle for the serving scheduler.
//
// A request moves through an explicit state machine:
//
//   kQueued ──admit──► kPrefilling ──prefill done──► kRunning ──► kFinished
//      ▲                                               │
//      └───────────────── kPreempted ◄──preempt────────┘
//
// Preemption is recompute-style (vLLM's default): the victim's KV blocks
// are freed and, on re-admission, prefill covers the prompt *plus* every
// token generated so far. TTFT is unaffected (the first token was already
// emitted); TPOT absorbs the recompute cost. When the prefix cache is on,
// a preempted request's published prompt blocks usually survive in the
// cache, so the recompute prefill re-hits them instead of re-pricing the
// whole prompt.
//
// Requests may carry a shared-prefix tag (`prefix_id`/`prefix_tokens`):
// the first `prefix_tokens` prompt tokens are byte-identical across every
// request with the same tag (a shared system prompt or few-shot header).
// `append_prefix_chain` turns the tag into the chained per-block content
// hashes the BlockManager's prefix cache is keyed by.
//
// `num_sequences` > 1 models parallel sampling (n>1): one prompt, n
// decoded continuations. The prompt KV is shared via copy-on-write forks
// (`Request::forks` holds the extra sequences' handles); every sequence
// decodes in lockstep to the same output length.
//
// Every transition is validated — an illegal edge throws, so scheduler
// bugs surface as errors instead of silently corrupted metrics.

#include <cstdint>
#include <vector>

#include "serve/sched/sequence_blocks.hpp"
#include "util/matrix.hpp"

namespace marlin::serve::sched {

struct TraceRequest;

enum class RequestState { kQueued, kPrefilling, kRunning, kPreempted,
                          kFinished };

const char* to_string(RequestState s);

/// Is `from -> to` a legal lifecycle edge?
bool transition_allowed(RequestState from, RequestState to);

/// Seed of every chained prefix hash (`h_-1`) — fractional digits of pi,
/// pinned forever so cached-chain keys never drift across versions.
inline constexpr std::uint64_t kPrefixHashSeed = 0x243F6A8885A308D3ull;
/// Salt mixed with `prefix_id` to derive per-block content keys.
inline constexpr std::uint64_t kPrefixKeySalt = 0x452821E638D01377ull;

/// One client request: a prompt plus `num_sequences` sampled
/// continuations (1 = classic single-sequence decoding).
struct Request {
  Request(index_t id, double arrival_s, index_t prompt_tokens,
          index_t output_tokens, index_t tenant_id = 0);

  index_t id = 0;
  double arrival_s = 0;
  index_t prompt_tokens = 0;
  index_t output_tokens = 0;  // total output target incl. the prefill token
  /// Owning tenant (traffic class); 0 is the default single tenant.
  index_t tenant_id = 0;
  /// Shared-prefix tag: requests with the same non-negative id share
  /// their first `prefix_tokens` prompt tokens byte-for-byte. -1 = no
  /// shared prefix (nothing to cache).
  index_t prefix_id = -1;
  /// Length of the shared prefix in tokens (<= prompt_tokens).
  index_t prefix_tokens = 0;
  /// Parallel-sampling width (n>1 shares the prompt KV via CoW forks).
  index_t num_sequences = 1;

  RequestState state = RequestState::kQueued;
  /// Output tokens emitted so far (the prefill emits token 1). Lags while
  /// the request runs: read it through `ReplicaState::generated` then.
  index_t generated = 0;
  /// The holding replica's `decode_steps` at which `generated` was last
  /// brought up to date, or -1 outside a running batch (`generated` is
  /// then exact).
  index_t synced_step = -1;
  /// Tokens prefilled in the current admission (chunked prefill cursor).
  index_t prefilled = 0;
  /// KV blocks of the primary sequence (ref-counted BlockManager handle).
  SequenceBlocks blocks;
  /// Extra sequences' handles (n>1 sampling), forked from `blocks` when
  /// prefill completes; empty until then and for n=1.
  std::vector<SequenceBlocks> forks;

  double first_token_s = -1;
  double finish_s = -1;
  index_t preemptions = 0;
  /// Speculative-decoding fractional-token accumulator: expected accepted
  /// tokens not yet committed (see Scheduler's speculation docs).
  double spec_credit = 0;
  /// True when the request could never fit in the KV budget and was
  /// refused outright (state kFinished, no tokens produced).
  bool rejected = false;
  /// True when the request was shed by deadline-aware admission: its
  /// TTFT SLO was already hopeless before it ever prefilled (state
  /// kFinished, no tokens produced).
  bool shed = false;
  /// Replica the cluster router placed the request on; -1 until routed
  /// (single-replica runs route everything to replica 0). A migration
  /// re-stamps this to the destination when the KV handoff completes.
  index_t replica = -1;
  /// Set once the disaggregated EventLoop has decided this request's
  /// placement at prefill completion (migrate or decode in place), so a
  /// later pass — or a post-preemption re-prefill — never re-decides.
  /// Never read outside disaggregated runs.
  bool migration_decided = false;

  /// Validated state transition; throws on an illegal edge.
  void set_state(RequestState next);

  /// Tokens the next prefill must cover: the prompt plus, after a
  /// preemption, every already-generated token (recompute).
  [[nodiscard]] index_t prefill_target() const {
    return prompt_tokens + generated;
  }
  /// The request's share of its replica's least-loaded placement key:
  /// prefill still owed plus output still owed,
  /// (prefill_target - prefilled) + (output_tokens - generated), which
  /// is prompt_tokens + output_tokens - prefilled. Decoding does not
  /// shrink it (each token grows the recompute target as much as it
  /// shrinks the output owed); only admission, prefill chunks and
  /// preemption move it.
  [[nodiscard]] index_t owed_tokens() const {
    return prompt_tokens + output_tokens - prefilled;
  }
  /// Tokens of KV one sequence holds at completion. The final output
  /// token is emitted without growing the cache (its KV is never
  /// written), hence the -1.
  [[nodiscard]] index_t max_kv_tokens() const {
    return prompt_tokens + output_tokens - 1;
  }
  /// Peak *physical* blocks across all sequences: full prompt blocks are
  /// shared once, everything past them is per-sequence (CoW divergence).
  /// Equals ceil(max_kv_tokens / block_size) for n=1 — the admission
  /// never-fits rule.
  [[nodiscard]] index_t max_kv_blocks(index_t block_size) const;
  /// Full prompt blocks inside the shared prefix — what the prefix cache
  /// can key (0 without a prefix tag).
  [[nodiscard]] index_t hashable_prefix_blocks(index_t block_size) const;
  /// Rebuilds `out` with the chained content hashes of the first
  /// min(hashable, max_blocks) prompt blocks: h_j = mix64(h_{j-1} ^
  /// key_j) with key_j = mix64(mix64(kPrefixKeySalt ^ prefix_id) + j).
  /// Deterministic and platform-pinned (util/hash.hpp).
  void append_prefix_chain(index_t block_size, index_t max_blocks,
                           std::vector<std::uint64_t>& out) const;
  [[nodiscard]] bool finished() const {
    return state == RequestState::kFinished;
  }
};

/// The requests a run over `trace` starts from, in trace order: request
/// i is `trace[i]`, queued, with id i.
[[nodiscard]] std::vector<Request> requests_from_trace(
    const std::vector<TraceRequest>& trace);

}  // namespace marlin::serve::sched
