#pragma once
// Trace-driven workload generation for the serving scheduler.
//
// Three arrival/length shapes, all drawn from one fixed-seed Rng so a
// trace is reproducible bit-for-bit across runs, platforms and thread
// counts (`--seed` on the serving benches plumbs straight into `seed`):
//
//   * kPoisson  — memoryless arrivals at `qps`, fixed prompt/output
//     lengths. Draw-for-draw identical to the pre-subsystem simulator's
//     arrival process, which keeps the fig15/fig16 goldens stable.
//   * kBursty   — on/off (interrupted-Poisson) arrivals: exponential ON
//     windows at an elevated rate separated by exponential OFF gaps, same
//     mean rate overall. Stresses admission and preemption.
//   * kShareGpt — Poisson arrivals with log-normal prompt and output
//     lengths (median = configured tokens), the standard stand-in for the
//     heavy-tailed ShareGPT conversation distribution.

#include <string>
#include <vector>

#include "util/matrix.hpp"

namespace marlin::serve::sched {

enum class WorkloadShape { kPoisson, kBursty, kShareGpt };

const char* to_string(WorkloadShape s);
/// Parses "poisson" / "bursty" / "sharegpt" (case-sensitive); throws on
/// anything else, listing the known names.
WorkloadShape workload_by_name(const std::string& name);

/// kShareGpt: shortest prompt or output length a log-normal draw is
/// clamped to.
inline constexpr index_t kShareGptMinTokens = 4;
/// kShareGpt: longest prompt length a log-normal draw is clamped to.
inline constexpr index_t kShareGptMaxInputTokens = 2048;
/// kShareGpt: longest output length a log-normal draw is clamped to.
inline constexpr index_t kShareGptMaxOutputTokens = 1024;

struct TraceRequest {
  double arrival_s = 0;
  index_t input_tokens = 0;
  index_t output_tokens = 0;
  /// Owning tenant; 0 unless the workload configures a tenant mix.
  index_t tenant_id = 0;
  /// Shared-prefix group: requests with the same non-negative id start
  /// with the same `prefix_tokens` prompt tokens (system prompt /
  /// few-shot header). -1 = fully unique prompt.
  index_t prefix_id = -1;
  /// Length of the shared prefix in tokens (counted inside
  /// `input_tokens`); 0 when `prefix_id` is -1.
  index_t prefix_tokens = 0;
  /// Parallel-sampling width (n>1 decodes n continuations of one
  /// prompt, sharing the prompt KV copy-on-write).
  index_t num_sequences = 1;
};

struct WorkloadConfig {
  WorkloadShape shape = WorkloadShape::kPoisson;
  double qps = 1.0;        // mean arrival rate over the whole trace
  double duration_s = 120.0;
  index_t input_tokens = 64;   // fixed length; log-normal median for ShareGPT
  index_t output_tokens = 64;
  std::uint64_t seed = 42;

  /// Per-tenant traffic mix: tenant id `i` receives `tenant_shares[i]` of
  /// the requests (shares are relative weights, not required to sum to 1).
  /// Empty = everything belongs to the single default tenant 0. Tenant
  /// assignment draws from a *separate* RNG stream derived from `seed`,
  /// after the trace is generated — configuring a mix leaves the arrival
  /// times and token lengths of the base trace bit-identical.
  std::vector<double> tenant_shares;

  /// Shared-prefix mix (system prompts): when `shared_prefix_tokens` > 0,
  /// each request independently starts with one of
  /// `shared_prefix_groups` shared headers with probability
  /// `shared_prefix_share`, which *prepends* `shared_prefix_tokens`
  /// tokens to its prompt. Like tenants, the assignment runs on its own
  /// RNG stream after trace generation, so the base trace (arrivals,
  /// unique-suffix lengths) is bit-identical with the mix on or off.
  index_t shared_prefix_tokens = 0;
  index_t shared_prefix_groups = 1;
  double shared_prefix_share = 1.0;
  /// Parallel-sampling width stamped on every request (n>1 sampling);
  /// 1 = classic single-sequence decoding.
  index_t sampling_n = 1;
};

/// Arrival-ordered trace for the configured shape; empty if the rate and
/// duration produce no arrivals.
std::vector<TraceRequest> generate_trace(const WorkloadConfig& cfg);

}  // namespace marlin::serve::sched
