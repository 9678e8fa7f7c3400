#include "serve/sched/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace marlin::serve::sched {

const char* to_string(WorkloadShape s) {
  switch (s) {
    case WorkloadShape::kPoisson:
      return "poisson";
    case WorkloadShape::kBursty:
      return "bursty";
    case WorkloadShape::kShareGpt:
      return "sharegpt";
  }
  return "?";
}

WorkloadShape workload_by_name(const std::string& name) {
  for (const auto s : {WorkloadShape::kPoisson, WorkloadShape::kBursty,
                       WorkloadShape::kShareGpt}) {
    if (name == to_string(s)) return s;
  }
  MARLIN_CHECK(false, "unknown workload `" << name
                                           << "`; known: poisson, bursty, "
                                              "sharegpt");
  return WorkloadShape::kPoisson;  // unreachable
}

namespace {

// kBursty: mean window lengths; the ON rate is scaled so the mean rate
// over ON+OFF stays `qps`.
constexpr double kBurstOnS = 4.0;
constexpr double kBurstOffS = 12.0;

// kShareGpt: log-normal sigma (in log-token space).
constexpr double kLengthSigma = 0.8;

/// Log-normal token length with median `median`, clamped to [lo, hi].
index_t lognormal_tokens(Rng& rng, index_t median, index_t lo, index_t hi) {
  const double x =
      static_cast<double>(median) * std::exp(kLengthSigma * rng.normal());
  const auto t = static_cast<index_t>(std::llround(x));
  return std::clamp(t, lo, hi);
}

std::vector<TraceRequest> poisson_trace(const WorkloadConfig& cfg, Rng& rng,
                                        bool lognormal_lengths) {
  // NOTE: for fixed lengths this draw sequence is the exact arrival
  // process of the pre-subsystem serving simulator, which the fig15/16
  // goldens pin down — lengths (when log-normal) are drawn *after* each
  // arrival so the arrival times themselves stay on the same stream.
  std::vector<TraceRequest> trace;
  double t = 0.0;
  while (t < cfg.duration_s) {
    t += rng.exponential(cfg.qps);
    if (t >= cfg.duration_s) break;
    TraceRequest r;
    r.arrival_s = t;
    if (lognormal_lengths) {
      r.input_tokens = lognormal_tokens(rng, cfg.input_tokens,
                                        kShareGptMinTokens,
                                        kShareGptMaxInputTokens);
      r.output_tokens = lognormal_tokens(rng, cfg.output_tokens,
                                         kShareGptMinTokens,
                                         kShareGptMaxOutputTokens);
    } else {
      r.input_tokens = cfg.input_tokens;
      r.output_tokens = cfg.output_tokens;
    }
    trace.push_back(r);
  }
  return trace;
}

std::vector<TraceRequest> bursty_trace(const WorkloadConfig& cfg, Rng& rng) {
  // Interrupted Poisson: exponential ON windows at rate qps * (on+off)/on
  // separated by exponential OFF gaps, so the long-run mean rate is qps.
  const double cycle = kBurstOnS + kBurstOffS;
  const double on_rate = cfg.qps * cycle / kBurstOnS;
  std::vector<TraceRequest> trace;
  double window_start = 0.0;
  while (window_start < cfg.duration_s) {
    const double on_len = rng.exponential(1.0 / kBurstOnS);
    const double window_end =
        std::min(window_start + on_len, cfg.duration_s);
    double t = window_start;
    while (true) {
      t += rng.exponential(on_rate);
      if (t >= window_end) break;
      trace.push_back({t, cfg.input_tokens, cfg.output_tokens});
    }
    window_start = window_end + rng.exponential(1.0 / kBurstOffS);
  }
  return trace;
}

}  // namespace

namespace {

/// Tags each request with a tenant drawn from the share mix. Runs on its
/// own RNG stream (`seed` xor a fixed salt) so the base trace — arrival
/// times and lengths — is bit-identical with and without a mix.
void assign_tenants(const WorkloadConfig& cfg,
                    std::vector<TraceRequest>& trace) {
  if (cfg.tenant_shares.empty()) return;
  double total = 0.0;
  for (const double s : cfg.tenant_shares) {
    MARLIN_CHECK(s >= 0.0, "tenant shares must be >= 0");
    total += s;
  }
  MARLIN_CHECK(total > 0.0, "tenant mix needs at least one positive share");
  constexpr std::uint64_t kTenantStreamSalt = 0x7E6A2C55D1B4F09Bull;
  Rng rng(cfg.seed ^ kTenantStreamSalt);
  for (auto& r : trace) {
    double u = rng.uniform() * total;
    // Conventional fall-back to the *last* bracket: if rounding leaves u
    // non-negative after every subtraction, the draw belongs to the tail.
    index_t tenant = static_cast<index_t>(cfg.tenant_shares.size()) - 1;
    for (std::size_t i = 0; i < cfg.tenant_shares.size(); ++i) {
      u -= cfg.tenant_shares[i];
      if (u < 0.0) {
        tenant = static_cast<index_t>(i);
        break;
      }
    }
    r.tenant_id = tenant;
  }
}

/// Tags a `shared_prefix_share` fraction of requests with one of
/// `shared_prefix_groups` shared system-prompt headers, prepending the
/// header's tokens to the prompt. Own RNG stream, same contract as
/// `assign_tenants`: the base trace never changes.
void assign_prefixes(const WorkloadConfig& cfg,
                     std::vector<TraceRequest>& trace) {
  if (cfg.shared_prefix_tokens <= 0) return;
  MARLIN_CHECK(cfg.shared_prefix_groups >= 1,
               "shared-prefix mix needs at least one group");
  MARLIN_CHECK(cfg.shared_prefix_share >= 0.0 &&
                   cfg.shared_prefix_share <= 1.0,
               "shared_prefix_share must be in [0, 1]");
  constexpr std::uint64_t kPrefixStreamSalt = 0x3C79AC492BA7B653ull;
  Rng rng(cfg.seed ^ kPrefixStreamSalt);
  for (auto& r : trace) {
    // Both draws happen for every request so one request's tag never
    // shifts another's (insensitive to `share`).
    const double u = rng.uniform();
    const double g = rng.uniform();
    if (u >= cfg.shared_prefix_share) continue;
    r.prefix_id = std::min(
        static_cast<index_t>(g *
                             static_cast<double>(cfg.shared_prefix_groups)),
        cfg.shared_prefix_groups - 1);
    r.prefix_tokens = cfg.shared_prefix_tokens;
    r.input_tokens += cfg.shared_prefix_tokens;
  }
}

}  // namespace

std::vector<TraceRequest> generate_trace(const WorkloadConfig& cfg) {
  // A non-finite rate or window would grow the trace without bound.
  MARLIN_CHECK(cfg.qps > 0 && std::isfinite(cfg.qps),
               "QPS must be positive and finite");
  MARLIN_CHECK(cfg.duration_s > 0 && std::isfinite(cfg.duration_s),
               "duration must be positive and finite");
  MARLIN_CHECK(cfg.input_tokens >= 1 && cfg.output_tokens >= 1,
               "token counts must be >= 1");
  MARLIN_CHECK(cfg.shared_prefix_tokens >= 0,
               "negative shared-prefix length");
  MARLIN_CHECK(cfg.sampling_n >= 1, "sampling_n must be >= 1");
  Rng rng(cfg.seed);
  std::vector<TraceRequest> trace;
  switch (cfg.shape) {
    case WorkloadShape::kPoisson:
      trace = poisson_trace(cfg, rng, /*lognormal_lengths=*/false);
      break;
    case WorkloadShape::kShareGpt:
      trace = poisson_trace(cfg, rng, /*lognormal_lengths=*/true);
      break;
    case WorkloadShape::kBursty:
      trace = bursty_trace(cfg, rng);
      break;
  }
  assign_tenants(cfg, trace);
  assign_prefixes(cfg, trace);
  if (cfg.sampling_n > 1) {
    for (auto& r : trace) r.num_sequences = cfg.sampling_n;
  }
  return trace;
}

}  // namespace marlin::serve::sched
