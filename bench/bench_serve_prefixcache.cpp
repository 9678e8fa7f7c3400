// Prefix-cache serving sweep: shared-system-prompt workloads x hashed
// prefix cache on/off x fcfs/wfq for Llama-2-7B (MARLIN) on RTX A6000.
//
// Three workload mixes share one arrival trace (prefix tags and sampling
// widths ride side RNG streams, so arrivals and unique-suffix lengths are
// bit-identical across mixes):
//
//   * unique      — every prompt is fully distinct: the cache can only
//                   deduplicate concurrent identical headers (none exist),
//                   so hit-rate stays 0 and the cache-on rows must match
//                   the cache-off rows — the "cache never hurts" control.
//   * shared      — 80% of requests prepend one of 4 shared 256-token
//                   system prompts: warm admissions skip the shared
//                   blocks' prefill and refcount the cached KV instead.
//   * shared n=4  — same mix, every request decodes 4 parallel sampling
//                   sequences sharing the prompt KV copy-on-write.
//
// Two tenants (weight 4 vs 1, equal traffic) give the wfq axis something
// to arbitrate and exercise the last-toucher-pays charging rule under
// sharing. All simulations are fixed-seed discrete-event runs fanned out
// on the SimContext pool; every event loop is strictly serial, so the
// tables are byte-identical at every `--threads` count (ctest -L golden
// enforces 1 and 4).

#include <iostream>

#include "common.hpp"
#include "serve/server_sim.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  namespace sched = serve::sched;
  const CliArgs args(argc, argv);
  // The sweep sets the cache on/off, the policy and the mix itself.
  auto help = bench::serving_flag_help(16.0, 40.0,
                                       {"prefix-cache", "policy", "workload"});
  help.insert(help.begin(),
              {{"--prefix-cache-blocks N",
                "cap on evicted-but-cached blocks kept for reuse in the "
                "cache-on rows (0 = no cap, the golden configuration)"},
               {"--trace-out FILE",
                "write a Chrome/Perfetto trace of one recorded serial "
                "re-run (shared mix, cache on, wfq)"},
               bench::bench_json_flag_help()});
  bench::maybe_print_help(
      args, "bench_serve_prefixcache",
      "hashed prefix cache sweep: shared-prefix workloads x cache on/off x "
      "fcfs/wfq (Llama-2-7B MARLIN on RTX A6000)",
      std::move(help));
  const SimContext ctx = bench::make_context(args);
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args, 16.0, 40.0);
  bench::BenchJsonReporter json(args, ctx, "bench_serve_prefixcache");

  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  ecfg.format = serve::WeightFormat::kMarlin;
  const serve::Engine engine(ecfg);

  // Weight-4 "prod" vs weight-1 "batch" tenant, equal traffic: wfq favors
  // prod, and shared cached blocks migrate between their accounts under
  // the last-toucher-pays rule.
  const std::vector<sched::TenantSpec> tenants{
      {0, "prod", 4.0, 0, sched::kNoQuota, 1.0},
      {1, "batch", 1.0, 0, sched::kNoQuota, 1.0}};

  struct Mix {
    const char* name;
    index_t prefix_tokens;
    index_t sampling_n;
  };
  const std::vector<Mix> mixes{
      {"unique", 0, 1}, {"shared", 256, 1}, {"shared n=4", 256, 4}};
  const std::vector<bool> cache_axis{false, true};
  const std::vector<sched::SchedPolicy> policies{
      sched::SchedPolicy::kFcfs, sched::SchedPolicy::kWeightedFair};

  std::cout << "=== Prefix-cache sweep: " << ecfg.model.name << " ("
            << serve::to_string(ecfg.format) << ") on " << ecfg.gpu.name
            << ", " << cli.qps << " QPS, " << cli.duration_s
            << " s, 2 tenants (w4/w1) ===\n"
            << "Shared mixes: 4 system prompts of 256 tokens on 80% of "
               "requests; KV budget 768 blocks of 16 tokens per replica\n\n";

  struct Point {
    std::size_t mix, cache, policy;
  };
  std::vector<Point> points;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    for (std::size_t c = 0; c < cache_axis.size(); ++c) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        points.push_back({m, c, p});
      }
    }
  }

  json.set_points(points.size());
  const auto cells = [&] {
    const bench::SweepTimer timer(ctx, "prefix-cache sweep");
    return bench::run_sweep(ctx, points, [&](const Point& pt) {
      serve::ServingConfig sc;
      sc.qps = cli.qps;
      sc.duration_s = cli.duration_s;
      sc.seed = cli.seed;
      sc.policy = policies[pt.policy];
      sc.tenants = tenants;
      sc.kv_blocks = 768;
      sc.shared_prefix_tokens = mixes[pt.mix].prefix_tokens;
      sc.shared_prefix_groups = 4;
      sc.shared_prefix_share = 0.8;
      sc.sampling_n = mixes[pt.mix].sampling_n;
      sc.prefix_cache.enabled = cache_axis[pt.cache];
      sc.prefix_cache.max_cached_blocks = cli.prefix_cache_blocks;
      return serve::simulate_cluster_detailed(engine, sc).sched;
    });
  }();

  index_t hit_blocks_total = 0;
  index_t lookup_blocks_total = 0;
  std::size_t cell = 0;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    std::cout << "--- " << mixes[m].name << " ---\n";
    Table table({"cache / policy", "TPOT ms", "TTFT ms", "done", "hit%",
                 "saved blk", "evict", "forks", "cow copies", "preempt"});
    for (std::size_t c = 0; c < cache_axis.size(); ++c) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const auto& st = cells[cell++];
        const double hit_rate =
            st.prefix_cache_lookup_blocks > 0
                ? 100.0 * static_cast<double>(st.prefix_cache_hit_blocks) /
                      static_cast<double>(st.prefix_cache_lookup_blocks)
                : 0.0;
        hit_blocks_total += st.prefix_cache_hit_blocks;
        lookup_blocks_total += st.prefix_cache_lookup_blocks;
        table.add_row(
            {std::string(cache_axis[c] ? "on" : "off") + " / " +
                 sched::to_string(policies[p]),
             format_double(st.metrics.mean_tpot_ms, 2),
             format_double(st.metrics.mean_ttft_ms, 2),
             std::to_string(st.metrics.completed),
             format_double(hit_rate, 1),
             std::to_string(st.prefix_cache_hit_blocks),
             std::to_string(st.prefix_cache_evictions),
             std::to_string(st.cow_forks), std::to_string(st.cow_copies),
             std::to_string(st.preemptions)});
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Cache-off rows are the bit-exact legacy scheduler; the "
               "unique mix shows the cache never hurts when nothing is "
               "shareable. Saved blocks are prompt blocks served from "
               "cache instead of re-allocated and re-prefilled; n=4 forks "
               "share the prompt KV and copy-on-write only the divergent "
               "tail.\n";

  json.set_extra("cache_hit_rate",
                 lookup_blocks_total > 0
                     ? static_cast<double>(hit_blocks_total) /
                           static_cast<double>(lookup_blocks_total)
                     : 0.0);
  json.set_extra("blocks_saved", static_cast<double>(hit_blocks_total), 0);

  // `--trace-out` / `--metrics-out`: one serial re-run of the richest
  // config — the shared mix with the cache on under wfq — so the trace
  // shows prefix-cache-hit instants alongside the request lifecycle.
  {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    sc.policy = sched::SchedPolicy::kWeightedFair;
    sc.tenants = tenants;
    sc.kv_blocks = 768;
    sc.shared_prefix_tokens = 256;
    sc.shared_prefix_groups = 4;
    sc.shared_prefix_share = 0.8;
    sc.prefix_cache.enabled = true;
    sc.prefix_cache.max_cached_blocks = cli.prefix_cache_blocks;
    bench::maybe_write_observation(cli, engine, sc);
  }
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
