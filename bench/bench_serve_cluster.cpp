// Cluster serving sweep: replica count x placement policy x streaming-SLO
// admission for Llama-2-7B (MARLIN) on RTX A6000 under heavy overload
// (24 QPS), plus a trace-driven autoscaler section on the bursty arrival
// process.
//
// The grid exercises the cluster tier end to end: the shared EventLoop
// ticks every replica in global time order, the Router spreads arrivals
// (round-robin / least-loaded by outstanding tokens / session-affinity on
// the tenant hash), and the TTFT deadline sheds requests whose best case
// is already hopeless — so a single overloaded replica sheds heavily
// while four replicas barely shed at all. Four equal tenants give the
// session-affinity hash something to spread.
//
// All simulations are fixed-seed discrete-event runs fanned out on the
// SimContext pool; every event loop is strictly serial, so the tables are
// byte-identical at every `--threads` count (ctest -L golden enforces 1
// and 4).

#include <iostream>

#include "common.hpp"
#include "serve/server_sim.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  namespace sched = serve::sched;
  namespace cluster = serve::cluster;
  const CliArgs args(argc, argv);
  auto help = bench::serving_flag_help(24.0, 40.0, {"workload"});
  help.insert(
      help.begin(),
      {{"--ttft-slo MS", "TTFT shed deadline for the SLO axis (default 250)"},
       {"--tpot-slo MS", "TPOT deadline for the SLO axis (default 15)"},
       {"--trace-out FILE",
        "write a Chrome/Perfetto trace of one recorded serial re-run "
        "(autoscaled bursty config with the SLO axis on)"},
       bench::bench_json_flag_help()});
  bench::maybe_print_help(
      args, "bench_serve_cluster",
      "cluster serving sweep: replicas x placement x SLO shed, plus the "
      "trace-driven autoscaler (Llama-2-7B MARLIN on RTX A6000)",
      std::move(help));
  const SimContext ctx = bench::make_context(args);
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args, 24.0, 40.0);
  const double ttft_slo = args.get_double("ttft-slo", 250.0);
  const double tpot_slo = args.get_double("tpot-slo", 15.0);
  bench::BenchJsonReporter json(args, ctx, "bench_serve_cluster");

  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  ecfg.format = serve::WeightFormat::kMarlin;
  const serve::Engine engine(ecfg);

  // Four equal tenants: the session-affinity hash needs distinct sessions
  // to spread, and every placement sees the identical arrival trace
  // (tenant assignment draws from a side RNG stream).
  std::vector<sched::TenantSpec> tenants;
  for (index_t t = 0; t < 4; ++t) {
    sched::TenantSpec spec;
    spec.id = t;
    spec.name = "tenant" + std::to_string(t);
    tenants.push_back(spec);
  }

  const std::vector<index_t> replica_counts{1, 2, 4};
  const std::vector<cluster::Placement> placements{
      cluster::Placement::kRoundRobin, cluster::Placement::kLeastLoaded,
      cluster::Placement::kSessionAffinity};
  const std::vector<bool> slo_axis{false, true};

  std::cout << "=== Cluster serving sweep: " << ecfg.model.name << " ("
            << serve::to_string(ecfg.format) << ") on " << ecfg.gpu.name
            << ", " << cli.qps << " QPS, " << cli.duration_s
            << " s, 4 tenants ===\n"
            << "SLO axis: TTFT shed deadline " << ttft_slo
            << " ms, TPOT deadline " << tpot_slo
            << " ms; per-replica KV budget 192 blocks of 16 tokens\n\n";

  const auto base_config = [&] {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.policy = cli.policy;
    sc.tenants = tenants;
    sc.kv_blocks = 192;  // per replica: tight enough to queue at 24 QPS
    return sc;
  };

  struct Point {
    std::size_t replicas, placement, slo;
    bool autoscaled;
  };
  std::vector<Point> points;
  for (std::size_t s = 0; s < slo_axis.size(); ++s) {
    for (std::size_t r = 0; r < replica_counts.size(); ++r) {
      for (std::size_t p = 0; p < placements.size(); ++p) {
        points.push_back({r, p, s, false});
      }
    }
  }
  // The autoscaler section's three runs ride the same sweep (one per
  // placement, bursty arrivals, scale 1..6).
  for (std::size_t p = 0; p < placements.size(); ++p) {
    points.push_back({0, p, 0, true});
  }

  json.set_points(points.size());
  const bench::SweepTimer timer(ctx, "cluster serving sweep");
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    serve::ServingConfig sc = base_config();
    sc.cluster.placement = placements[pt.placement];
    if (pt.autoscaled) {
      sc.shape = sched::WorkloadShape::kBursty;
      sc.cluster.replicas = 1;
      sc.cluster.autoscaler.enabled = true;
      sc.cluster.autoscaler.min_replicas = 1;
      sc.cluster.autoscaler.max_replicas = 6;
      sc.cluster.autoscaler.interval_s = 2.0;
      sc.cluster.autoscaler.scale_up_queue_per_replica = 4.0;
      sc.cluster.autoscaler.scale_down_queue_per_replica = 0.5;
    } else {
      sc.cluster.replicas = replica_counts[pt.replicas];
      if (slo_axis[pt.slo]) {
        sc.slo.ttft_deadline_ms = ttft_slo;
        sc.slo.tpot_deadline_ms = tpot_slo;
      }
    }
    return serve::simulate_cluster_detailed(engine, sc);
  });

  std::size_t cell = 0;
  for (std::size_t s = 0; s < slo_axis.size(); ++s) {
    std::cout << "--- SLO " << (slo_axis[s] ? "on" : "off") << " ---\n";
    Table table({"replicas / placement", "TPOT ms", "TTFT ms", "p90 TTFT",
                 "batch", "done", "shed", "ttft viol", "tpot viol",
                 "preempt"});
    for (std::size_t r = 0; r < replica_counts.size(); ++r) {
      for (std::size_t p = 0; p < placements.size(); ++p) {
        const auto& cs = cells[cell++];
        const auto& st = cs.sched;
        const auto& m = st.metrics;
        table.add_row({std::to_string(replica_counts[r]) + " / " +
                           cluster::to_string(placements[p]),
                       format_double(m.mean_tpot_ms, 2),
                       format_double(m.mean_ttft_ms, 2),
                       format_double(m.p90_ttft_ms, 2),
                       format_double(m.mean_batch, 1),
                       std::to_string(m.completed), std::to_string(st.shed),
                       std::to_string(st.slo_ttft_violations),
                       std::to_string(st.slo_tpot_violations),
                       std::to_string(st.preemptions)});
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "--- autoscaler (bursty arrivals, 1..6 replicas, eval every "
               "2 s) ---\n";
  Table scaling({"placement", "peak", "added", "drained", "done", "TTFT ms",
                 "p90 TTFT"});
  for (std::size_t p = 0; p < placements.size(); ++p) {
    const auto& cs = cells[cell++];
    const auto& m = cs.sched.metrics;
    scaling.add_row({std::string(cluster::to_string(placements[p])),
                     std::to_string(cs.peak_replicas),
                     std::to_string(cs.replicas_added),
                     std::to_string(cs.replicas_drained),
                     std::to_string(m.completed),
                     format_double(m.mean_ttft_ms, 2),
                     format_double(m.p90_ttft_ms, 2)});
  }
  scaling.print(std::cout);
  std::cout << "\nOne overloaded replica sheds hopeless requests at the "
               "deadline; spreading the same trace over the fleet recovers "
               "them. The autoscaler rides the burst envelope instead of "
               "provisioning for the peak.\n";

  // `--trace-out` / `--metrics-out`: one serial re-run of the richest
  // config — bursty arrivals under the autoscaler with the SLO axis on —
  // so the trace shows router placements, replica lifecycle, preemptions,
  // sheds and SLO violations all at once.
  {
    serve::ServingConfig sc = base_config();
    sc.cluster.placement = cluster::Placement::kLeastLoaded;
    sc.shape = sched::WorkloadShape::kBursty;
    sc.cluster.replicas = 1;
    sc.cluster.autoscaler.enabled = true;
    sc.cluster.autoscaler.min_replicas = 1;
    sc.cluster.autoscaler.max_replicas = 6;
    sc.cluster.autoscaler.interval_s = 2.0;
    sc.cluster.autoscaler.scale_up_queue_per_replica = 4.0;
    sc.cluster.autoscaler.scale_down_queue_per_replica = 0.5;
    sc.slo.ttft_deadline_ms = ttft_slo;
    sc.slo.tpot_deadline_ms = tpot_slo;
    bench::maybe_write_observation(cli, engine, sc);
  }
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
