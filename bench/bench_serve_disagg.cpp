// Disaggregated prefill/decode serving for Llama-2-7B (MARLIN) on RTX
// A6000: the same two-GPU budget spent as a unified fleet (with and
// without chunked prefill) versus split prefill/decode pools with the
// KV handoff priced on the device interconnect.
//
// The story is the TPOT tail. A unified replica must interleave prefill
// rounds with decode rounds, so every long prompt admission stalls the
// decode batch and lands in TPOT p99; chunked prefill bounds the stall
// but still steals decode slots. A decode-pool replica never prefills —
// its batch only ever decodes — so the tail collapses, and the price
// appears where it belongs: on TTFT, as per-request KV transfer seconds
// over the link. A second section sweeps the link itself from the
// device interconnect down to a slow fabric; a third prices the
// tensor-parallel all-reduce/compute overlap (`--comm-buckets`) on the
// deterministic step model.
//
// Fixed-seed discrete-event runs fanned out on the SimContext pool;
// every event loop is strictly serial, so the tables are byte-identical
// at every `--threads` count (ctest -L golden enforces 1 and 4).

#include <iostream>

#include "common.hpp"
#include "serve/parallel/parallel_engine.hpp"
#include "serve/server_sim.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  namespace sched = serve::sched;
  const CliArgs args(argc, argv);
  auto help = bench::serving_flag_help(10.0, 30.0);
  help.insert(help.begin(),
              {{"--input N", "prompt tokens (default 256 — prefill-heavy)"},
               {"--output N", "output tokens per request (default 64)"},
               {"--trace-out FILE",
                "write a Chrome/Perfetto trace of one recorded serial "
                "re-run (disaggregated pools on the device link)"},
               bench::bench_json_flag_help()});
  bench::maybe_print_help(
      args, "bench_serve_disagg",
      "disaggregated prefill/decode pools vs a unified fleet, priced KV "
      "transfer, and TP comm/compute overlap (Llama-2-7B MARLIN on RTX "
      "A6000)",
      std::move(help));
  const SimContext ctx = bench::make_context(args);
  const bench::ServeCliOptions cli = bench::parse_serve_cli(args, 10.0, 30.0);
  const auto input_tokens =
      static_cast<index_t>(args.get_int("input", 256));
  const auto output_tokens =
      static_cast<index_t>(args.get_int("output", 64));
  bench::BenchJsonReporter json(args, ctx, "bench_serve_disagg");

  serve::EngineConfig ecfg;
  ecfg.model = serve::llama2_7b();
  ecfg.gpu = gpusim::rtxa6000();
  ecfg.format = serve::WeightFormat::kMarlin;
  const serve::Engine engine(ecfg);

  std::cout << "=== Disaggregated serving: " << ecfg.model.name << " ("
            << serve::to_string(ecfg.format) << ") on " << ecfg.gpu.name
            << ", " << cli.qps << " QPS, " << cli.duration_s << " s, "
            << input_tokens << " in / " << output_tokens << " out ===\n"
            << "Two GPUs per config: unified fleet of 2 vs 1 prefill + 1 "
               "decode pool; per-replica KV budget 256 blocks of 16 "
               "tokens; KV handoff priced at "
            << format_double(engine.kv_bytes_per_token() / 1024.0, 0)
            << " KiB/token on the device interconnect unless swept\n\n";

  const auto base_config = [&] {
    serve::ServingConfig sc;
    sc.qps = cli.qps;
    sc.duration_s = cli.duration_s;
    sc.seed = cli.seed;
    cli.apply_prefix_cache(sc);
    sc.policy = cli.policy;
    sc.shape = cli.workload;
    sc.input_tokens = input_tokens;
    sc.output_tokens = output_tokens;
    sc.kv_blocks = 256;  // per replica
    return sc;
  };

  // Section 1: {unified x2, disagg 1p+1d} x {whole-prompt, chunked 32}.
  // Section 2: disagg on progressively slower links (0 = device link).
  struct Point {
    bool disagg;
    index_t chunk;
    double link_bytes_per_s;
  };
  const std::vector<Point> points{
      {false, 0, 0.0},    {false, 32, 0.0},  {true, 0, 0.0},
      {true, 32, 0.0},    {true, 0, 16e9},   {true, 0, 4e9},
      {true, 0, 1e9},
  };

  json.set_points(points.size());
  const bench::SweepTimer timer(ctx, "disaggregated serving sweep");
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    serve::ServingConfig sc = base_config();
    sc.prefill_chunk_tokens = pt.chunk;
    if (pt.disagg) {
      sc.cluster.disagg.enabled = true;
      sc.cluster.disagg.prefill_replicas = 1;
      sc.cluster.disagg.decode_replicas = 1;
      // 0 = auto-priced from the engine + device interconnect.
      sc.cluster.disagg.link_bytes_per_s = pt.link_bytes_per_s;
      if (pt.link_bytes_per_s > 0) {
        sc.cluster.disagg.link_latency_s = 10e-6;
      }
    } else {
      sc.cluster.replicas = 2;
    }
    return serve::simulate_cluster_detailed(engine, sc);
  });

  const auto config_name = [](const Point& pt) {
    std::string name = pt.disagg ? "disagg 1p+1d" : "unified x2";
    if (pt.chunk > 0) name += " chunk " + std::to_string(pt.chunk);
    return name;
  };
  const auto serving_row = [&](const Point& pt, std::size_t cell) {
    const auto& cs = cells[cell];
    const auto& m = cs.sched.metrics;
    return std::vector<std::string>{
        config_name(pt),
        format_double(m.p50_tpot_ms, 2),
        format_double(m.p99_tpot_ms, 2),
        format_double(m.mean_ttft_ms, 2),
        format_double(m.mean_batch, 1),
        std::to_string(cs.sched.migrated_out),
        format_double(cs.transfer_seconds, 3),
        std::to_string(m.completed),
        std::to_string(cs.sched.preemptions)};
  };

  std::cout << "--- pools vs unified (device link) ---\n";
  Table table({"config", "TPOT p50", "TPOT p99", "TTFT ms", "batch",
               "migr", "transfer s", "done", "preempt"});
  for (std::size_t i = 0; i < 4; ++i) table.add_row(serving_row(points[i], i));
  table.print(std::cout);

  std::cout << "\n--- KV transfer link sweep (disagg 1p+1d, whole-prompt "
               "prefill) ---\n";
  Table links({"link", "TPOT p50", "TPOT p99", "TTFT ms", "batch", "migr",
               "transfer s", "done", "preempt"});
  const std::vector<std::string> link_names{"device interconnect", "16 GB/s",
                                            "4 GB/s", "1 GB/s"};
  links.add_row(serving_row(points[2], 2));
  for (std::size_t i = 4; i < points.size(); ++i) {
    auto row = serving_row(points[i], i);
    row[0] = link_names[i - 3];
    links.add_row(row);
  }
  links.print(std::cout);

  std::cout << "\nThe decode pool never runs a prefill round, so the TPOT "
               "tail collapses to the steady decode cadence; the handoff "
               "cost lands on TTFT and grows as the link slows.\n";

  // Section 3: bucketed all-reduce/compute overlap on the deterministic
  // tp4 step model — no simulation, just the priced decode step.
  std::cout << "\n--- TP comm/compute overlap (tp4, decode batch 32, "
               "context 512) ---\n";
  Table overlap({"comm buckets", "step ms", "tp comm ms", "saved ms"});
  for (const int buckets : {1, 2, 4, 8}) {
    serve::parallel::ParallelConfig pc{4, 1, 0};
    pc.comm_buckets = buckets;
    const serve::parallel::ParallelEngine pe(engine, pc);
    const auto b = pe.decode_breakdown(32, 512.0);
    overlap.add_row({std::to_string(buckets),
                     format_double(b.total_s * 1e3, 4),
                     format_double(b.tp_comm_s * 1e3, 4),
                     format_double(b.overlap_saved_s * 1e3, 4)});
  }
  overlap.print(std::cout);
  std::cout << "\nBucketed all-reduces drain behind the next block's "
               "compute; finer buckets shrink the exposed tail after the "
               "last block.\n";

  // Fleet-level transfer volume of the auto-priced disagg cell, for the
  // machine-readable trajectory.
  json.set_extra("transfer_s", cells[2].transfer_seconds);
  json.set_extra("migrations",
                 static_cast<double>(cells[2].sched.migrated_out), 0);

  // `--trace-out` / `--metrics-out`: one serial re-run of the
  // disaggregated config on the device link, so the trace shows the
  // kv-transfer spans between the prefill and decode rows.
  {
    serve::ServingConfig sc = base_config();
    sc.cluster.disagg.enabled = true;
    sc.cluster.disagg.prefill_replicas = 1;
    sc.cluster.disagg.decode_replicas = 1;
    bench::maybe_write_observation(cli, engine, sc);
  }
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
