// Ablation: striped partitioning (paper Fig. 5) vs column-wise ownership
// vs brute-force K-splitting, on real model layer shapes across GPUs.
//
// Metrics: SM utilisation (tiles balance), number of serial global
// reduction steps, and the resulting estimated kernel time.

#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "core/partition.hpp"
#include "core/timing.hpp"
#include "serve/model_config.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  using core::striped_partition_stats;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_ablate_partition",
                          "ablation: striped partitioning vs column-wise (paper Fig. 5)");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Ablation: partitioning scheme (batch 16, N_sm=256) ===\n\n";

  struct Point {
    gpusim::DeviceSpec d;
    serve::LayerShape l;
  };
  std::vector<Point> points;
  for (const auto& d : {gpusim::a10(), gpusim::a100_80g()}) {
    for (const auto& l : serve::block_linear_layers(serve::llama2_7b())) {
      points.push_back({d, l});
    }
  }

  // Each point yields the three scheme rows of its (layer, gpu) pair.
  const auto point_rows = bench::run_sweep(
      ctx, points,
      [&](const Point& pt) -> std::vector<std::vector<std::string>> {
        const auto& d = pt.d;
        const auto& l = pt.l;
        const index_t rows = l.k / 64;
        const index_t cols = (l.n + 255) / 256;
        const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
        const core::MatmulProblem p{16, l.k, l.n, 128, false};
        core::KernelConfig cfg;
        cfg.n_sm_tile = 256;
        const auto est = core::marlin_estimate(p, cfg, d, clock);
        const auto st = striped_partition_stats(rows, cols, d.num_sms);
        std::vector<std::vector<std::string>> out;

        // Striped (MARLIN).
        {
          const double util = 100.0 * static_cast<double>(st.total_tiles) /
                              (static_cast<double>(st.max_stripe) * d.num_sms);
          out.push_back({l.name, d.name, "striped", format_double(util, 1),
                         std::to_string(st.reduction_steps),
                         format_seconds(est.seconds)});
        }
        // Column-wise: whole columns per SM — no reductions, poor balance.
        {
          const auto cw = core::columnwise_partition(rows, cols, d.num_sms);
          const double util =
              100.0 * static_cast<double>(cw.total_tiles()) /
              (static_cast<double>(cw.max_stripe_len()) * d.num_sms);
          // Time scales with the longest stripe: estimate by inflating the
          // striped time by the imbalance ratio (same per-tile costs).
          const double inflate = static_cast<double>(cw.max_stripe_len()) /
                                 static_cast<double>(st.max_stripe);
          out.push_back({l.name, d.name, "column-wise",
                         format_double(util, 1), "0",
                         format_seconds(est.seconds * inflate)});
        }
        // Uniform K-split: split each column into #SM/cols slices — balanced
        // but needs a reduction per extra slice of every column.
        {
          const index_t splits =
              std::max<index_t>(1, d.num_sms / std::max<index_t>(1, cols));
          const index_t red = cols * (splits - 1);
          // Extra serial reductions add their L2 + latency cost.
          const double extra =
              static_cast<double>(splits - 1) *
              (16.0 * 256 * 2 * 2 / (d.l2_bytes_per_s() * 0.85) + 1.5e-6);
          out.push_back({l.name, d.name, "k-split", format_double(100.0, 1),
                         std::to_string(red),
                         format_seconds(est.seconds + extra)});
        }
        return out;
      });

  Table table({"layer", "gpu", "scheme", "SM util %", "reduction steps",
               "est. time"});
  for (const auto& rows : point_rows) {
    for (const auto& row : rows) table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nTakeaway: striping reaches ~100% SM utilisation with only "
               "a handful of serial reductions; column-wise idles most SMs "
               "on LLM shapes; k-split balances but multiplies reductions.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
