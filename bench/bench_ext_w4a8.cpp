// Extension (paper §6, QQQ follow-up): W4A8 — INT8 activations on the
// INT8 tensor pipes. Batch sweep on A100 vs FP16 and dense MARLIN: W4A8
// extends the speedup window past the W4A16 compute wall.

#include <iostream>

#include "common.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_ext_w4a8",
                          "extension: W4A8 INT8 activations (paper Sec. 6)");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Extension: W4A8 (INT8 activations) on A100, "
               "8192 x 8192 ===\n\n";
  const auto d = gpusim::a100_80g();
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
  const auto fp16 = baselines::make_kernel_model("fp16");
  const auto marlin = baselines::make_kernel_model("marlin");
  const auto w4a8 = baselines::make_kernel_model("marlin-w4a8");

  std::vector<index_t> batches;
  for (index_t m = 1; m <= 4096; m *= 4) batches.push_back(m);
  const auto rows = bench::run_sweep(
      ctx, batches, [&](const index_t m) -> std::vector<std::string> {
        const core::MatmulProblem p{m, 8192, 8192, 128, false};
        const double tf = fp16->estimate(p, d, clock).seconds;
        const double tm = marlin->estimate(p, d, clock).seconds;
        const double tw = w4a8->estimate(p, d, clock).seconds;
        return {std::to_string(m), format_seconds(tf), format_seconds(tm),
                format_seconds(tw), format_double(tf / tm, 2),
                format_double(tf / tw, 2)};
      });

  Table table({"batch", "fp16", "marlin (W4A16)", "marlin-w4a8",
               "W4A16 speedup", "W4A8 speedup"});
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  std::cout << "\nTakeaway: W4A16 speedup collapses once the FP16 tensor "
               "pipes saturate (batch ~64+); W4A8 keeps a ~1.5-2x edge deep "
               "into the compute-bound regime — the reason QQQ extended "
               "MARLIN this way.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
