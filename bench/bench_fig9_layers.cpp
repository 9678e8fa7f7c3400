// Figure 9: MARLIN speedup at batch 16 on the real linear-layer shapes of
// popular models (LLaMA-7B/13B/33B/65B, Falcon-180B) across four GPUs.
//
// Paper shape: ~3.5-3.9x on A10/RTX 3090, somewhat lower on RTX A6000, and
// clearly lower on A100 — the flagship's much higher bandwidth/compute
// makes fixed overheads (launch, pipeline fill, partitioning) relatively
// larger on these small matrices.

#include <iostream>

#include "common.hpp"
#include "serve/model_config.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_fig9_layers",
                          "Figure 9 - speedup at batch 16 on real Llama-2 layer shapes");
  const SimContext ctx = bench::make_context(args);
  std::cout << "=== Figure 9: per-layer speedup at batch 16, group=128 ===\n\n";

  const std::vector<serve::ModelConfig> models{
      serve::llama2_7b(), serve::llama2_13b(), serve::llama1_33b(),
      serve::llama1_65b(), serve::falcon_180b()};
  const auto devices = gpusim::all_devices();
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};

  struct Point {
    std::size_t model;
    std::size_t device;
  };
  std::vector<Point> points;
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    for (std::size_t di = 0; di < devices.size(); ++di) {
      points.push_back({mi, di});
    }
  }
  const auto cells = bench::run_sweep(ctx, points, [&](const Point& pt) {
    const auto fp16 = baselines::make_kernel_model("fp16");
    const auto marlin_k = baselines::make_kernel_model("marlin");
    const auto& d = devices[pt.device];
    // Aggregate over the block's linear layers (time-weighted speedup).
    double t_fp16 = 0, t_marlin = 0;
    for (const auto& l : serve::block_linear_layers(models[pt.model])) {
      const core::MatmulProblem p{16, l.k, l.n, 128, false};
      t_fp16 += fp16->estimate(p, d, clock).seconds;
      t_marlin += marlin_k->estimate(p, d, clock).seconds;
    }
    return t_fp16 / t_marlin;
  });

  std::vector<std::string> header{"model \\ gpu"};
  for (const auto& d : devices) header.push_back(d.name);
  Table table(header);
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    std::vector<double> row;
    for (std::size_t di = 0; di < devices.size(); ++di) {
      row.push_back(cells[mi * devices.size() + di]);
    }
    table.add_row_numeric(models[mi].name, row, 2);
  }
  table.print(std::cout);
  std::cout << "\nPaper reference: highest speedups on A10/RTX3090 "
               "(~3.5-3.9x), lowest on A100 (~2.5-3x), growing with model "
               "size on every GPU.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
