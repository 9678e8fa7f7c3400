// Layer benchmark explorer: estimate any kernel on any layer shape and GPU.
//
//   $ ./layer_benchmark --device a10 --k 18432 --n 73728 --m 16
//   $ ./layer_benchmark --device a100 --model llama-2-7b --m 32 --base-clock
//
// With --model, every linear layer of one transformer block is shown;
// otherwise the explicit --k/--n shape is used. `--threads N` fans the
// per-kernel estimates out on the SimContext pool.

#include <iostream>

#include "common.hpp"
#include "baselines/kernel_model.hpp"
#include "serve/model_config.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(
      args, "layer_benchmark",
      "estimate any kernel on any layer shape and GPU",
      {{"--device D", "GPU (default a10)"},
       {"--m N", "batch (default 16)"},
       {"--group N", "quantization group size (default 128)"},
       {"--base-clock", "lock to base clocks instead of thermal model"},
       {"--model M", "use a real model's layer shapes instead of --k/--n"},
       {"--k N", "custom reduction dim (default 18432)"},
       {"--n N", "custom output dim (default 73728)"}});
  const SimContext ctx = make_sim_context(args);
  const auto device = gpusim::device_by_name(
      args.get_string("device", "a10"));
  const index_t m = args.get_int("m", 16);
  const index_t group = args.get_int("group", 128);
  const gpusim::ClockModel clock{args.get_bool("base-clock", false)
                                     ? gpusim::ClockMode::kLockedBase
                                     : gpusim::ClockMode::kBoost};

  std::vector<serve::LayerShape> shapes;
  if (args.has("model")) {
    const auto model = serve::model_by_name(args.get_string("model", ""));
    shapes = serve::block_linear_layers(model);
    std::cout << "layers of one " << model.name << " block, batch " << m
              << ", " << device.name << "\n\n";
  } else {
    shapes.push_back({"custom", args.get_int("k", 18432),
                      args.get_int("n", 73728)});
    std::cout << "custom layer, batch " << m << ", " << device.name
              << "\n\n";
  }

  const std::vector<std::string> kernels{"fp16",      "marlin",
                                         "sparse-marlin", "torch-int4",
                                         "exllamav2", "awq", "bitsandbytes"};
  std::vector<core::MatmulProblem> points;
  points.reserve(shapes.size());
  for (const auto& shape : shapes) {
    points.push_back({m, shape.k, shape.n, group, false});
  }

  // One estimate sweep per kernel, each fanned out over the layer shapes.
  std::vector<std::vector<gpusim::KernelEstimate>> by_kernel(kernels.size());
  ctx.parallel_for(0, static_cast<std::int64_t>(kernels.size()),
                   [&](std::int64_t ki) {
                     const auto model = baselines::make_kernel_model(
                         kernels[static_cast<std::size_t>(ki)]);
                     by_kernel[static_cast<std::size_t>(ki)] =
                         model->estimate_sweep(ctx, points, device, clock);
                   });

  Table table({"layer", "kernel", "time", "TFLOP/s", "GB moved",
               "speedup vs fp16"});
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    const double t_fp16 = by_kernel[0][si].seconds;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const auto& est = by_kernel[ki][si];
      table.add_row(
          {shapes[si].name + " " + std::to_string(shapes[si].k) + "x" +
               std::to_string(shapes[si].n),
           kernels[ki], format_seconds(est.seconds),
           format_double(est.achieved_tflops(), 1),
           format_double(static_cast<double>(est.traffic.gmem_total()) / 1e9,
                         2),
           format_double(t_fp16 / est.seconds, 2)});
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
