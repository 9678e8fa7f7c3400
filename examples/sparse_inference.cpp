// Sparse inference walkthrough: SparseGPT-lite joint 2:4 pruning + INT4
// quantization, compression into the Sparse-MARLIN structures (paper
// Figures 7/8), functional verification, and the expected speedup uplift.
//
//   $ ./sparse_inference --k 256 --n 128    # --threads N parallelises

#include <iostream>

#include "common.hpp"
#include "baselines/kernel_model.hpp"
#include "core/problem.hpp"
#include "core/sparse_kernel.hpp"
#include "eval/metrics.hpp"
#include "eval/synthetic.hpp"
#include "quant/gptq.hpp"
#include "sparse/compressed.hpp"
#include "sparse/sparsegpt.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(
      args, "sparse_inference",
      "joint 2:4 pruning + INT4 quantization walkthrough",
      {{"--k N", "reduction dim (default 256)"},
       {"--n N", "output dim (default 128)"},
       {"--m N", "batch (default 16)"}});
  const SimContext ctx = make_sim_context(args);
  const index_t k = args.get_int("k", 256);
  const index_t n = args.get_int("n", 128);
  const index_t m = args.get_int("m", 16);
  constexpr index_t kGroup = 64;
  // Reject an empty or negative shape before building anything from it.
  core::MatmulProblem{m, k, n, kGroup, true}.validate();

  // 1. Joint 2:4 prune + quantize with Hessian-aware selection.
  const auto layer = eval::make_synthetic_layer(k, n, 3 * k, 777);
  quant::HessianAccumulator acc(k);
  acc.add_sequence(layer.calib.view());
  quant::GptqConfig cfg;
  cfg.quant.group_size = kGroup;
  const auto sg =
      sparse::sparsegpt_24_quantize(layer.w.view(), acc.hessian(), cfg);
  const double nmse = eval::layer_output_nmse(
      layer.w.view(), sg.weights.dequantize().view(), layer.calib.view());
  std::cout << "SparseGPT-lite 2:4 + INT4: layer output NMSE = "
            << format_double(nmse, 5) << "\n";

  // 2. Compress into the Sparse-MARLIN structures.
  const auto s24 = sparse::compress_24(sg.weights, sg.mask);
  std::cout << "compressed: " << s24.compressed_k() << "x" << n
            << " non-zero codes + " << k / 4 << "x" << n
            << " metadata nibbles = "
            << format_double(s24.bits_per_weight(), 3) << " bits/weight\n";

  // 3. Run the functional Sparse-MARLIN kernel (per-SM stripes on the
  //    context pool) and verify.
  Rng rng(3);
  Matrix<Half> a(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }
  core::KernelConfig kcfg;
  kcfg.n_sm_tile = std::min<index_t>(128, n);
  const auto res = core::sparse_marlin_matmul(a.view(), s24, kcfg, 8, ctx);
  const auto ref = core::reference_matmul(
      a.view(), sparse::decompress_24(s24).view(), ctx);
  double max_err = 0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      max_err = std::max(max_err,
                         static_cast<double>(std::abs(res.c(i, j).to_float() - ref(i, j))));
    }
  }
  std::cout << "functional Sparse-MARLIN max |err|: "
            << format_double(max_err, 4) << "\n\n";

  // 4. Projected uplift on an A10 at several batch sizes, fanned out per
  //    kernel model on the context.
  const auto d = gpusim::a10();
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
  std::vector<core::MatmulProblem> points;
  for (const index_t batch : {1, 16, 64, 128}) {
    points.push_back({batch, 18432, 73728, 128, false});
  }
  const auto tf = baselines::make_kernel_model("fp16")->estimate_sweep(
      ctx, points, d, clock);
  const auto tm = baselines::make_kernel_model("marlin")->estimate_sweep(
      ctx, points, d, clock);
  const auto ts =
      baselines::make_kernel_model("sparse-marlin")
          ->estimate_sweep(ctx, points, d, clock);
  Table table({"batch", "fp16", "marlin", "sparse-marlin",
               "sparse vs dense"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    table.add_row({std::to_string(points[i].m),
                   format_seconds(tf[i].seconds),
                   format_seconds(tm[i].seconds),
                   format_seconds(ts[i].seconds),
                   format_double(tm[i].seconds / ts[i].seconds, 2)});
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
