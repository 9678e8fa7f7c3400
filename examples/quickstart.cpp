// Quickstart: quantize a weight matrix to the MARLIN format, run the
// functional MARLIN kernel, verify the result, and estimate the kernel's
// runtime on an NVIDIA A10.
//
//   $ ./quickstart              # --threads N parallelises the simulator
//
// This walks the whole public API surface in ~60 lines:
//   quantize_rtn -> marlin_repack -> marlin_matmul -> marlin_estimate_auto.

#include <iostream>

#include "common.hpp"
#include "baselines/kernel_model.hpp"
#include "core/marlin_kernel.hpp"
#include "core/timing.hpp"
#include "layout/repack.hpp"
#include "quant/uniform.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(
      args, "quickstart",
      "quantize one layer, run the kernel, check the output");
  const SimContext ctx = make_sim_context(args);
  const index_t m = 16, k = 512, n = 512;

  // 1. A random FP32 weight matrix and an FP16 activation batch.
  Rng rng(1234);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  Matrix<Half> a(m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }

  // 2. Symmetric INT4 quantization with group-128 scales, then the offline
  //    repack into MARLIN's tile/fragment/interleave layout.
  quant::QuantConfig qcfg;
  qcfg.group_size = 128;
  const auto q = quant::quantize_rtn(w.view(), qcfg);
  const auto mw = layout::marlin_repack(q);
  std::cout << "quantized " << k << "x" << n << " to "
            << format_bytes(static_cast<double>(mw.weight_bytes())) << " + "
            << format_bytes(static_cast<double>(mw.scale_bytes()))
            << " of scales (" << format_double(q.bits_per_weight(), 3)
            << " bits/weight)\n";

  // 3. Run the functional kernel (the bit-faithful host simulation); the
  //    context fans the per-SM stripes out on its shared pool.
  const auto res = core::marlin_matmul(a.view(), mw, core::KernelConfig{},
                                       /*num_sms=*/8, ctx);

  // 4. Verify against an FP32 reference on the dequantised weights.
  const auto ref =
      core::reference_matmul(a.view(), q.dequantize().view(), ctx);
  double max_err = 0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      max_err = std::max(max_err,
                         static_cast<double>(std::abs(res.c(i, j).to_float() - ref(i, j))));
    }
  }
  std::cout << "functional kernel max |err| vs FP32 reference: "
            << format_double(max_err, 4) << " (FP16 output rounding)\n";

  // 5. What would this cost on real hardware? Ask the timing model — here
  //    for a production-sized layer (a Llama-2-7B MLP projection).
  const core::MatmulProblem p{m, 4096, 2 * 11008, 128, false};
  const gpusim::ClockModel clock{gpusim::ClockMode::kBoost};
  const auto d = gpusim::a10();
  const auto est = core::marlin_estimate_auto(p, d, clock);
  const auto fp16 =
      baselines::make_kernel_model("fp16")->estimate(p, d, clock);
  std::cout << "A10 estimate for a 4096x22016 layer at batch " << m
            << ": MARLIN " << format_seconds(est.seconds) << " vs FP16 "
            << format_seconds(fp16.seconds) << " -> "
            << format_double(fp16.seconds / est.seconds, 2) << "x speedup\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
