// Figure 1: peak speedup over FP16 (PyTorch/CUTLASS) vs batch size for a
// 72k x 18k INT4 (group=128) layer on NVIDIA A10, unlocked (boost) clocks.
//
// Paper shape to reproduce: MARLIN hugs the ideal 3.87x bound up to batch
// 16-32, decaying to ~1.5x at 128; the open-source comparators start near
// 3-3.6x at batch 1 and collapse below 1x between batch 16 and 64.
//
// Section 2 additionally *runs* the functional host simulator over the
// same batch sweep (on a proportionally scaled layer) and checks every
// point against the FP32 reference — the per-SM loops and the sweep itself
// execute on the SimContext pool (`--threads N`), with byte-identical
// stdout at every thread count; wall-clock goes to stderr.

#include <cmath>
#include <iostream>

#include "common.hpp"
#include "core/marlin_kernel.hpp"
#include "layout/repack.hpp"
#include "quant/uniform.hpp"
#include "util/rng.hpp"

namespace {

using namespace marlin;

/// One functional sweep point: bit-deterministic outputs only.
struct FunctionalRow {
  double max_err = 0;
  std::int64_t gmem_bytes = 0;
  index_t reduction_steps = 0;
};

void functional_sweep(const SimContext& ctx) {
  const index_t k = 1152, n = 4608;
  const index_t m_max = bench::fig1_batches().back();
  std::cout << "Functional host-simulator sweep (scaled layer K=" << k
            << ", N=" << n << ", 72 SMs), max |err| vs FP32 reference:\n";

  Rng rng(2025);
  Matrix<float> w(k, n);
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < n; ++j) {
      w(i, j) = static_cast<float>(rng.normal(0.0, 0.05));
    }
  }
  Matrix<Half> a(m_max, k);
  for (index_t i = 0; i < m_max; ++i) {
    for (index_t j = 0; j < k; ++j) {
      a(i, j) = Half(static_cast<float>(rng.normal()));
    }
  }
  quant::QuantConfig qcfg;
  qcfg.group_size = 128;
  const auto q = quant::quantize_rtn(w.view(), qcfg);
  const auto mw = layout::marlin_repack(q);
  const auto wd = q.dequantize();
  // Rows of the reference are shared by every batch size (batch m reads
  // the first m rows), so it is computed once, row-parallel.
  const auto ref = core::reference_matmul(a.view(), wd.view(), ctx);

  core::KernelConfig cfg;
  cfg.n_sm_tile = 256;
  const auto rows = bench::run_sweep(
      ctx, bench::fig1_batches(), [&](const index_t m) {
        const auto res = core::marlin_matmul(a.view().block(0, 0, m, k), mw,
                                             cfg, /*num_sms=*/72, ctx);
        FunctionalRow row;
        row.gmem_bytes = res.traffic.gmem_total();
        row.reduction_steps = res.reduction_steps;
        for (index_t i = 0; i < m; ++i) {
          for (index_t j = 0; j < n; ++j) {
            row.max_err = std::max(
                row.max_err, static_cast<double>(std::abs(
                                 res.c(i, j).to_float() - ref(i, j))));
          }
        }
        return row;
      });

  Table table({"batch", "max |err|", "GMEM moved", "reduction steps"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_row({std::to_string(bench::fig1_batches()[i]),
                   format_double(rows[i].max_err, 4),
                   format_bytes(static_cast<double>(rows[i].gmem_bytes)),
                   std::to_string(rows[i].reduction_steps)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace marlin;
  const CliArgs args(argc, argv);
  bench::maybe_print_help(args, "bench_fig1_peak",
                          "Figure 1 - peak speedup over FP16 vs batch size (A10, boost clocks)",
                          {bench::bench_json_flag_help()});
  const SimContext ctx = bench::make_context(args);
  bench::BenchJsonReporter json(args, ctx, "bench_fig1_peak");
  json.set_points(bench::fig1_batches().size());
  std::cout << "=== Figure 1: peak per-layer speedup on A10 (boost clock) ===\n"
            << "16bit x 4bit (group=128), K=18432, N=73728\n\n";
  {
    const bench::SweepTimer timer(ctx, "fig1 analytic sweep");
    bench::print_speedup_over_fp16(
        ctx, std::cout, "Speedup over FP16 (CUTLASS model)", gpusim::a10(),
        gpusim::ClockMode::kBoost,
        {"ideal-int4", "marlin", "torch-int4", "exllamav2", "awq",
         "bitsandbytes"},
        bench::fig1_batches(), bench::fig1_problem);
  }
  {
    const bench::SweepTimer timer(ctx, "fig1 functional sweep");
    functional_sweep(ctx);
  }
  std::cout << "Paper reference: MARLIN ~3.87x (bs<=16), ~3x (bs=64), "
               "~1.5x (bs=128); comparators <1x beyond bs~32.\n";
  return 0;
}

int main(int argc, char** argv) {
  return marlin::bench::run_main(argc, argv, run);
}
