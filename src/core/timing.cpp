#include "core/timing.hpp"

#include <algorithm>
#include <cmath>

#include "core/partition.hpp"
#include "gpusim/pipeline.hpp"
#include "gpusim/warp_exec.hpp"

namespace marlin::core {

namespace {

// Achieved fraction of aggregate L2 bandwidth for A-block re-reads.
constexpr double kL2Efficiency = 0.85;
// cp.async GMEM->SMEM latency hidden by the software pipeline.
constexpr double kLoadLatencyS = 6.0e-7;
// Lock acquisition + partial flush cost per serial reduction step.
constexpr double kReductionStepLatencyS = 1.5e-6;

gpusim::KernelEstimate estimate_impl(const MatmulProblem& p,
                                     const KernelConfig& cfg,
                                     const gpusim::DeviceSpec& d,
                                     const gpusim::ClockModel& clock,
                                     const MarlinPerfParams& perf,
                                     bool sparse) {
  p.validate();
  const double m_eff =
      static_cast<double>(std::min<index_t>(p.m_padded(), cfg.m_block));

  const index_t tile_rows = (p.k + cfg.k_sm_tile - 1) / cfg.k_sm_tile;
  const index_t tile_cols = (p.n + cfg.n_sm_tile - 1) / cfg.n_sm_tile;
  const index_t m_blocks =
      std::max<index_t>(1, (p.m + cfg.m_block - 1) / cfg.m_block);
  const int sms = cfg.sm_limit > 0 ? std::min(cfg.sm_limit, d.num_sms)
                                   : d.num_sms;
  const PartitionStats part =
      striped_partition_stats(tile_rows, tile_cols, sms, m_blocks);

  const double width = std::min<double>(static_cast<double>(cfg.n_sm_tile),
                                        static_cast<double>(p.n));
  const double bits_w = p.weight_bits_per_element();
  const double tile_b_bytes =
      static_cast<double>(cfg.k_sm_tile) * width * bits_w / 8.0;

  // --- Compute side. ---
  gpusim::WarpExecParams wp;
  wp.num_warps = cfg.num_warps;
  wp.warp_tile_m = static_cast<int>(std::min<double>(m_eff, 64.0));
  wp.warp_tile_n = 64;
  const double e_tc = std::min(perf.tc_efficiency_cap,
                               gpusim::tensor_core_utilization(d, wp));
  // Sparse tensor cores and the INT8 pipes (W4A8) each double MMA rate.
  const double tc_mult = (sparse ? d.sparse_tc_multiplier : 1.0) *
                         (p.activation_bits == 8 ? 2.0 : 1.0);

  // Thermal feedback: effective clock depends on how long the tensor pipes
  // stay busy, which depends on the clock; two fixed-point iterations
  // converge well within model accuracy.
  double clock_ghz = d.boost_clock_ghz;
  gpusim::KernelEstimate est;
  for (int iter = 0; iter < 2; ++iter) {
    const double tc_per_sm =
        d.tc_flops(clock_ghz) * tc_mult / d.num_sms * e_tc;
    const double tile_flops = 2.0 * std::min<double>(m_eff, 64.0) *
                              static_cast<double>(cfg.k_sm_tile) * width;
    const double t_tile_comp = tile_flops / tc_per_sm;

    // --- Memory side (per active SM). ---
    const double bw_share =
        d.gmem_bytes_per_s() * perf.mem_efficiency / part.active_sms;
    // Besides the B stream, each SM carries its share of the one-time A
    // read and the C write-out (plus reduction re-reads/writes).
    const double reduce_bytes = static_cast<double>(part.reduction_steps) *
                                m_eff * width * 2.0 * 2.0;
    const double shared_stream_bytes =
        (p.a_bytes() + p.c_bytes() + reduce_bytes) / part.active_sms;
    const double tiles_max = static_cast<double>(part.max_stripe);
    const double tile_load_s =
        (tile_b_bytes + shared_stream_bytes / std::max(1.0, tiles_max)) /
        bw_share;

    // --- L2 bound (Eq. 1): every tile also pulls its A block from L2. ---
    const double l2_share =
        d.l2_bytes_per_s() * kL2Efficiency / part.active_sms;
    const double a_block_bytes = m_eff * static_cast<double>(cfg.k_sm_tile) * 2.0;
    const double t_tile_l2 = (a_block_bytes + tile_b_bytes) / l2_share;

    // --- Software pipeline over the SM's stripe. ---
    gpusim::PipelineParams pp;
    pp.depth = cfg.pipeline_depth;
    pp.num_tiles = static_cast<int>(std::min<index_t>(
        part.max_stripe, static_cast<index_t>(1) << 22));
    pp.tile_load_s = std::max(tile_load_s, t_tile_l2);
    pp.load_latency_s = kLoadLatencyS;
    pp.tile_compute_s = t_tile_comp;
    const gpusim::PipelineResult pipe = gpusim::simulate_pipeline(pp);

    const double t_reduce =
        part.max_column_depth > 1
            ? static_cast<double>(part.max_column_depth - 1) *
                  (m_eff * width * 2.0 * 2.0 /
                       (d.l2_bytes_per_s() * kL2Efficiency) +
                   kReductionStepLatencyS)
            : 0.0;

    est.seconds = d.kernel_launch_s + pipe.total_s + t_reduce;
    est.breakdown.launch_s = d.kernel_launch_s;
    est.breakdown.mem_s = tiles_max * pp.tile_load_s;
    est.breakdown.l2_s = tiles_max * t_tile_l2;
    est.breakdown.compute_s = tiles_max * t_tile_comp;
    est.breakdown.reduce_s = t_reduce;
    est.breakdown.pipeline_fill_s =
        pp.tile_load_s * cfg.pipeline_depth + kLoadLatencyS;
    est.effective_clock_ghz = clock_ghz;

    // Thermal / locked-clock feedback for the next iteration.
    const double busy_fraction =
        est.seconds > 0
            ? std::min(1.0, est.breakdown.compute_s / est.seconds)
            : 0.0;
    clock_ghz = clock.effective_clock_ghz(d, busy_fraction * est.seconds);
    if (clock.mode != gpusim::ClockMode::kAutoThermal) {
      clock_ghz = clock.effective_clock_ghz(d, 0.0);
    }
  }

  est.useful_flops = p.flops();
  est.traffic.gmem_read_bytes = static_cast<std::int64_t>(
      p.weight_bytes() + p.a_bytes() +
      static_cast<double>(part.reduction_steps) * m_eff * width * 2.0);
  est.traffic.gmem_write_bytes = static_cast<std::int64_t>(
      p.c_bytes() +
      static_cast<double>(part.reduction_steps) * m_eff * width * 2.0);
  est.traffic.l2_read_bytes = static_cast<std::int64_t>(
      static_cast<double>(part.total_tiles) *
      (m_eff * static_cast<double>(cfg.k_sm_tile) * 2.0 + tile_b_bytes));
  return est;
}

}  // namespace

gpusim::KernelEstimate marlin_estimate(const MatmulProblem& p,
                                       const KernelConfig& cfg,
                                       const gpusim::DeviceSpec& d,
                                       const gpusim::ClockModel& clock,
                                       const MarlinPerfParams& perf) {
  MatmulProblem dense = p;
  dense.sparse24 = false;
  return estimate_impl(dense, cfg, d, clock, perf, /*sparse=*/false);
}

gpusim::KernelEstimate sparse_marlin_estimate(const MatmulProblem& p,
                                              const KernelConfig& cfg,
                                              const gpusim::DeviceSpec& d,
                                              const gpusim::ClockModel& clock,
                                              const MarlinPerfParams& perf) {
  MatmulProblem sp = p;
  sp.sparse24 = true;
  return estimate_impl(sp, cfg, d, clock, perf, /*sparse=*/true);
}

namespace {

/// The kernel auto-tuner: try every legal tile width and keep the fastest —
/// mirroring how the CUDA MARLIN picks its launch configuration per shape.
template <typename EstimateFn>
gpusim::KernelEstimate tuned_estimate(const MatmulProblem& p,
                                      const gpusim::DeviceSpec& d,
                                      const EstimateFn& estimate) {
  gpusim::KernelEstimate best;
  bool first = true;
  for (const index_t n_sm : {64, 128, 256}) {
    if (n_sm > std::max<index_t>(64, p.n)) continue;
    KernelConfig cfg = choose_config(p, d);
    cfg.n_sm_tile = n_sm;
    cfg.num_warps = std::min(8, cfg.n_subtiles(std::min(n_sm, p.n)) * 4);
    const index_t tile_cols = (p.n + n_sm - 1) / n_sm;
    const index_t m_blocks =
        std::max<index_t>(1, (p.m + cfg.m_block - 1) / cfg.m_block);
    for (const int sm_limit :
         {0, static_cast<int>(std::min<index_t>(tile_cols * m_blocks,
                                                d.num_sms))}) {
      cfg.sm_limit = sm_limit;
      const auto est = estimate(cfg);
      if (first || est.seconds < best.seconds) {
        best = est;
        first = false;
      }
    }
  }
  return best;
}

}  // namespace

gpusim::KernelEstimate marlin_estimate_auto(const MatmulProblem& p,
                                            const gpusim::DeviceSpec& d,
                                            const gpusim::ClockModel& clock) {
  return tuned_estimate(p, d, [&](const KernelConfig& cfg) {
    return marlin_estimate(p, cfg, d, clock);
  });
}

gpusim::KernelEstimate sparse_marlin_estimate_auto(
    const MatmulProblem& p, const gpusim::DeviceSpec& d,
    const gpusim::ClockModel& clock) {
  return tuned_estimate(p, d, [&](const KernelConfig& cfg) {
    return sparse_marlin_estimate(p, cfg, d, clock);
  });
}

}  // namespace marlin::core
