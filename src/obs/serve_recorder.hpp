#pragma once
// Serving-stack observability facade: the single place the event taxonomy
// of the simulator lives. The scheduler, block manager, router, replicas
// and event loop call the typed `on_*` hooks below; the recorder turns
// each hook into Chrome-trace events (TraceRecorder) and feeds the
// metrics registry (MetricsRegistry) only what the run's stats cannot
// hold: the latency / queue-depth / decode-batch histograms and the
// per-tick gauges. Run totals (every `marlin_*_total` counter and the
// run-end gauges) are not counted here — `cluster::EventLoop::run`
// writes them into the same registry once, from ClusterStats, when the
// run ends. Either sink may be null, and a null ServeRecorder pointer at
// the instrumentation sites is the recording-off fast path (one pointer
// test, no allocation, no work — the steady-state decode tick stays
// allocation-free).
//
// Perfetto track layout (process = pid, thread = tid):
//
//   pid 1  "cluster"      tid 1 "router"     — placement instants
//                         tid 2 "autoscaler" — evaluation instants
//   pid 2  "requests"     tid = request id   — lifecycle spans
//                         queued → prefill → decode (B/E pairs), with
//                         shed / reject / preempt / SLO-violation
//                         instants; a preemption closes `decode` and
//                         re-opens `queued`
//   pid 10+r "replica r"  tid 0 "engine"     — prefill / decode /
//                         spec-round steps (X), plus counter tracks
//                         (queue depth, running, KV blocks, the
//                         parallel decode compute/comm/bubble split)
//                         tid 1 "lifecycle"  — start / drain / retire
//
// Timestamps are simulated seconds; every hook is called from the
// strictly serial EventLoop in deterministic order, which is what makes
// the serialized trace and exposition byte-identical across `--threads`.

#include <cstdint>
#include <map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/matrix.hpp"

namespace marlin::obs {

class ServeRecorder {
 public:
  /// Either sink may be null; both borrowed, must outlive the recorder.
  ServeRecorder(TraceRecorder* trace, MetricsRegistry* metrics);

  [[nodiscard]] TraceRecorder* trace() const { return trace_; }
  [[nodiscard]] MetricsRegistry* metrics() const { return metrics_; }

  // ---- cluster: router / autoscaler / replica lifecycle ----------------
  void on_replica_start(double t_s, index_t replica);
  void on_replica_drain(double t_s, index_t replica);
  void on_replica_retire(double t_s, index_t replica);
  /// One autoscaler evaluation; `action` is "hold" / "scale-up" /
  /// "scale-down".
  void on_autoscaler_eval(double t_s, double queue_per_replica,
                          index_t routable, const char* action);
  /// Router placed `request` on `replica` under `placement`.
  void on_route(double t_s, index_t request, index_t tenant, index_t replica,
                const char* placement);

  // ---- request lifecycle (scheduler admission / step) ------------------
  void on_request_queued(double t_s, index_t request, index_t tenant,
                         index_t replica);
  void on_admitted(double t_s, index_t request, index_t replica,
                   index_t kv_blocks);
  /// Admission found `blocks` of the request's prompt already resident in
  /// the replica's prefix cache, skipping `tokens` of prefill work.
  void on_prefix_cache_hit(double t_s, index_t request, index_t replica,
                           index_t blocks, index_t tokens);
  /// Prefill completed; `first_token` marks the first completion (a
  /// re-prefill after preemption recomputes, TTFT already decided).
  void on_prefill_done(double t_s, index_t request, bool first_token,
                       double ttft_ms);
  void on_preempted(double t_s, index_t request, index_t replica,
                    index_t blocks_freed);
  void on_rejected(double t_s, index_t request);
  void on_shed(double t_s, index_t request);
  void on_finished(double t_s, index_t request, index_t output_tokens,
                   double ttft_ms, double tpot_ms);
  void on_slo_ttft_violation(double t_s, index_t request);
  void on_slo_tpot_violation(double t_s, index_t request);
  /// Disaggregated prefill -> decode KV handoff: `tokens` of prompt KV
  /// (`bytes` on the wire) moved from replica `src` to `dst` over
  /// [t0, t1]. Rendered as a span on the request's lifecycle row.
  void on_kv_transfer(double t0_s, double t1_s, index_t request, index_t src,
                      index_t dst, double bytes, index_t tokens);

  // ---- engine steps ----------------------------------------------------
  void on_prefill_step(double t0_s, double t1_s, index_t replica,
                       index_t batch, index_t tokens_per_seq);
  void on_decode_step(double t0_s, double t1_s, index_t replica,
                      index_t batch, double avg_context);
  void on_spec_round(double t0_s, double t1_s, index_t replica, index_t batch,
                     index_t draft_tokens);
  /// Parallel decode pricing split (ParallelEngine only): compute vs
  /// interconnect seconds of the step, plus the pipeline bubble fraction
  /// — rendered as counter tracks under the replica's engine row.
  void on_decode_split(double t_s, index_t replica, double compute_s,
                       double comm_s, double bubble_fraction);

  /// Per-tick replica occupancy sample (queue depth, flights, KV blocks).
  void on_tick(double t_s, index_t replica, index_t queued, index_t running,
               index_t kv_used, index_t kv_total);

 private:
  /// Ensures "replica r" process/thread rows are named (idempotent).
  void name_replica(index_t replica);
  /// Lifecycle instants live on one per-replica track but are stamped by
  /// different clocks (autoscaler evaluation time vs the replica's own
  /// clock); the clamp keeps that track monotone.
  double clamp_lifecycle(index_t replica, double t_s);

  TraceRecorder* trace_;
  MetricsRegistry* metrics_;
  std::map<index_t, double> lifecycle_last_s_;

  // Instruments resolved once in the constructor (null when `metrics_`
  // is null).
  Gauge* queue_depth_gauge_ = nullptr;
  Gauge* kv_used_gauge_ = nullptr;
  Histogram* ttft_ms_ = nullptr;
  Histogram* tpot_ms_ = nullptr;
  Histogram* queue_depth_hist_ = nullptr;
  Histogram* decode_batch_ = nullptr;
};

}  // namespace marlin::obs
