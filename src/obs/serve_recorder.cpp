#include "obs/serve_recorder.hpp"

#include <algorithm>
#include <string>

namespace marlin::obs {

namespace {

constexpr std::int64_t kClusterPid = 1;
constexpr std::int64_t kRouterTid = 1;
constexpr std::int64_t kAutoscalerTid = 2;
constexpr std::int64_t kRequestsPid = 2;
constexpr std::int64_t kReplicaPidBase = 10;
constexpr std::int64_t kEngineTid = 0;
constexpr std::int64_t kLifecycleTid = 1;

std::int64_t replica_pid(index_t replica) {
  return kReplicaPidBase + static_cast<std::int64_t>(replica);
}

}  // namespace

ServeRecorder::ServeRecorder(TraceRecorder* trace, MetricsRegistry* metrics)
    : trace_(trace), metrics_(metrics) {
  if (trace_ != nullptr) {
    trace_->set_process_name(kClusterPid, "cluster");
    trace_->set_thread_name(kClusterPid, kRouterTid, "router");
    trace_->set_thread_name(kClusterPid, kAutoscalerTid, "autoscaler");
    trace_->set_process_name(kRequestsPid, "requests");
  }
  if (metrics_ != nullptr) {
    MetricsRegistry& m = *metrics_;
    queue_depth_gauge_ = &m.gauge("marlin_queue_depth",
                                  "Queued requests at the last tick, summed "
                                  "over replicas sampled at that instant");
    kv_used_gauge_ = &m.gauge("marlin_kv_blocks_used_peak",
                              "Peak KV blocks simultaneously in use on any "
                              "replica");
    ttft_ms_ = &m.histogram(
        "marlin_ttft_ms", "Time to first token (milliseconds)",
        {25, 50, 100, 250, 500, 1000, 2500, 5000, 10000});
    tpot_ms_ = &m.histogram("marlin_tpot_ms",
                            "Time per output token (milliseconds)",
                            {1, 2.5, 5, 10, 25, 50, 100, 250});
    queue_depth_hist_ = &m.histogram(
        "marlin_queue_depth_per_tick", "Per-replica queue depth per tick",
        {0, 1, 2, 4, 8, 16, 32, 64, 128});
    decode_batch_ =
        &m.histogram("marlin_decode_batch", "Decode step batch size",
                     {1, 2, 4, 8, 16, 32, 64, 128});
  }
}

void ServeRecorder::name_replica(index_t replica) {
  if (trace_ == nullptr) return;
  trace_->set_process_name(replica_pid(replica),
                           "replica " + std::to_string(replica));
  trace_->set_thread_name(replica_pid(replica), kEngineTid, "engine");
  trace_->set_thread_name(replica_pid(replica), kLifecycleTid, "lifecycle");
}

double ServeRecorder::clamp_lifecycle(index_t replica, double t_s) {
  double& last = lifecycle_last_s_[replica];
  last = std::max(last, t_s);
  return last;
}

void ServeRecorder::on_replica_start(double t_s, index_t replica) {
  name_replica(replica);
  if (trace_ != nullptr) {
    trace_->instant(replica_pid(replica), kLifecycleTid, "start", "replica",
                    clamp_lifecycle(replica, t_s));
  }
}

void ServeRecorder::on_replica_drain(double t_s, index_t replica) {
  if (trace_ != nullptr) {
    trace_->instant(replica_pid(replica), kLifecycleTid, "drain", "replica",
                    clamp_lifecycle(replica, t_s));
  }
}

void ServeRecorder::on_replica_retire(double t_s, index_t replica) {
  if (trace_ != nullptr) {
    trace_->instant(replica_pid(replica), kLifecycleTid, "retire", "replica",
                    clamp_lifecycle(replica, t_s));
  }
}

void ServeRecorder::on_autoscaler_eval(double t_s, double queue_per_replica,
                                       index_t routable, const char* action) {
  if (trace_ != nullptr) {
    trace_->instant(kClusterPid, kAutoscalerTid, action, "autoscaler", t_s,
                    {{"queue_per_replica", queue_per_replica},
                     {"routable", static_cast<std::int64_t>(routable)}});
  }
}

void ServeRecorder::on_route(double t_s, index_t request, index_t tenant,
                             index_t replica, const char* placement) {
  if (trace_ != nullptr) {
    trace_->instant(kClusterPid, kRouterTid, placement, "router", t_s,
                    {{"request", static_cast<std::int64_t>(request)},
                     {"tenant", static_cast<std::int64_t>(tenant)},
                     {"replica", static_cast<std::int64_t>(replica)}});
  }
}

void ServeRecorder::on_request_queued(double t_s, index_t request,
                                      index_t tenant, index_t replica) {
  if (trace_ != nullptr) {
    trace_->begin(kRequestsPid, static_cast<std::int64_t>(request), "queued",
                  "request", t_s,
                  {{"tenant", static_cast<std::int64_t>(tenant)},
                   {"replica", static_cast<std::int64_t>(replica)}});
  }
}

void ServeRecorder::on_admitted(double t_s, index_t request, index_t replica,
                                index_t kv_blocks) {
  if (trace_ != nullptr) {
    const auto tid = static_cast<std::int64_t>(request);
    trace_->end(kRequestsPid, tid, "queued", "request", t_s);
    trace_->begin(kRequestsPid, tid, "prefill", "request", t_s,
                  {{"replica", static_cast<std::int64_t>(replica)},
                   {"kv_blocks", static_cast<std::int64_t>(kv_blocks)}});
  }
}

void ServeRecorder::on_prefix_cache_hit(double t_s, index_t request,
                                        index_t replica, index_t blocks,
                                        index_t tokens) {
  if (trace_ != nullptr) {
    trace_->instant(kRequestsPid, static_cast<std::int64_t>(request),
                    "prefix-cache-hit", "request", t_s,
                    {{"replica", static_cast<std::int64_t>(replica)},
                     {"blocks", static_cast<std::int64_t>(blocks)},
                     {"tokens", static_cast<std::int64_t>(tokens)}});
  }
}

void ServeRecorder::on_prefill_done(double t_s, index_t request,
                                    bool first_token, double ttft_ms) {
  if (trace_ != nullptr) {
    const auto tid = static_cast<std::int64_t>(request);
    trace_->end(kRequestsPid, tid, "prefill", "request", t_s);
    trace_->begin(kRequestsPid, tid, "decode", "request", t_s);
  }
  if (first_token && ttft_ms_ != nullptr) ttft_ms_->observe(ttft_ms);
}

void ServeRecorder::on_preempted(double t_s, index_t request, index_t replica,
                                 index_t blocks_freed) {
  if (trace_ != nullptr) {
    const auto tid = static_cast<std::int64_t>(request);
    trace_->end(kRequestsPid, tid, "decode", "request", t_s);
    trace_->instant(kRequestsPid, tid, "preempt", "request", t_s,
                    {{"replica", static_cast<std::int64_t>(replica)},
                     {"blocks_freed",
                      static_cast<std::int64_t>(blocks_freed)}});
    trace_->begin(kRequestsPid, tid, "queued", "request", t_s);
  }
}

void ServeRecorder::on_rejected(double t_s, index_t request) {
  if (trace_ != nullptr) {
    const auto tid = static_cast<std::int64_t>(request);
    trace_->end(kRequestsPid, tid, "queued", "request", t_s);
    trace_->instant(kRequestsPid, tid, "reject", "request", t_s);
  }
}

void ServeRecorder::on_shed(double t_s, index_t request) {
  if (trace_ != nullptr) {
    const auto tid = static_cast<std::int64_t>(request);
    trace_->end(kRequestsPid, tid, "queued", "request", t_s);
    trace_->instant(kRequestsPid, tid, "shed", "request", t_s);
  }
}

void ServeRecorder::on_finished(double t_s, index_t request,
                                index_t output_tokens, double ttft_ms,
                                double tpot_ms) {
  if (trace_ != nullptr) {
    const auto tid = static_cast<std::int64_t>(request);
    trace_->end(kRequestsPid, tid, "decode", "request", t_s);
    trace_->instant(kRequestsPid, tid, "finish", "request", t_s,
                    {{"output_tokens",
                      static_cast<std::int64_t>(output_tokens)},
                     {"ttft_ms", ttft_ms},
                     {"tpot_ms", tpot_ms}});
  }
  if (tpot_ms_ != nullptr) tpot_ms_->observe(tpot_ms);
}

void ServeRecorder::on_slo_ttft_violation(double t_s, index_t request) {
  if (trace_ != nullptr) {
    trace_->instant(kRequestsPid, static_cast<std::int64_t>(request),
                    "slo-ttft-violation", "slo", t_s);
  }
}

void ServeRecorder::on_slo_tpot_violation(double t_s, index_t request) {
  if (trace_ != nullptr) {
    trace_->instant(kRequestsPid, static_cast<std::int64_t>(request),
                    "slo-tpot-violation", "slo", t_s);
  }
}

void ServeRecorder::on_kv_transfer(double t0_s, double t1_s, index_t request,
                                   index_t src, index_t dst, double bytes,
                                   index_t tokens) {
  if (trace_ != nullptr) {
    trace_->complete(kRequestsPid, static_cast<std::int64_t>(request),
                     "kv-transfer", "request", t0_s, t1_s,
                     {{"src", static_cast<std::int64_t>(src)},
                      {"dst", static_cast<std::int64_t>(dst)},
                      {"bytes", bytes},
                      {"tokens", static_cast<std::int64_t>(tokens)}});
  }
}

void ServeRecorder::on_prefill_step(double t0_s, double t1_s, index_t replica,
                                    index_t batch, index_t tokens_per_seq) {
  name_replica(replica);
  if (trace_ != nullptr) {
    trace_->complete(replica_pid(replica), kEngineTid, "prefill", "engine",
                     t0_s, t1_s,
                     {{"batch", static_cast<std::int64_t>(batch)},
                      {"tokens_per_seq",
                       static_cast<std::int64_t>(tokens_per_seq)}});
  }
}

void ServeRecorder::on_decode_step(double t0_s, double t1_s, index_t replica,
                                   index_t batch, double avg_context) {
  name_replica(replica);
  if (trace_ != nullptr) {
    trace_->complete(replica_pid(replica), kEngineTid, "decode", "engine",
                     t0_s, t1_s,
                     {{"batch", static_cast<std::int64_t>(batch)},
                      {"avg_context", avg_context}});
  }
  if (decode_batch_ != nullptr) {
    decode_batch_->observe(static_cast<double>(batch));
  }
}

void ServeRecorder::on_spec_round(double t0_s, double t1_s, index_t replica,
                                  index_t batch, index_t draft_tokens) {
  name_replica(replica);
  if (trace_ != nullptr) {
    trace_->complete(replica_pid(replica), kEngineTid, "spec-round", "engine",
                     t0_s, t1_s,
                     {{"batch", static_cast<std::int64_t>(batch)},
                      {"draft_tokens",
                       static_cast<std::int64_t>(draft_tokens)}});
  }
  if (decode_batch_ != nullptr) {
    decode_batch_->observe(static_cast<double>(batch));
  }
}

void ServeRecorder::on_decode_split(double t_s, index_t replica,
                                    double compute_s, double comm_s,
                                    double bubble_fraction) {
  if (trace_ != nullptr) {
    trace_->counter(replica_pid(replica), kEngineTid, "decode_split_ms", t_s,
                    {{"compute", compute_s * 1e3}, {"comm", comm_s * 1e3}});
    trace_->counter(replica_pid(replica), kEngineTid, "bubble_fraction", t_s,
                    {{"bubble", bubble_fraction}});
  }
}

void ServeRecorder::on_tick(double t_s, index_t replica, index_t queued,
                            index_t running, index_t kv_used,
                            index_t kv_total) {
  name_replica(replica);
  if (trace_ != nullptr) {
    trace_->counter(replica_pid(replica), kEngineTid, "occupancy", t_s,
                    {{"queued", static_cast<std::int64_t>(queued)},
                     {"running", static_cast<std::int64_t>(running)}});
    trace_->counter(replica_pid(replica), kEngineTid, "kv_blocks", t_s,
                    {{"used", static_cast<std::int64_t>(kv_used)},
                     {"total", static_cast<std::int64_t>(kv_total)}});
  }
  if (metrics_ != nullptr) {
    queue_depth_gauge_->set(static_cast<double>(queued));
    queue_depth_hist_->observe(static_cast<double>(queued));
    kv_used_gauge_->set_max(static_cast<double>(kv_used));
  }
}

}  // namespace marlin::obs
