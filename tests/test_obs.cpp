// Observability layer: trace-recorder span protocol and byte-determinism,
// metrics registry semantics (histogram `le` buckets, kind safety,
// sorted exposition), the ServeRecorder taxonomy over a full cluster
// simulation (balanced spans, per-track monotone timestamps, metrics
// cross-checked against SchedStats), and the recording-off fast path
// (identical results, zero allocations in the steady-state decode tick).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "counting_allocator.hpp"
#include "obs/metrics.hpp"
#include "obs/serve_recorder.hpp"
#include "obs/trace.hpp"
#include "serve/server_sim.hpp"

namespace marlin::obs {
namespace {

// ------------------------------------------------------- value formatting

TEST(Formatting, FixedTrimmedDropsTrailingZerosAndDot) {
  EXPECT_EQ(format_fixed_trimmed(12.5, 3), "12.5");
  EXPECT_EQ(format_fixed_trimmed(3.0, 3), "3");
  EXPECT_EQ(format_fixed_trimmed(0.125, 6), "0.125");
  EXPECT_EQ(format_fixed_trimmed(-2.50, 2), "-2.5");
  EXPECT_EQ(format_fixed_trimmed(0.0, 3), "0");
  // A negative value that rounds to zero must not print "-0".
  EXPECT_EQ(format_fixed_trimmed(-1e-9, 3), "0");
}

TEST(Formatting, MetricValueIntegralWithoutFraction) {
  EXPECT_EQ(format_metric_value(42.0), "42");
  EXPECT_EQ(format_metric_value(0.0), "0");
  EXPECT_EQ(format_metric_value(0.125), "0.125");
  EXPECT_EQ(format_metric_value(-3.0), "-3");
}

// --------------------------------------------------------- trace recorder

TEST(TraceRecorder, EventsKeepRecordingOrderAndMetadataIsExcluded) {
  TraceRecorder t;
  t.set_process_name(1, "cluster");
  t.begin(1, 1, "span", "cat", 0.001);
  t.instant(1, 1, "mark", "cat", 0.002);
  t.end(1, 1, "span", "cat", 0.003);
  ASSERT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.events()[0].ph, TracePhase::kBegin);
  EXPECT_EQ(t.events()[1].ph, TracePhase::kInstant);
  EXPECT_EQ(t.events()[2].ph, TracePhase::kEnd);
  // Seconds are stored as microseconds.
  EXPECT_DOUBLE_EQ(t.events()[0].ts_us, 1000.0);
}

TEST(TraceRecorder, JsonPutsSortedMetadataFirstAndIsDeterministic) {
  const auto record = [] {
    TraceRecorder t;
    // Register names late and out of order; serialization must not care.
    t.complete(7, 2, "step", "engine", 0.0, 0.5,
               {TraceArg{"batch", std::int64_t{8}}});
    t.counter(7, 2, "occupancy", 0.5,
              {TraceArg{"queued", std::int64_t{3}}});
    t.instant(1, 1, "route", "router", 0.25, {TraceArg{"policy",
                                                       std::string("rr")}});
    t.set_thread_name(7, 2, "engine");
    t.set_process_name(7, "replica 7");
    t.set_process_name(1, "cluster");
    return t.to_json();
  };
  const std::string json = record();
  EXPECT_EQ(json, record());  // repeat runs are byte-identical
  // Metadata precedes every timeline event, sorted by (pid, tid).
  const auto cluster_meta = json.find("\"name\":\"cluster\"");
  const auto replica_meta = json.find("\"name\":\"replica 7\"");
  const auto first_event = json.find("\"ph\":\"X\"");
  ASSERT_NE(cluster_meta, std::string::npos);
  ASSERT_NE(replica_meta, std::string::npos);
  ASSERT_NE(first_event, std::string::npos);
  EXPECT_LT(cluster_meta, replica_meta);
  EXPECT_LT(replica_meta, first_event);
  // Fixed float formatting: 0.25 s -> 250000 us prints without a fraction.
  EXPECT_NE(json.find("\"ts\":250000"), std::string::npos);
  // Instants carry thread scope so Perfetto draws them on their track.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(TraceRecorder, JsonEscapesStrings) {
  TraceRecorder t;
  t.instant(1, 1, "quote\"back\\slash", "c", 0.0,
            {TraceArg{"msg", std::string("line\nbreak")}});
  const std::string json = t.to_json();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

// ------------------------------------------------------- metrics registry

TEST(Metrics, HistogramBucketEdgesUseLessOrEqualSemantics) {
  Histogram h({1.0, 2.5, 10.0});
  h.observe(1.0);   // lands in le="1" (inclusive upper bound)
  h.observe(1.001); // le="2.5"
  h.observe(2.5);   // le="2.5"
  h.observe(10.0);  // le="10"
  h.observe(10.5);  // +Inf
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.cumulative_count(0), 1u);
  EXPECT_EQ(h.cumulative_count(1), 3u);
  EXPECT_EQ(h.cumulative_count(2), 4u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 25.001);
}

TEST(Metrics, HistogramRejectsEmptyOrUnsortedBounds) {
  EXPECT_THROW(Histogram({}), std::exception);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::exception);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::exception);
}

TEST(Metrics, RegistryReturnsStableInstrumentsAndChecksKinds) {
  MetricsRegistry reg;
  Counter& c = reg.counter("marlin_test_total", "help");
  c.inc();
  EXPECT_EQ(&reg.counter("marlin_test_total", "help"), &c);
  EXPECT_DOUBLE_EQ(reg.counter("marlin_test_total", "help").value(), 1.0);
  // One name cannot be two kinds, and histogram buckets must agree.
  EXPECT_THROW(reg.gauge("marlin_test_total", "help"), std::exception);
  reg.histogram("marlin_h", "help", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("marlin_h", "help", {1.0, 3.0}),
               std::exception);
}

TEST(Metrics, ExpositionSortsFamiliesAndSeriesDeterministically) {
  const auto render = [] {
    MetricsRegistry reg;
    reg.gauge("marlin_z_gauge", "last").set(2.5);
    reg.counter("marlin_a_total", "first", "tenant=\"1\"").inc(3);
    reg.counter("marlin_a_total", "first", "tenant=\"0\"").inc(2);
    reg.histogram("marlin_m_ms", "mid", {1.0, 5.0}).observe(4.0);
    return reg.expose();
  };
  const std::string text = render();
  EXPECT_EQ(text, render());
  // Families in name order, labelled series in label order.
  const auto a0 = text.find("marlin_a_total{tenant=\"0\"} 2");
  const auto a1 = text.find("marlin_a_total{tenant=\"1\"} 3");
  const auto m = text.find("# TYPE marlin_m_ms histogram");
  const auto z = text.find("marlin_z_gauge 2.5");
  ASSERT_NE(a0, std::string::npos);
  ASSERT_NE(a1, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a0, a1);
  EXPECT_LT(a1, m);
  EXPECT_LT(m, z);
  EXPECT_NE(text.find("marlin_m_ms_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("marlin_m_ms_bucket{le=\"5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("marlin_m_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("marlin_m_ms_sum 4"), std::string::npos);
  EXPECT_NE(text.find("marlin_m_ms_count 1"), std::string::npos);
}

// ------------------------------------------- full-simulation cross-checks

const serve::Engine& test_engine() {
  static const serve::Engine engine = [] {
    serve::EngineConfig cfg;
    cfg.model = serve::llama2_7b();
    cfg.gpu = gpusim::rtxa6000();
    cfg.format = serve::WeightFormat::kMarlin;
    return serve::Engine(cfg);
  }();
  return engine;
}

/// A config that exercises every event family: tight KV (preemptions),
/// a TTFT deadline (sheds + violations), speculation (spec rounds),
/// tenants (per-tenant counters) and the autoscaler (replica lifecycle).
serve::ServingConfig stress_config() {
  serve::ServingConfig cfg;
  cfg.qps = 20.0;
  cfg.duration_s = 12.0;
  cfg.seed = 42;
  cfg.kv_blocks = 64;
  cfg.shape = serve::sched::WorkloadShape::kBursty;
  cfg.slo.ttft_deadline_ms = 400.0;
  cfg.slo.tpot_deadline_ms = 15.0;
  cfg.speculation.depth = 4;
  cfg.speculation.acceptance = 0.8;
  for (index_t t = 0; t < 2; ++t) {
    serve::sched::TenantSpec spec;
    spec.id = t;
    spec.name = "t" + std::to_string(t);
    cfg.tenants.push_back(spec);
  }
  cfg.cluster.autoscaler.enabled = true;
  cfg.cluster.autoscaler.min_replicas = 1;
  cfg.cluster.autoscaler.max_replicas = 3;
  cfg.cluster.autoscaler.interval_s = 2.0;
  cfg.cluster.autoscaler.scale_up_queue_per_replica = 4.0;
  cfg.cluster.autoscaler.scale_down_queue_per_replica = 0.5;
  return cfg;
}

struct Observation {
  std::string trace_json;
  std::string metrics_text;
  serve::cluster::ClusterStats stats;
  std::size_t event_count = 0;
};

Observation observe() {
  TraceRecorder trace;
  MetricsRegistry metrics;
  ServeRecorder rec(&trace, &metrics);
  serve::ServingConfig cfg = stress_config();
  cfg.recorder = &rec;
  Observation out;
  out.stats = serve::simulate_cluster_detailed(test_engine(), cfg);
  out.trace_json = trace.to_json();
  out.metrics_text = metrics.expose();
  out.event_count = trace.events().size();
  return out;
}

/// The value of an exposed series, found by exact line prefix
/// (`name value` or `name{labels} value`); -1 when absent.
double metric_value(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  const std::string prefix = series + " ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size()));
    }
  }
  return -1.0;
}

TEST(ServeRecorderSim, ByteIdenticalAcrossRepeatRuns) {
  const Observation first = observe();
  EXPECT_GT(first.event_count, 100u);
  const Observation again = observe();
  EXPECT_EQ(first.trace_json, again.trace_json);
  EXPECT_EQ(first.metrics_text, again.metrics_text);
}

TEST(ServeRecorderSim, RecorderDoesNotChangeSchedulingResults) {
  const serve::ServingConfig plain = stress_config();
  const auto base = serve::simulate_cluster_detailed(test_engine(), plain);
  const Observation obs = observe();
  EXPECT_EQ(base.sched.metrics.completed, obs.stats.sched.metrics.completed);
  EXPECT_EQ(base.sched.metrics.mean_tpot_ms,
            obs.stats.sched.metrics.mean_tpot_ms);
  EXPECT_EQ(base.sched.preemptions, obs.stats.sched.preemptions);
  EXPECT_EQ(base.sched.shed, obs.stats.sched.shed);
  EXPECT_EQ(base.sched.sim_end_s, obs.stats.sched.sim_end_s);
}

TEST(ServeRecorderSim, SpansBalanceAndTimestampsAreMonotonePerTrack) {
  TraceRecorder trace;
  ServeRecorder rec(&trace, nullptr);
  serve::ServingConfig cfg = stress_config();
  cfg.recorder = &rec;
  (void)serve::simulate_cluster_detailed(test_engine(), cfg);

  std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts;
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::string>>
      open;
  for (const TraceEvent& ev : trace.events()) {
    const auto track = std::make_pair(ev.pid, ev.tid);
    const auto [it, fresh] = last_ts.try_emplace(track, ev.ts_us);
    if (!fresh) {
      EXPECT_GE(ev.ts_us, it->second)
          << ev.name << " goes backwards on track (" << ev.pid << ", "
          << ev.tid << ")";
      it->second = ev.ts_us;
    }
    if (ev.ph == TracePhase::kBegin) {
      open[track].push_back(ev.name);
    } else if (ev.ph == TracePhase::kEnd) {
      auto& stack = open[track];
      ASSERT_FALSE(stack.empty())
          << "E `" << ev.name << "` without open B on track (" << ev.pid
          << ", " << ev.tid << ")";
      EXPECT_EQ(stack.back(), ev.name);
      stack.pop_back();
    } else if (ev.ph == TracePhase::kComplete) {
      EXPECT_GE(ev.dur_us, 0.0);
    }
  }
  for (const auto& [track, stack] : open) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " span(s) left open on track (" << track.first
        << ", " << track.second << ")";
  }
}

TEST(ServeRecorderSim, MetricsAgreeWithSchedStats) {
  const Observation obs = observe();
  const auto& st = obs.stats.sched;
  const auto& text = obs.metrics_text;
  // The stress config must actually exercise the interesting paths.
  EXPECT_GT(st.preemptions, 0);
  EXPECT_GT(st.shed, 0);
  EXPECT_GT(st.spec_rounds, 0);
  EXPECT_EQ(metric_value(text, "marlin_preemptions_total"),
            static_cast<double>(st.preemptions));
  EXPECT_EQ(metric_value(text, "marlin_requests_shed_total"),
            static_cast<double>(st.shed));
  EXPECT_EQ(metric_value(text, "marlin_requests_completed_total"),
            static_cast<double>(st.metrics.completed));
  EXPECT_EQ(metric_value(text, "marlin_prefill_steps_total"),
            static_cast<double>(st.prefill_steps));
  EXPECT_EQ(metric_value(text, "marlin_decode_steps_total"),
            static_cast<double>(st.decode_steps));
  EXPECT_EQ(metric_value(text, "marlin_spec_rounds_total"),
            static_cast<double>(st.spec_rounds));
  EXPECT_EQ(metric_value(text, "marlin_spec_draft_tokens_total"),
            static_cast<double>(st.spec_draft_tokens));
  EXPECT_EQ(metric_value(text, "marlin_spec_committed_tokens_total"),
            static_cast<double>(st.spec_committed_tokens));
  EXPECT_EQ(metric_value(text, "marlin_slo_ttft_violations_total"),
            static_cast<double>(st.slo_ttft_violations));
  EXPECT_EQ(metric_value(text, "marlin_slo_tpot_violations_total"),
            static_cast<double>(st.slo_tpot_violations));
  EXPECT_EQ(metric_value(text, "marlin_kv_blocks_peak"),
            static_cast<double>(st.peak_kv_blocks));
  EXPECT_EQ(metric_value(text, "marlin_replicas_peak"),
            static_cast<double>(obs.stats.peak_replicas));
  EXPECT_EQ(metric_value(text, "marlin_ttft_ms_count"),
            static_cast<double>(st.metrics.completed));
  // All KV blocks handed out came back (no leaks), and every routed
  // request terminated one way or another.
  EXPECT_EQ(metric_value(text, "marlin_kv_blocks_allocated_total"),
            metric_value(text, "marlin_kv_blocks_freed_total"));
  EXPECT_EQ(metric_value(text, "marlin_requests_routed_total"),
            metric_value(text, "marlin_requests_completed_total") +
                metric_value(text, "marlin_requests_rejected_total") +
                metric_value(text, "marlin_requests_shed_total"));
  // Per-tenant service: the two tenants' token counters sum to the total
  // generated output.
  index_t generated = 0;
  for (const auto& r : st.requests) generated += r.generated;
  EXPECT_EQ(metric_value(text,
                         "marlin_tenant_tokens_generated_total{"
                         "tenant=\"0\"}") +
                metric_value(text,
                             "marlin_tenant_tokens_generated_total{"
                             "tenant=\"1\"}"),
            static_cast<double>(generated));
}

// ------------------------------------------------- recording-off fast path

// A steady-state decode tick (no arrivals, no admissions, every running
// sequence growing within its reserved block vector) performs zero heap
// allocations with the observer hooks compiled in but off.
TEST(HotPath, SteadyStateDecodeTickDoesNotAllocate) {
  serve::sched::SchedulerConfig scfg;
  scfg.policy = serve::sched::SchedPolicy::kFcfs;
  scfg.max_batch = 8;
  scfg.blocks.block_size = 16;
  scfg.blocks.num_blocks = 256;
  const serve::sched::Scheduler sched(test_engine(), scfg);

  std::vector<serve::sched::Request> requests;
  for (index_t i = 0; i < 8; ++i) requests.emplace_back(i, 0.0, 64, 32);
  // Warm the step table for every (batch, context-bucket) pair the run can
  // touch, so no tick inserts into it.
  for (index_t batch = 1; batch <= scfg.max_batch; ++batch) {
    for (index_t b = 0; b < 4; ++b) {
      (void)test_engine().decode_step_seconds(
          batch, static_cast<double>(b) * 64.0 + 1.0);
    }
  }

  serve::sched::ReplicaState s = sched.make_replica_state();
  ASSERT_EQ(s.obs, nullptr);  // recording defaults off
  for (std::size_t i = 0; i < requests.size(); ++i) s.queue.push_back(i);
  // Warm-up ticks: one admission (grows the scratch and reserves each
  // request's lifetime block vector), the prefill round, and two decode
  // rounds to settle every lazily-grown container.
  while (s.decode_steps < 2) {
    ASSERT_TRUE(s.busy());
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  ASSERT_EQ(s.running.size(), requests.size());

  const std::uint64_t before = alloc_count();
  for (int tick = 0; tick < 5; ++tick) {
    sched.admit(s, requests);  // empty queue: must also be free of allocs
    sched.step(s, requests);
  }
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_EQ(allocs, 0u)
      << allocs << " heap allocations across 5 steady-state decode ticks";
  EXPECT_EQ(s.decode_steps, 7);
  EXPECT_EQ(s.running.size(), requests.size());  // still mid-decode

  // Drain to completion: every block returns to the manager.
  while (s.busy()) {
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  EXPECT_EQ(s.bm.used_blocks(), 0);
}

TEST(HotPath, SteadyStateDecodeTickWithNullObserverDoesNotAllocate) {
  serve::sched::SchedulerConfig scfg;
  scfg.policy = serve::sched::SchedPolicy::kFcfs;
  scfg.max_batch = 8;
  scfg.blocks.block_size = 16;
  scfg.blocks.num_blocks = 256;
  const serve::sched::Scheduler sched(test_engine(), scfg);

  std::vector<serve::sched::Request> requests;
  for (index_t i = 0; i < 8; ++i) requests.emplace_back(i, 0.0, 64, 32);
  for (index_t batch = 1; batch <= scfg.max_batch; ++batch) {
    for (index_t b = 0; b < 4; ++b) {
      (void)test_engine().decode_step_seconds(
          batch, static_cast<double>(b) * 64.0 + 1.0);
    }
  }

  serve::sched::ReplicaState s = sched.make_replica_state();
  ASSERT_EQ(s.obs, nullptr);  // recording defaults off
  for (std::size_t i = 0; i < requests.size(); ++i) s.queue.push_back(i);
  while (s.decode_steps < 2) {
    ASSERT_TRUE(s.busy());
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  ASSERT_EQ(s.running.size(), requests.size());

  const std::uint64_t before = alloc_count();
  for (int tick = 0; tick < 5; ++tick) {
    sched.admit(s, requests);
    sched.step(s, requests);
  }
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_EQ(allocs, 0u)
      << allocs << " heap allocations across 5 steady-state decode ticks "
      << "with the observer hooks compiled in but off";
}

}  // namespace
}  // namespace marlin::obs
