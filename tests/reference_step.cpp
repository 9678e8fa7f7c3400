#include "reference_step.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace marlin::serve::sched::reference {

namespace {

double ttft_ms(const Request& r) { return (r.first_token_s - r.arrival_s) * 1e3; }
double tpot_ms(const Request& r) {
  return (r.finish_s - r.first_token_s) /
         static_cast<double>(std::max<index_t>(1, r.output_tokens - 1)) * 1e3;
}

void set_prefilled(ReplicaState& s, Request& r, index_t prefilled) {
  s.outstanding_tokens -= r.owed_tokens();
  r.prefilled = prefilled;
  s.outstanding_tokens += r.owed_tokens();
}

void release_kv(ReplicaState& s, Request& r) {
  s.bm.release(r.blocks, r.tenant_id);
  for (SequenceBlocks& f : r.forks) s.bm.release(f, r.tenant_id);
  r.forks.clear();
}

/// One tick's step against `s`, with the scheduler's configuration.
class Stepper {
 public:
  Stepper(const Scheduler& scheduler, ReplicaState& s,
          std::vector<Request>& requests)
      : cfg_(scheduler.config()), model_(scheduler.model()),
        draft_(scheduler.draft_model()),
        wfq_(cfg_.policy == SchedPolicy::kWeightedFair), s_(s),
        requests_(requests) {
    if (cfg_.speculation.enabled()) {
      spec_expected_ = cfg_.speculation.expected_tokens_per_round();
    }
  }

  void prefill_round();
  void decode_round();

 private:
  // Every policy counts each tenant's served tokens as an integer sum;
  // the WFQ key divides it by the weight once (reference_admission.cpp).
  void add_service(index_t tenant, index_t tokens) {
    s_.service_of(tenant).tokens += tokens;
  }

  index_t commit_tokens(const Request& r) const {
    if (!cfg_.speculation.enabled()) return 1;
    const index_t remaining = r.output_tokens - r.generated;
    const auto c =
        static_cast<index_t>(std::floor(r.spec_credit + spec_expected_));
    return std::clamp<index_t>(c, 1, std::max<index_t>(1, remaining));
  }

  // Under WFQ, the last-admitted request of the most over-quota tenant;
  // the last-admitted request otherwise, or when nobody is over quota.
  std::size_t choose_victim_pos() const {
    if (wfq_) {
      std::size_t best = s_.running.size();
      index_t worst_over = 0;
      for (std::size_t i = s_.running.size(); i-- > 0;) {
        const index_t over =
            s_.bm.over_quota_blocks(requests_[s_.running[i]].tenant_id);
        if (over > worst_over) {
          worst_over = over;
          best = i;
        }
      }
      if (best < s_.running.size()) return best;
    }
    return s_.running.size() - 1;
  }

  void finish(Request& r) {
    r.finish_s = s_.now;
    if (cfg_.slo.tpot_deadline_ms > 0 &&
        tpot_ms(r) > cfg_.slo.tpot_deadline_ms) {
      ++s_.slo_tpot_violations;
    }
    r.set_state(RequestState::kFinished);
    s_.outstanding_tokens -= r.owed_tokens();
    release_kv(s_, r);
  }

  const SchedulerConfig& cfg_;
  const StepModel& model_;
  const StepModel* draft_;
  bool wfq_;
  double spec_expected_ = 1.0;
  ReplicaState& s_;
  std::vector<Request>& requests_;
};

void Stepper::prefill_round() {
  const auto chunk_of = [&](const Request& r) {
    index_t chunk = r.prefill_target() - r.prefilled;
    if (cfg_.prefill_chunk_tokens > 0) {
      chunk = std::min(chunk, cfg_.prefill_chunk_tokens);
    }
    return chunk;
  };
  double total_new = 0.0;
  for (const std::size_t id : s_.prefilling) {
    total_new += static_cast<double>(chunk_of(requests_[id]));
  }
  const auto count = static_cast<index_t>(s_.prefilling.size());
  const auto tokens_per_seq = static_cast<index_t>(
      std::llround(total_new / static_cast<double>(count)));
  s_.now +=
      model_.prefill_seconds(count, std::max<index_t>(1, tokens_per_seq));
  ++s_.prefill_steps;

  std::vector<std::size_t> still_prefilling;
  for (const std::size_t id : s_.prefilling) {
    Request& r = requests_[id];
    const index_t chunk = chunk_of(r);
    set_prefilled(s_, r, r.prefilled + chunk);
    add_service(r.tenant_id, chunk);
    if (r.prefilled < r.prefill_target()) {
      still_prefilling.push_back(id);
      continue;
    }
    r.set_state(RequestState::kRunning);
    s_.bm.publish(r.blocks);
    if (r.first_token_s < 0) {
      r.first_token_s = s_.now;
      if (cfg_.slo.ttft_deadline_ms > 0 &&
          ttft_ms(r) > cfg_.slo.ttft_deadline_ms) {
        ++s_.slo_ttft_violations;
      }
    }
    r.generated = std::max<index_t>(r.generated, 1);
    if (r.generated >= r.output_tokens) {
      finish(r);
      continue;
    }
    if (r.num_sequences > 1 && r.forks.empty()) {
      const index_t per_seq = s_.bm.blocks_for_tokens(r.max_kv_tokens());
      for (index_t k = 1; k < r.num_sequences; ++k) {
        r.forks.push_back(s_.bm.fork(r.blocks, r.tenant_id, per_seq));
      }
    }
    s_.running.push_back(id);
  }
  s_.prefilling = still_prefilling;
}

void Stepper::decode_round() {
  const SpeculationConfig& spec = cfg_.speculation;
  // Growth, with the batch and context summed over the survivors; a
  // victim already summed is taken back out.
  index_t batch = 0;
  index_t ctx_sum = 0;
  for (std::size_t i = 0; i < s_.running.size();) {
    Request& r = requests_[s_.running[i]];
    const index_t target =
        r.prompt_tokens + r.generated + commit_tokens(r) - 1;
    const index_t covered = r.prompt_tokens + r.generated - 1;
    bool preempted_self = false;
    for (std::size_t h = 0; h <= r.forks.size() && !preempted_self; ++h) {
      SequenceBlocks& seq = h == 0 ? r.blocks : r.forks[h - 1];
      while (!s_.bm.grow_to(seq, target, covered, r.tenant_id)) {
        const std::size_t victim = choose_victim_pos();
        preempted_self = victim == i;
        if (victim < i) {
          const Request& v = requests_[s_.running[victim]];
          batch -= v.num_sequences;
          ctx_sum -= v.num_sequences * (v.prompt_tokens + v.generated);
        }
        preempt_running_at(s_, requests_, victim);
        if (preempted_self) break;
        if (victim < i) --i;
      }
    }
    if (!preempted_self) {
      batch += r.num_sequences;
      ctx_sum += r.num_sequences * (r.prompt_tokens + r.generated);
      ++i;
    }
  }
  if (s_.running.empty()) return;

  const double avg_ctx =
      static_cast<double>(ctx_sum) / static_cast<double>(batch);
  double t_step;
  if (spec.enabled()) {
    t_step = static_cast<double>(spec.depth) *
                 draft_->decode_step_seconds(batch, avg_ctx) +
             model_.verify_step_seconds(batch, avg_ctx, spec.depth);
    ++s_.spec_rounds;
    s_.spec_draft_tokens += spec.depth * batch;
  } else {
    t_step = model_.decode_step_seconds(batch, avg_ctx);
  }
  s_.now += t_step;
  s_.batch_weighted += static_cast<double>(batch) * t_step;
  s_.decode_time_total += t_step;
  ++s_.decode_steps;

  // Commit every running request's tokens; finishers leave the batch.
  std::vector<std::size_t> still_running;
  for (const std::size_t id : s_.running) {
    Request& r = requests_[id];
    const index_t committed = commit_tokens(r);
    if (spec.enabled()) {
      r.spec_credit =
          r.spec_credit + spec_expected_ - static_cast<double>(committed);
      s_.spec_committed_tokens += committed * r.num_sequences;
    }
    r.generated += committed;
    add_service(r.tenant_id, committed * r.num_sequences);
    if (r.generated >= r.output_tokens) {
      finish(r);
    } else {
      still_running.push_back(id);
    }
  }
  s_.running = still_running;
}

}  // namespace

index_t held_blocks(const Request& r) {
  index_t total = r.blocks.count();
  for (const SequenceBlocks& f : r.forks) total += f.count();
  return total;
}

void preempt_running_at(ReplicaState& s, std::vector<Request>& requests,
                        std::size_t pos) {
  MARLIN_ASSERT(pos < s.running.size());
  const std::size_t victim = s.running[pos];
  s.running.erase(s.running.begin() + static_cast<std::ptrdiff_t>(pos));
  Request& v = requests[victim];
  v.set_state(RequestState::kPreempted);
  release_kv(s, v);
  set_prefilled(s, v, 0);
  ++v.preemptions;
  ++s.preemptions;
  s.queue.push_front(victim);
}

void step(const Scheduler& scheduler, ReplicaState& s,
          std::vector<Request>& requests) {
  MARLIN_CHECK(s.obs == nullptr, "the reference step does not record");
  Stepper stepper(scheduler, s, requests);
  if (!s.prefilling.empty()) {
    stepper.prefill_round();
    return;
  }
  if (!s.running.empty()) stepper.decode_round();
}

}  // namespace marlin::serve::sched::reference
