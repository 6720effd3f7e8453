#include "core/aequitas.h"

#include <algorithm>

#include "sim/assert.h"

namespace aeq::core {

AequitasController::AequitasController(const AequitasConfig& config,
                                       sim::Rng rng)
    : config_(config), rng_(rng) {
  AEQ_CHECK_GE(config_.slo.num_qos(), 2u);
  AEQ_CHECK_EQ(config_.slo.target_percentile.size(), config_.slo.num_qos());
  AEQ_CHECK_GT(config_.alpha, 0.0);
  AEQ_CHECK_GT(config_.beta_per_mtu, 0.0);
  AEQ_CHECK_GE(config_.p_admit_floor, 0.0);
  AEQ_CHECK_LE(config_.p_admit_floor, 1.0);
  for (std::size_t q = 0; q + 1 < config_.slo.num_qos(); ++q) {
    const double pctl = config_.slo.target_percentile[q];
    AEQ_ASSERT_MSG(pctl > 0.0 && pctl < 100.0,
                   "target percentile must be in (0, 100)");
  }
}

sim::Time AequitasController::increment_window(net::QoSLevel qos) const {
  AEQ_ASSERT(config_.slo.has_slo(qos));
  return config_.slo.latency_target_per_mtu[qos] * 100.0 /
         (100.0 - config_.slo.target_percentile[qos]);
}

rpc::AdmissionDecision AequitasController::admit(
    sim::Time /*now*/, net::HostId /*src*/, net::HostId dst,
    net::QoSLevel qos_requested, std::uint64_t /*bytes*/) {
  if (!config_.slo.has_slo(qos_requested)) {
    // Lowest QoS: scavenger, always admitted.
    return {qos_requested, false, false};
  }
  State& state = states_[key(dst, qos_requested)];
  // Strict comparison: uniform() is in [0, 1), so `<` admits with
  // probability exactly p_admit — in particular p_admit == 0 never admits
  // (`<=` would admit on a zero draw and make the floor soft).
  if (rng_.uniform() < state.p_admit) {
    return {qos_requested, false, false, state.p_admit};
  }
  return {lowest_qos(), true, false, state.p_admit};
}

void AequitasController::on_completion(sim::Time now, net::HostId /*src*/,
                                       net::HostId dst,
                                       net::QoSLevel /*qos_requested*/,
                                       net::QoSLevel qos_run, sim::Time rnl,
                                       std::uint64_t size_mtus) {
  if (!config_.slo.has_slo(qos_run)) return;  // no SLO on the lowest QoS
  AEQ_CHECK_GE(size_mtus, 1u);
  State& state = states_[key(dst, qos_run)];
  AEQ_AUDIT_ONLY(const double p_before = state.p_admit;)
  const sim::Time target = config_.slo.latency_target_per_mtu[qos_run];
  if (rnl / static_cast<double>(size_mtus) < target) {
    // Additive increase, rate limited to one per increment window so the
    // increase rate is independent of how many RPCs the channel sends.
    if (now - state.t_last_increase > increment_window(qos_run)) {
      state.p_admit = std::min(state.p_admit + config_.alpha, 1.0);
      state.t_last_increase = now;
    }
    // Step-direction sanity (AIMD, Algorithm 1): an SLO-met completion
    // must never lower the admit probability.
    AEQ_AUDIT_ONLY(AEQ_CHECK_GE(state.p_admit, p_before);
                   AEQ_CHECK_LE(state.p_admit, 1.0);)
  } else {
    // Multiplicative decrease, proportional to RPC size: an SLO miss on a
    // 10-MTU RPC behaves like ten misses on 1-MTU RPCs.
    state.p_admit =
        std::max(state.p_admit - config_.beta_per_mtu *
                                     static_cast<double>(size_mtus),
                 config_.p_admit_floor);
    // An SLO miss must never raise it, and the starvation floor holds.
    AEQ_AUDIT_ONLY(AEQ_CHECK_LE(state.p_admit, p_before);
                   AEQ_CHECK_GE(state.p_admit, config_.p_admit_floor);)
  }
}

void AequitasController::audit_invariants(sim::Time now) const {
  // Per-entry assertions only; nothing observable depends on visit order.
  // detlint:allow(unordered-iter)
  states_.for_each([&](std::uint64_t, const State& state) {
    AEQ_CHECK_GE_MSG(state.p_admit, config_.p_admit_floor,
                     "p_admit below the starvation floor");
    AEQ_CHECK_LE_MSG(state.p_admit, 1.0, "p_admit above 1");
    AEQ_CHECK_LE_MSG(state.t_last_increase, now,
                     "additive-increase timestamp in the future");
  });
}

double AequitasController::p_admit(net::HostId dst, net::QoSLevel qos) const {
  const State* state = states_.find(key(dst, qos));
  return state == nullptr ? 1.0 : state->p_admit;
}

void AequitasController::gauges(std::vector<rpc::Gauge>& out) const {
  double min = 1.0;
  double sum = 0.0;
  std::size_t n = 0;
  // min is order-independent; the sum folds in the map's slot order, which
  // is a pure function of the (deterministic) insertion history, so the
  // mean is reproducible across runs and shard counts.
  // detlint:allow(unordered-iter)
  states_.for_each([&](std::uint64_t, const State& state) {
    min = std::min(min, state.p_admit);
    sum += state.p_admit;
    ++n;
  });
  const double mean = n == 0 ? 1.0 : sum / static_cast<double>(n);
  out.assign({
      {"p_admit_min", min, config_.p_admit_floor, 1.0},
      {"p_admit_mean", mean, config_.p_admit_floor, 1.0},
      {"channels", static_cast<double>(n), 0.0, rpc::kGaugeUnbounded},
  });
}

}  // namespace aeq::core
