#include "policy/swp_pacing.h"

#include <algorithm>

#include "sim/assert.h"

namespace aeq::policy {

namespace {
// Normalized (per-MTU) RNL histogram shape: targets are microseconds per
// MTU, so [10ns, 10ms] covers everything observable at 2% error.
constexpr double kNormRnlMin = 0.01 * sim::kUsec;
constexpr double kNormRnlMax = 10.0 * sim::kMsec;
constexpr double kNormRnlPrecision = 0.02;
}  // namespace

SwpPacingController::SwpPacingController(const SwpPacingConfig& config,
                                         std::size_t num_qos,
                                         rpc::SloConfig slo,
                                         sim::Rate link_rate,
                                         bool drop_rejects)
    : WindowedController(num_qos, slo, config.window),
      config_(config),
      link_rate_(link_rate),
      drop_rejects_(drop_rejects),
      rate_fraction_(config.initial_rate_fraction),
      norm_rnl_(kNormRnlMin, kNormRnlMax, kNormRnlPrecision) {
  AEQ_CHECK_GT(link_rate_, 0.0);
  AEQ_ASSERT_MSG(config_.min_rate_fraction > 0.0 &&
                     config_.min_rate_fraction <=
                         config_.max_rate_fraction &&
                     config_.max_rate_fraction <= 1.0,
                 "swp rate fractions must satisfy 0 < min <= max <= 1");
  AEQ_ASSERT_MSG(config_.decrease_factor > 0.0 &&
                     config_.decrease_factor < 1.0,
                 "swp decrease_factor must be in (0, 1)");
  AEQ_CHECK_GT(config_.burst_windows, 0.0);
  AEQ_ASSERT_MSG(this->slo().has_slo(config_.run_qos) ||
                     config_.run_qos ==
                         static_cast<net::QoSLevel>(num_qos - 1),
                 "swp run_qos must be a valid QoS level");
  rate_fraction_ = std::min(
      std::max(rate_fraction_, config_.min_rate_fraction),
      config_.max_rate_fraction);
  min_target_per_mtu_ = 0.0;
  for (std::size_t q = 0; q + 1 < this->slo().num_qos(); ++q) {
    const double target = this->slo().latency_target_per_mtu[q];
    AEQ_CHECK_GT(target, 0.0);
    min_target_per_mtu_ =
        min_target_per_mtu_ == 0.0 ? target
                                   : std::min(min_target_per_mtu_, target);
  }
  tokens_ = bucket_capacity();
}

double SwpPacingController::bucket_capacity() const {
  // Bucket depth: `burst_windows` windows' worth of bytes at the current
  // pacing rate — deep enough to absorb one burst period, shallow enough
  // that sustained overload hits the gate within a few windows.
  return config_.burst_windows * rate_fraction_ * link_rate_ *
         window_width();
}

void SwpPacingController::refill(sim::Time now) {
  const sim::Time elapsed = now - last_refill_;
  last_refill_ = now;
  if (elapsed <= 0.0) return;
  // link_rate is bytes/sec (sim::Rate); tokens are payload bytes.
  tokens_ = std::min(tokens_ + elapsed * rate_fraction_ * link_rate_,
                     bucket_capacity());
}

rpc::AdmissionDecision SwpPacingController::decide(
    sim::Time now, net::HostId /*src*/, net::HostId /*dst*/,
    net::QoSLevel qos_requested, std::uint64_t bytes) {
  refill(now);
  const double cost = static_cast<double>(bytes);
  if (tokens_ >= cost) {
    tokens_ -= cost;
    // One class for everything: the no-priority collapse. `downgraded` is
    // reserved for actual rejections so admitted-share accounting reads
    // "paced in" vs "paced out", not the class remap.
    return {config_.run_qos, false, false, rate_fraction_};
  }
  if (drop_rejects_) {
    return {qos_requested, false, true, rate_fraction_};
  }
  // Over budget without drops: spill onto the true scavenger class.
  if (config_.run_qos != lowest_qos()) {
    return {lowest_qos(), true, false, rate_fraction_};
  }
  // Degenerate setup (run_qos IS the scavenger): nothing lower exists, so
  // pacing can only shed by dropping.
  return {qos_requested, false, true, rate_fraction_};
}

void SwpPacingController::on_feedback(sim::Time /*now*/, net::HostId /*dst*/,
                                      net::QoSLevel /*qos_requested*/,
                                      net::QoSLevel qos_run, sim::Time rnl,
                                      std::uint64_t size_mtus,
                                      bool /*slo_met*/) {
  // Pace against what the paced class actually delivers; scavenger
  // spillover is already outside the budget.
  if (qos_run != config_.run_qos) return;
  norm_rnl_.add(rnl / static_cast<double>(size_mtus));
}

void SwpPacingController::on_window(const obs::WindowStats& /*window*/) {
  const bool violating =
      norm_rnl_.count() > 0 && norm_rnl_.p99() >= min_target_per_mtu_;
  norm_rnl_.reset();
  if (violating) {
    ++violating_windows_;
    rate_fraction_ = std::max(rate_fraction_ * config_.decrease_factor,
                              config_.min_rate_fraction);
    // Shrink the bucket with the rate: stale burst credit must not carry
    // the old rate into the new window.
    tokens_ = std::min(tokens_, bucket_capacity());
  } else {
    rate_fraction_ = std::min(
        rate_fraction_ + config_.increase_per_window,
        config_.max_rate_fraction);
  }
}

void SwpPacingController::gauges(std::vector<rpc::Gauge>& out) const {
  out.assign({
      {"rate_fraction", rate_fraction_, config_.min_rate_fraction,
       config_.max_rate_fraction},
      {"bucket_tokens", tokens_, 0.0, rpc::kGaugeUnbounded},
      {"violating_windows", static_cast<double>(violating_windows_), 0.0,
       rpc::kGaugeUnbounded},
  });
}

void SwpPacingController::audit_invariants(sim::Time now) const {
  AEQ_CHECK_GE_MSG(rate_fraction_, config_.min_rate_fraction,
                   "pacing rate below its floor");
  AEQ_CHECK_LE_MSG(rate_fraction_, config_.max_rate_fraction,
                   "pacing rate above its ceiling");
  AEQ_CHECK_GE_MSG(tokens_, 0.0, "negative token balance");
  AEQ_CHECK_LE_MSG(last_refill_, now, "token refill timestamp in the future");
}

}  // namespace aeq::policy
