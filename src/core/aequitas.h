// Aequitas distributed admission control — Algorithm 1 of the paper.
//
// One controller instance lives at each sending host. It maintains an admit
// probability per (destination host, QoS level). On RPC issue, a Bernoulli
// draw against p_admit decides whether the RPC runs on its requested QoS or
// is downgraded to the lowest QoS. On RPC completion the measured RNL drives
// AIMD:
//   * additive increase (+alpha, clamped at 1) when the size-normalized RNL
//     is under the target, at most once per increment_window — the window is
//     latency_target * 100 / (100 - target_pctl), so stricter tail
//     percentiles make increases more conservative;
//   * multiplicative decrease (-beta * size_mtus, floored) on every SLO
//     miss, so a channel sending more (or larger) RPCs backs off
//     proportionally faster, which yields max-min fairness across channels
//     (paper §5.1, RPC-level clocking).
//
// The lowest QoS is the scavenger class: never gated, no SLO.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "rpc/admission.h"
#include "rpc/slo.h"
#include "sim/rng.h"
#include "sim/units.h"
#include "util/flat_map.h"

namespace aeq::core {

struct AequitasConfig {
  double alpha = 0.01;          // additive increment
  double beta_per_mtu = 0.01;   // multiplicative decrement per MTU of size
  double p_admit_floor = 0.01;  // starvation guard (§5.1)
  rpc::SloConfig slo;           // per-QoS normalized targets + percentiles
};

class AequitasController final : public rpc::AdmissionController {
 public:
  AequitasController(const AequitasConfig& config, sim::Rng rng);

  rpc::AdmissionDecision admit(sim::Time now, net::HostId src,
                               net::HostId dst,
                               net::QoSLevel qos_requested,
                               std::uint64_t bytes) override;

  // AIMD feedback keys on the QoS the RPC *ran* at (Algorithm 1): a
  // downgraded RPC's scavenger completion carries no SLO signal, so
  // `qos_requested` is deliberately unused here.
  void on_completion(sim::Time now, net::HostId src, net::HostId dst,
                     net::QoSLevel qos_requested, net::QoSLevel qos_run,
                     sim::Time rnl, std::uint64_t size_mtus) override;

  // Current admit probability toward (dst, qos); 1.0 if no state yet.
  double p_admit(net::HostId dst, net::QoSLevel qos) const;

  // Policy-agnostic introspection (rpc::AdmissionController): the channel
  // count plus min/mean p_admit across channels, all bounded by the AIMD
  // clamp [p_admit_floor, 1].
  void gauges(std::vector<rpc::Gauge>& out) const override;

  const AequitasConfig& config() const { return config_; }

  // increment_window for a QoS level (Algorithm 1, initialization).
  sim::Time increment_window(net::QoSLevel qos) const;

  // Audit hook (src/audit/checks.h): asserts every per-(dst, qos) channel's
  // p_admit sits in [p_admit_floor, 1] — the AIMD clamp the paper's
  // starvation guard (§5.1) and Bernoulli gating depend on — and that no
  // additive-increase timestamp lies in the future of `now`. Aborts via
  // AEQ_CHECK_* on violation.
  void audit_invariants(sim::Time now) const override;

 private:
  struct State {
    double p_admit = 1.0;
    sim::Time t_last_increase = 0.0;
  };

  static std::uint64_t key(net::HostId dst, net::QoSLevel qos) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst))
            << 8) |
           qos;
  }

  net::QoSLevel lowest_qos() const {
    return static_cast<net::QoSLevel>(config_.slo.num_qos() - 1);
  }

  AequitasConfig config_;
  sim::Rng rng_;
  util::FlatMap64<State> states_;
};

}  // namespace aeq::core
