// The admission-policy registry: string kind -> controller factory. The
// experiment harness resolves ExperimentConfig::admission
// (an AdmissionSpec) through make_controller() once per host; benches and
// tests enumerate names() to sweep every registered policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "policy/spec.h"
#include "rpc/admission.h"
#include "rpc/slo.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace aeq::policy {

// Everything a factory may consult when building one host's controller.
// `rng` is the host's private stream, pre-forked by the experiment seeder;
// factories that need randomness must draw only from it.
struct PolicyContext {
  net::HostId host = 0;
  std::size_t num_qos = 3;
  rpc::SloConfig slo;
  sim::Rate link_rate = 0.0;
  std::uint32_t mtu_bytes = 4096;
  sim::Rng rng{0};
};

using PolicyFactory =
    std::function<std::unique_ptr<rpc::AdmissionController>(
        const AdmissionSpec&, const PolicyContext&)>;

// Registers (or replaces) a policy under `kind`. Built-ins self-register;
// user code may add policies before constructing experiments. NOT
// thread-safe against concurrent experiment construction — register
// everything up front.
void register_policy(const std::string& kind, PolicyFactory factory);

bool is_registered(const std::string& kind);

// Registered kinds in sorted order (stable for sweeps and --controller=all).
std::vector<std::string> names();

// Builds one host's controller for `spec`. Unknown kinds abort with the
// registered name list; spec.factory, when set, is NOT consulted here
// (the experiment resolves the escape hatch before reaching the registry).
// Policies whose rejections are downgrades honor spec.drop_rejects by
// wrapping themselves in RejectionAdapter.
std::unique_ptr<rpc::AdmissionController> make_controller(
    const AdmissionSpec& spec, PolicyContext context);

}  // namespace aeq::policy
