// Figure 22: Aequitas vs pFabric, QJump, D3, PDQ and Homa on the 33-node
// setup with production RPC sizes and input mix 50/30/20.
//
// Reported, as in the paper: (1) the percentage of QoS_h *traffic*
// (byte-weighted) meeting its SLO from its initially assigned QoS,
// (2) network utilization (downlink busy fraction / offered load), and
// (3) per-QoS p99.9 RNL.
//
// Reproduced shape: Aequitas admits SLO-compliant QoS_h traffic at ~full
// utilization and beats QJump, D3 and PDQ; D3/PDQ terminate flows and lose
// a large chunk of utilization (the paper's ~50% observation); QJump's
// hard per-level rate caps hurt RPC-level compliance under bursts.
//
// Documented divergence: our pFabric and Homa score *above* Aequitas on
// SLO-met% (the paper has them below, 56%/46.5% vs 70.3%). Two reasons:
// (a) these baseline stacks are idealized — per-message parallel
// transmission with clairvoyant selective ACKs and no flow-multiplexing
// penalty, while the Aequitas stack pays FIFO-per-channel sender queueing
// in its RNL (the paper's definition); and (b) at average load 0.8 the
// residual ~20Gbps lets SRPT finish even multi-MB RPCs within their
// size-proportional budgets, so the large-RPC starvation that sinks SRPT
// in the paper's workload only partially materializes in ours.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "policy/registry.h"

namespace {

using namespace aeq;

// Normalized SLO targets (per MTU); identical for every system.
constexpr double kSloHPerMtu = 3.0;   // us
constexpr double kSloMPerMtu = 6.0;  // us
// Absolute deadlines for the deadline-aware systems (paper: 250us/300us).
constexpr double kDeadlineH = 250.0;  // us
constexpr double kDeadlineM = 300.0;  // us
// Average per-host offered load (fraction of line rate).
constexpr double kOfferedLoad = 0.8;

rpc::SloConfig make_slo() {
  return rpc::SloConfig::make(
      {kSloHPerMtu * sim::kUsec, kSloMPerMtu * sim::kUsec, 0.0}, 99.9);
}

// The compared systems, in row order: Aequitas on the paper's stack, then
// the five baseline stacks.
constexpr runner::BaselineProtocol kSystems[] = {
    runner::BaselineProtocol::kNone, runner::BaselineProtocol::kPfabric,
    runner::BaselineProtocol::kQjump, runner::BaselineProtocol::kD3,
    runner::BaselineProtocol::kPdq,  runner::BaselineProtocol::kHoma};

// Splits a comma-separated flag value ("a,b,c") into its items.
std::vector<std::string> split_list(std::string_view list) {
  std::vector<std::string> items;
  while (!list.empty()) {
    const auto comma = list.find(',');
    items.emplace_back(list.substr(0, comma));
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  return items;
}

const char* system_name(runner::BaselineProtocol baseline) {
  return baseline == runner::BaselineProtocol::kNone
             ? "Aequitas"
             : runner::baseline_name(baseline);
}

// The 33-node setup every system runs on. The baselines have no admission
// control of their own, so they admit everything.
runner::ExperimentConfig make_config(runner::BaselineProtocol baseline,
                                     std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.num_hosts = 33;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.slo = make_slo();
  config.seed = seed;
  config.baseline = baseline;
  if (baseline != runner::BaselineProtocol::kNone) {
    config.admission.kind = policy::kAlwaysAdmit;
  }
  // pFabric's shallow per-port buffer: ~2.5 BDP at 100G.
  if (baseline == runner::BaselineProtocol::kPfabric) {
    config.buffer_bytes = 160 * 1024;
  }
  // QJump provisioned for the expected per-level load (0.4/0.24 of line
  // rate on h/m): caps hold packet latency down but bursts above the cap
  // queue at the host.
  config.qjump_level_rate_fraction = {0.45, 0.30, 0.0};
  return config;
}

struct Row {
  const char* name;
  double met_h;      // % of QoS_h traffic meeting SLO
  double met_m;      // % of QoS_m
  double util;       // network utilization %
  double p999[3];    // per-QoS p99.9 RNL (us)
  double terminated; // % of deadline RPCs killed
};

void attach_workload(runner::Experiment& experiment, bool with_deadlines,
                     double offered_load = kOfferedLoad) {
  bench::AllToAllSpec spec;
  spec.load = offered_load;
  spec.mix = {0.5, 0.3, 0.2};
  spec.sizes = {
      experiment.own(workload::production_size_dist(rpc::Priority::kPC)),
      experiment.own(workload::production_size_dist(rpc::Priority::kNC)),
      experiment.own(workload::production_size_dist(rpc::Priority::kBE))};
  if (with_deadlines) {
    spec.deadline_budget = {kDeadlineH * sim::kUsec, kDeadlineM * sim::kUsec,
                            0.0};
  }
  bench::attach_all_to_all(experiment, spec);
}

// Utilization: downlink busy fraction relative to the offered load.
// Terminated/unsent traffic leaves links idle; queued-but-moving scavenger
// traffic still counts as useful work.
Row collect(const char* name, runner::Experiment& experiment,
            double offered_load) {
  const auto& metrics = experiment.metrics();
  Row row{};
  row.name = name;
  row.met_h = 100 * metrics.slo_met_fraction_bytes(0);
  row.met_m = 100 * metrics.slo_met_fraction_bytes(1);
  row.util = 100 * std::min(1.0, experiment.mean_downlink_utilization() /
                                     offered_load);
  for (net::QoSLevel q = 0; q < 3; ++q) {
    row.p999[q] = metrics.rnl_by_run_qos(q).p999() / sim::kUsec;
  }
  const double eligible = static_cast<double>(metrics.slo_eligible(0)) +
                          static_cast<double>(metrics.slo_eligible(1));
  const double killed = static_cast<double>(metrics.terminated(0)) +
                        static_cast<double>(metrics.terminated(1));
  row.terminated = eligible > 0 ? 100 * killed / eligible : 0.0;
  return row;
}

Row run_system(runner::BaselineProtocol baseline, std::uint64_t seed,
               const bench::TraceRequest& trace, int point) {
  runner::Experiment experiment(make_config(baseline, seed));
  trace.apply(experiment, point);
  const bool deadlines = baseline == runner::BaselineProtocol::kD3 ||
                         baseline == runner::BaselineProtocol::kPdq;

  // For the deadline protocols the paper judges SLO attainment against the
  // absolute deadline, not the normalized target.
  std::array<std::uint64_t, 2> met_bytes{0, 0};
  std::array<std::uint64_t, 2> eligible_bytes{0, 0};
  if (deadlines) {
    for (std::size_t h = 0; h < 33; ++h) {
      experiment.stack(static_cast<net::HostId>(h))
          .set_completion_listener([&](const rpc::RpcRecord& r) {
            if (r.qos_requested > 1) return;
            const double budget =
                r.qos_requested == 0 ? kDeadlineH : kDeadlineM;
            eligible_bytes[r.qos_requested] += r.bytes;
            if (!r.terminated && r.rnl <= budget * sim::kUsec) {
              met_bytes[r.qos_requested] += r.bytes;
            }
          });
    }
  }
  attach_workload(experiment, deadlines);
  experiment.run(12 * sim::kMsec, 15 * sim::kMsec);
  Row row = collect(system_name(baseline), experiment, kOfferedLoad);
  if (deadlines) {
    for (int q = 0; q < 2; ++q) {
      const double met =
          eligible_bytes[q] ? 100.0 * static_cast<double>(met_bytes[q]) /
                                  static_cast<double>(eligible_bytes[q])
                            : 0.0;
      (q == 0 ? row.met_h : row.met_m) = met;
    }
  }
  return row;
}

// --controller= shoot-out: one registered admission policy on the Aequitas
// stack (same 33-node topology, workload, and SLOs as the related-work
// comparison). Returns the standard row plus a compact rendering of the
// policy's introspection gauges (rpc::Gauge), read from host 0.
struct PolicyRow {
  Row row;
  double rejected = 0.0;  // % of QoS_h issues downgraded or dropped
  std::string gauges;
};

std::string summarize_gauges(const rpc::AdmissionController& controller) {
  std::vector<rpc::Gauge> gauges;
  controller.gauges(gauges);
  std::string out;
  for (const rpc::Gauge& gauge : gauges) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%s%s=%.3g",
                  out.empty() ? "" : " ", gauge.name, gauge.value);
    out += buffer;
  }
  return out.empty() ? "-" : out;
}

PolicyRow run_policy(const std::string& kind, double load, std::uint64_t seed,
                     const bench::TraceRequest& trace, int point) {
  runner::ExperimentConfig config =
      make_config(runner::BaselineProtocol::kNone, seed);
  config.admission.kind = kind;
  runner::Experiment experiment(config);
  trace.apply(experiment, point);
  attach_workload(experiment, false, load);
  experiment.run(12 * sim::kMsec, 15 * sim::kMsec);
  PolicyRow result;
  result.row = collect(kind.c_str(), experiment, load);
  const auto& metrics = experiment.metrics();
  const auto issued = metrics.downgraded(0) + metrics.terminated(0) +
                      metrics.completed(0);
  result.rejected =
      issued ? 100.0 *
                   static_cast<double>(metrics.downgraded(0) +
                                       metrics.terminated(0)) /
                   static_cast<double>(issued)
             : 0.0;
  result.gauges = summarize_gauges(experiment.admission(0));
  return result;
}

// Runs the shoot-out and renders its table; returns the process exit code.
int run_shootout(bench::BenchArgs& args, const std::string& controller) {
  const std::vector<std::string> all_kinds = policy::names();
  const std::vector<std::string> kinds =
      controller == "all" ? all_kinds : split_list(controller);
  // Each selected kind's place in the full list: a point is seeded by its
  // place in the `--controller=all` sweep, not among the selected policies,
  // so a subset reproduces the full run's rows.
  std::vector<std::size_t> full_index;
  for (const std::string& kind : kinds) {
    const auto it = std::find(all_kinds.begin(), all_kinds.end(), kind);
    if (it != all_kinds.end()) {
      full_index.push_back(static_cast<std::size_t>(it - all_kinds.begin()));
      continue;
    }
    std::fprintf(stderr, "unknown --controller kind \"%s\"; registered:",
                 kind.c_str());
    for (const std::string& name : all_kinds) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  std::vector<double> loads;
  for (const std::string& load : split_list(args.flags.get("loads"))) {
    loads.push_back(std::stod(load));
  }
  if (loads.empty()) loads.push_back(kOfferedLoad);

  bench::print_header("Admission-policy shoot-out",
                      "33-node, production sizes, input mix 50/30/20, "
                      "normalized SLO 3/6us per MTU; every policy runs the "
                      "same stack and workload");
  runner::SweepRunner sweep(args.sweep);
  int point = 0;
  for (std::size_t l = 0; l < loads.size(); ++l) {
    const double load = loads[l];
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const std::uint64_t seed =
          sweep.point_seed(l * all_kinds.size() + full_index[k]);
      sweep.submit([kind = kinds[k], load, seed, trace = args.trace,
                    p = point++](const runner::PointContext&) {
        const PolicyRow result = run_policy(kind, load, seed, trace, p);
        return runner::PointResult::single(
            {result.row.name, load, result.row.met_h, result.row.met_m,
             result.row.util, stats::Cell(result.row.p999[0], 0),
             result.rejected, result.gauges});
      });
    }
  }
  stats::Table table({{"policy", 14},
                      {"load", 6, 2},
                      {"h meet SLO%", 12, 1},
                      {"m meet SLO%", 12, 1},
                      {"util%", 8, 1},
                      {"h p999(us)", 12, 0},
                      {"rejected%", 10, 1},
                      {"gauges (host 0)", 20}});
  for (const auto& result : sweep.run()) table.add_rows(result.rows);
  bench::emit(table, args);
  bench::print_footer();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args =
      bench::parse_args(argc, argv, {"controller", "loads", "only"});
  // `--controller=aequitas,ticket-pool,...` (or `all`) switches from the
  // related-work comparison to the admission-policy shoot-out: every named
  // registered policy on the identical stack, optionally swept across
  // `--loads=0.6,0.8,1.0`.
  const std::string controller = args.flags.get("controller");
  if (!controller.empty()) {
    if (run_shootout(args, controller) != 0) return 1;
    return bench::exit_code(args, argv[0]);
  }
  bench::print_header("Figure 22",
                      "Related-work comparison, 33-node, production sizes, "
                      "input mix 50/30/20 (normalized SLO 3/6us per MTU; "
                      "D3/PDQ deadlines 250/300us)");
  // Optional filter: run only the named systems (case-sensitive,
  // comma-separated), e.g. `fig22_related_work --only=D3,PDQ`.
  const std::vector<std::string> only = split_list(args.flags.get("only"));

  runner::SweepRunner sweep(args.sweep);
  int point = 0;
  for (std::size_t i = 0; i < std::size(kSystems); ++i) {
    const runner::BaselineProtocol baseline = kSystems[i];
    const char* name = system_name(baseline);
    if (!only.empty() &&
        std::find(only.begin(), only.end(), name) == only.end()) {
      continue;
    }
    // Seeded by the system's row in the full figure, not its place among
    // the selected systems, so an --only run reproduces the full run's rows.
    const std::uint64_t seed = sweep.point_seed(i);
    sweep.submit([baseline, seed, trace = args.trace,
                  p = point++](const runner::PointContext&) {
      const Row row = run_system(baseline, seed, trace, p);
      return runner::PointResult::single(
          {row.name, row.met_h, row.met_m, row.util,
           stats::Cell(row.p999[0], 0), stats::Cell(row.p999[1], 0),
           stats::Cell(row.p999[2], 0), row.terminated});
    });
  }

  stats::Table table({{"system", 10},
                      {"h meet SLO%", 12, 1},
                      {"m meet SLO%", 12, 1},
                      {"util%", 10, 1},
                      {"h p999(us)", 12, 0},
                      {"m p999(us)", 12, 0},
                      {"l p999(us)", 12, 0},
                      {"killed%", 10, 1}});
  for (const auto& result : sweep.run()) table.add_rows(result.rows);
  bench::emit(table, args);
  bench::print_footer();
  return bench::exit_code(args, argv[0]);
}
