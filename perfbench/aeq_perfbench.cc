// One repetition of a perfbench workload, driven through the public
// runner::Experiment API and timed phase by phase from outside the library.
//
//   aeq_perfbench --config=fig12|fig21 --hosts=N --shards=K --seed=S
//                 --warmup-us=W --run-us=R --drain-us=D [--prof=PATH]
//
// Prints one JSON object on stdout: the phase timings, the simulated
// results (per-QoS RNL percentiles, SLO compliance, admission and RPC
// counters), the network and PDES counters read from public accessors, and
// the build provenance. --prof makes the repetition a traced one: the
// sampled profiler writes its report to PATH and the schedule digest is on.
// perfbench/run.py spawns one process per repetition so CPU time and peak
// RSS can be read per repetition from wait4().
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#ifndef AEQ_PERFBENCH_BUILD_TYPE
#define AEQ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace aeq;
using Clock = std::chrono::steady_clock;

// Set-up is short next to the run, so it is repeated and the median
// reported; the last experiment set up is the one that runs.
constexpr int kSetups = 5;

struct Params {
  std::string config;
  std::size_t hosts = 0;
  std::size_t shards = 1;
  std::uint64_t seed = 1;
  double warmup_us = 0.0;
  double run_us = 0.0;
  double drain_us = 0.0;
  std::string prof;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2.0;
}

// perf_probe's configuration: the Figure-12 33-node all-to-all with fixed
// 32 KiB RPCs, a 60/30/10 mix, 8:4:1 WFQ and Aequitas at its default knobs.
runner::ExperimentConfig fig12_config(const Params& p) {
  runner::ExperimentConfig config;
  config.num_hosts = p.hosts;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.swift.target_delay = 10.0 * sim::kUsec;
  config.slo = rpc::SloConfig::make(
      {15.0 / 8 * sim::kUsec, 25.0 / 8 * sim::kUsec, 0.0}, 99.9);
  return config;
}

void fig12_attach(runner::Experiment& experiment) {
  bench::AllToAllSpec spec;
  spec.mix = {0.6, 0.3, 0.1};
  spec.sizes = {experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB))};
  bench::attach_all_to_all(experiment, spec);
}

// fig21_production_scale's configuration: production RPC sizes, 2.5x burst
// load (~25x instantaneous per-link overload), normalized SLOs and the
// SLO-favouring AIMD knobs alpha=0.002, beta=0.05.
runner::ExperimentConfig fig21_config(const Params& p) {
  runner::ExperimentConfig config;
  config.num_hosts = p.hosts;
  config.num_qos = 3;
  config.wfq_weights = {8.0, 4.0, 1.0};
  config.slo = rpc::SloConfig::make(
      {4.0 * sim::kUsec, 12.0 * sim::kUsec, 0.0}, 99.9);
  config.admission.aequitas.alpha = 0.002;
  config.admission.aequitas.beta_per_mtu = 0.05;
  return config;
}

void fig21_attach(runner::Experiment& experiment) {
  bench::AllToAllSpec spec;
  spec.mix = {0.6, 0.3, 0.1};
  spec.load = 0.8;
  spec.burst_load = 2.5;
  spec.sizes = {
      experiment.own(workload::production_size_dist(rpc::Priority::kPC)),
      experiment.own(workload::production_size_dist(rpc::Priority::kNC)),
      experiment.own(workload::production_size_dist(rpc::Priority::kBE))};
  bench::attach_all_to_all(experiment, spec);
}

// Shortest decimal form that reads back as the same double, so the caller
// can compare simulated results bit for bit.
std::string exact(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

int run(const Params& p) {
  const bool fig12 = p.config == "fig12";
  runner::ExperimentConfig config = fig12 ? fig12_config(p) : fig21_config(p);
  config.shards = p.shards;
  config.seed = p.seed;
  config.schedule_digest = !p.prof.empty();

  std::vector<double> construct_times;
  std::vector<double> attach_times;
  std::unique_ptr<runner::Experiment> owned;
  for (int i = 0; i < kSetups; ++i) {
    owned.reset();
    const Clock::time_point t_construct = Clock::now();
    owned = std::make_unique<runner::Experiment>(config);
    construct_times.push_back(seconds_since(t_construct));
    const Clock::time_point t_attach = Clock::now();
    fig12 ? fig12_attach(*owned) : fig21_attach(*owned);
    attach_times.push_back(seconds_since(t_attach));
  }
  runner::Experiment& experiment = *owned;
  const double construct_s = median(construct_times);
  const double attach_s = median(attach_times);
  if (!p.prof.empty()) experiment.enable_profiling(p.prof);

  const Clock::time_point t_run = Clock::now();
  experiment.run(p.warmup_us * sim::kUsec, p.run_us * sim::kUsec,
                 p.drain_us * sim::kUsec);
  const double run_s = seconds_since(t_run);

  // Result extraction: the percentile and share queries a figure makes,
  // plus the network counters.
  const Clock::time_point t_report = Clock::now();
  const rpc::RpcMetrics& metrics = experiment.metrics();
  std::string qos_json;
  std::uint64_t outstanding = 0;
  for (net::QoSLevel q = 0; q < config.num_qos; ++q) {
    const auto& rnl = metrics.rnl_by_run_qos(q);
    qos_json += std::string(q == 0 ? "" : ",") + "{" +
                "\"completed\":" + u64(metrics.completed(q)) +
                ",\"terminated\":" + u64(metrics.terminated(q)) +
                ",\"samples\":" + u64(rnl.count()) +
                ",\"p50_us\":" + exact(rnl.p50() / sim::kUsec) +
                ",\"p99_us\":" + exact(rnl.p99() / sim::kUsec) +
                ",\"p999_us\":" + exact(rnl.p999() / sim::kUsec) +
                ",\"p999_per_mtu_us\":" +
                exact(metrics.rnl_per_mtu_by_run_qos(q).p999() / sim::kUsec) +
                ",\"slo_eligible\":" + u64(metrics.slo_eligible(q)) +
                ",\"slo_met\":" + u64(metrics.slo_met(q)) +
                ",\"slo_met_fraction\":" +
                exact(metrics.slo_met_fraction(q)) +
                ",\"downgraded\":" + u64(metrics.downgraded(q)) +
                ",\"bytes_requested\":" + u64(metrics.bytes_requested(q)) +
                ",\"bytes_admitted\":" + u64(metrics.bytes_admitted(q)) +
                ",\"admitted_share\":" + exact(metrics.admitted_share(q)) +
                "}";
  }
  for (std::size_t h = 0; h < metrics.num_hosts(); ++h) {
    for (int group = 0; group < 2; ++group) {
      outstanding += static_cast<std::uint64_t>(
          metrics.outstanding(static_cast<net::HostId>(h), group));
    }
  }
  std::uint64_t issued = 0;
  topo::Network& network = experiment.network();
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    issued += experiment.stack(static_cast<net::HostId>(h)).issued_count();
  }
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  const auto count_port = [&](const net::Port& port) {
    offered += port.queue().stats().offered_packets;
    dropped += port.queue().stats().dropped_packets;
  };
  for (std::size_t h = 0; h < network.num_hosts(); ++h) {
    count_port(network.host(static_cast<net::HostId>(h)).egress());
  }
  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    const net::Switch& sw = network.fabric_switch(s);
    for (std::size_t i = 0; i < sw.num_ports(); ++i) count_port(sw.port(i));
  }
  const double downlink_util = experiment.mean_downlink_utilization();
  const double report_s = seconds_since(t_report);

  std::uint64_t windows = 0;
  std::uint64_t backoff_windows = 0;
  std::uint64_t cross_shard_packets = 0;
  std::uint64_t mailbox_hwm = 0;
  if (sim::ShardedSimulator* sharded = experiment.sharded()) {
    windows = sharded->windows_executed();
    backoff_windows = sharded->executive_stats().backoff_windows;
    cross_shard_packets = experiment.shard_fabric()->cross_shard_packets();
    mailbox_hwm = experiment.shard_fabric()->mailbox_depth_hwm();
  }
  const sim::ScheduleDigest digest = experiment.schedule_digest();

  std::printf(
      "{\"config\":\"%s\",\"hosts\":%zu,\"shards\":%zu,\"seed\":%llu,"
      "\"construct_s\":%s,\"attach_s\":%s,\"run_s\":%s,\"report_s\":%s,"
      "\"events\":%llu,\"digest\":\"%s\",\"issued\":%llu,"
      "\"completed\":%llu,\"outstanding\":%llu,\"qos\":[%s],"
      "\"net\":{\"packets\":%llu,\"dropped\":%llu,\"downlink_util\":%s},"
      "\"pdes\":{\"windows\":%llu,\"backoff_windows\":%llu,"
      "\"cross_shard_packets\":%llu,\"mailbox_hwm\":%llu},"
      "\"build\":{\"type\":\"%s\",\"compiler\":\"%s\"}}\n",
      p.config.c_str(), p.hosts, p.shards,
      static_cast<unsigned long long>(p.seed), exact(construct_s).c_str(),
      exact(attach_s).c_str(), exact(run_s).c_str(), exact(report_s).c_str(),
      static_cast<unsigned long long>(experiment.events_processed()),
      config.schedule_digest ? digest.hex().c_str() : "",
      static_cast<unsigned long long>(issued),
      static_cast<unsigned long long>(metrics.total_completed()),
      static_cast<unsigned long long>(outstanding), qos_json.c_str(),
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(dropped), exact(downlink_util).c_str(),
      static_cast<unsigned long long>(windows),
      static_cast<unsigned long long>(backoff_windows),
      static_cast<unsigned long long>(cross_shard_packets),
      static_cast<unsigned long long>(mailbox_hwm), AEQ_PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
      "clang " __clang_version__
#elif defined(__GNUC__)
      "gcc " __VERSION__
#else
      "unknown"
#endif
  );
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags;
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "aeq_perfbench: %s\n", flags.error().c_str());
    return 2;
  }
  Params p;
  p.config = flags.get("config");
  p.hosts = static_cast<std::size_t>(flags.get_int("hosts", 0));
  p.shards = static_cast<std::size_t>(flags.get_int("shards", 1));
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  p.warmup_us = flags.get_double("warmup-us", 0.0);
  p.run_us = flags.get_double("run-us", 0.0);
  p.drain_us = flags.get_double("drain-us", 0.0);
  p.prof = flags.get("prof");
  const auto unused = flags.unused();
  if (!unused.empty()) {
    std::fprintf(stderr, "aeq_perfbench: unknown flag --%s\n",
                 unused.front().c_str());
    return 2;
  }
  if ((p.config != "fig12" && p.config != "fig21") || p.hosts < 2 ||
      p.shards < 1 || p.run_us <= 0.0) {
    std::fprintf(stderr,
                 "aeq_perfbench: need --config=fig12|fig21, --hosts>=2, "
                 "--shards>=1 and --run-us>0\n");
    return 2;
  }
  return run(p);
}
