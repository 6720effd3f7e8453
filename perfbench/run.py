#!/usr/bin/env python3
"""Host cost of regenerating the paper's 33-host and 576-host runs.

Builds the simulator and the aeq_perfbench driver from source into
.bench_build/, then runs one workload repeatedly for --seconds seconds, one
process per repetition, and prints every metric by name with its unit. The
last line of stdout is the result object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  python3 perfbench/run.py --workload fig21-576 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --smoke               # every workload, tiny horizon
  python3 perfbench/run.py --record-reference    # rewrite reference.json

A run simulates SUB_SEEDS seeds derived from --seed, the first being --seed
itself, and cycles its repetitions through them.
--trace 0 reports the end-to-end metrics of untraced repetitions. --trace 1
spends half the time on untraced and half on profiled repetitions (the
1-in-64 sampled profiler plus the schedule digest) and reports the
per-layer metrics. Every repetition's simulated results are checked (see
perfbench/checks.py); a crash or a failed check counts as a failed
repetition.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import context  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "aeq_perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
DEFAULT_SEED = 1
# The simulated tail is a property of the seed: on fig12-33 about one seed
# in ten overflows a buffer during a burst, drops packets and has a QoS_h
# p99.9 fifty times the usual. So each run simulates several seeds and
# reports the median outcome over them; every seed's values are printed.
SUB_SEEDS = 5
SEED_STRIDE = 1000003
MIN_REPS = SUB_SEEDS
# A full-horizon run must complete this many QoS_h RPCs after warmup, so
# the p99.9 RNL has at least ten samples beyond it.
MIN_H_SAMPLES = 10000

# Simulated horizons in microseconds. The full horizons give each workload
# over 10 000 QoS_h samples at ~1-1.5 s of host time per repetition; the
# smoke horizon only proves that everything runs and is emitted.
HORIZONS = {
    "fig12": {"full": (2000, 6000, 1000), "smoke": (100, 200, 100)},
    "fig21": {"full": (50, 250, 100), "smoke": (10, 20, 10)},
}


def shard_count():
    # Two shards, not four: each window waits for its slowest shard thread,
    # so on a small shared host, shard threads that fill every vCPU make
    # wall time track the host's scheduler rather than the program.
    return min(2, len(os.sched_getaffinity(0)))


# Every workload is the repo's open-loop all-to-all Poisson generator with
# bursts (bench::attach_all_to_all), on the calendar scheduler backend.
# `twin` names the serial workload a sharded one must reproduce exactly.
WORKLOADS = {
    "fig12-33": {"config": "fig12", "hosts": 33, "shards": lambda: 1},
    "fig21-576": {"config": "fig21", "hosts": 576, "shards": lambda: 1},
    "fig21-576-sharded": {"config": "fig21", "hosts": 576,
                          "shards": shard_count, "twin": "fig21-576"},
}

# The profiler regions the traced run reports, under the layer names the
# per-layer metrics use.
LAYERS = {
    "sim.dispatch": "engine/dispatch",
    "workload.arrival": "workload/arrival",
    "core.admit": "admission/admit",
    "transport.tx": "transport/tx",
    "transport.rx": "transport/rx",
    "net.port_tx": "port/tx",
    "net.switch_route": "switch/route",
    "net.queue_wfq": "queue/wfq",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "perfbench-build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"] + generator,
             ["cmake", "--build", BUILD_DIR, "--target", "aeq_perfbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                with open(build_log) as failed:
                    log(failed.read()[-4000:])
                log("perfbench: build failed (log: %s)" % build_log)
                return False
    return True


def sub_seeds(seed):
    return [seed + i * SEED_STRIDE for i in range(SUB_SEEDS)]


def run_rep(spec, seed, horizon, tmp_dir, traced):
    """Runs one repetition in its own process.

    Returns (result dict, None) or (None, error message). The result gains
    the child's CPU time and peak RSS, read from wait4().
    """
    warmup, run, drain = horizon
    command = [BINARY, "--config=" + spec["config"],
               "--hosts=%d" % spec["hosts"], "--shards=%d" % spec["shards"](),
               "--seed=%d" % seed, "--warmup-us=%g" % warmup,
               "--run-us=%g" % run, "--drain-us=%g" % drain]
    prof_path = os.path.join(tmp_dir, "prof.json")
    if traced:
        command.append("--prof=" + prof_path)
    out_path = os.path.join(tmp_dir, "stdout")
    err_path = os.path.join(tmp_dir, "stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        child = subprocess.Popen(command, stdout=out, stderr=err, cwd=tmp_dir)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        with open(err_path) as err:
            return None, "exit %d: %s" % (child.returncode, err.read()[-2000:])
    try:
        with open(out_path) as out:
            result = json.loads(out.read())
        if traced:
            with open(prof_path) as prof:
                result["prof"] = json.load(prof)
    except (OSError, ValueError) as error:
        return None, "unreadable output: %s" % error
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return result, None


class Runner:
    """Runs repetitions of one workload and applies every output check."""

    def __init__(self, name, seed, horizon_name, reference, tmp_dir):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.horizon_name = horizon_name
        self.horizon = HORIZONS[self.spec["config"]][horizon_name]
        ref_name = self.spec.get("twin", name)
        # Checks the repetitions of seed DEFAULT_SEED, whichever run they
        # belong to.
        self.reference = reference.get(horizon_name, {}).get(ref_name)
        self.seeds = sub_seeds(seed)
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.untraced = []
        self.traced = []
        self.first = {}  # seed -> its first passing repetition
        self.twins = {}  # seed -> the passing serial twin repetition

    def fail(self, problems):
        """Counts one failed repetition with its problems."""
        self.failed += 1
        for problem in problems:
            self.failures.append(problem)
            log("perfbench: FAILED %s: %s" % (self.name, problem))

    def rep(self, traced, seed, twin=False):
        self.attempted += 1
        spec = WORKLOADS[self.spec["twin"]] if twin else self.spec
        result, error = run_rep(spec, seed, self.horizon, self.tmp_dir,
                                traced)
        if error:
            self.fail([error])
            return None
        problems = checks.accounting(result)
        if self.horizon_name == "full":
            problems += checks.sample_floor(result, MIN_H_SAMPLES)
        if self.reference is not None and seed == DEFAULT_SEED:
            problems += checks.against_reference(result, self.reference)
        if seed in self.first and not twin:
            problems += checks.identical(self.first[seed], result,
                                         "traced" if traced else "repeat",
                                         "untraced")
        if "twin" in self.spec and not twin:
            problems += (["no passing serial %s repetition to compare with"
                          % self.spec["twin"]] if seed not in self.twins else
                         checks.identical(self.twins[seed], result, self.name,
                                          self.spec["twin"]))
        if problems:
            self.fail(problems)
            return None
        if not twin:
            self.first.setdefault(seed, result)
        return result

    def run_twin(self):
        """Sharded workloads: one serial repetition of each seed."""
        if "twin" in self.spec:
            for seed in self.seeds:
                result = self.rep(False, seed, twin=True)
                if result is not None:
                    self.twins[seed] = result

    def measure(self, traced, seconds, min_reps=MIN_REPS):
        results = self.traced if traced else self.untraced
        start = time.monotonic()
        reps = 0
        while reps < min_reps or time.monotonic() - start < seconds:
            result = self.rep(traced, self.seeds[reps % len(self.seeds)])
            reps += 1
            if result is not None:
                results.append(result)


def median(values):
    return statistics.median(values) if values else 0.0


def per_seed(results):
    """The first result of each seed, in the order the seeds ran."""
    first = {}
    for r in results:
        first.setdefault(r["seed"], r)
    return list(first.values())


def end_to_end(results):
    h = [r["qos"][0] for r in per_seed(results)]
    return {
        "wall_s": (median([r["construct_s"] + r["attach_s"] + r["run_s"] +
                           r["report_s"] for r in results]), "s"),
        "setup_s": (median([r["construct_s"] + r["attach_s"]
                            for r in results]), "s"),
        "rpcs_per_s": (median([r["completed"] / r["run_s"]
                               for r in results]), "1/s"),
        "cpu_s": (median([r["cpu_s"] for r in results]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in results]), "MB"),
        "p999_rnl_h_us": (median([q["p999_us"] for q in h]), "us"),
        "slo_met_h": (median([q["slo_met_fraction"] for q in h]), "fraction"),
    }


def per_layer(untraced, traced):
    # Counts and ratios of the simulation are those of --seed itself.
    first = untraced[0]
    events = first["events"]
    slo_qos = first["qos"][:-1]  # every QoS but the lowest carries an SLO
    finished_slo = sum(q["slo_eligible"] for q in slo_qos)
    windows = first["pdes"]["windows"]
    untraced_rate = median([r["completed"] / r["run_s"] for r in untraced])
    traced_rate = median([r["completed"] / r["run_s"] for r in traced])
    metrics = {
        "runner.construct_s": (median([r["construct_s"] for r in untraced]),
                               "s"),
        "workload.attach_s": (median([r["attach_s"] for r in untraced]), "s"),
        "stats.report_s": (median([r["report_s"] for r in untraced]), "s"),
        "stats.p999_h_samples": (first["qos"][0]["samples"], "count"),
        "sim.events": (events, "count"),
        "sim.events_per_rpc": (events / first["completed"], "events/rpc"),
        "sim.events_per_s": (median([r["events"] / r["run_s"]
                                     for r in untraced]), "1/s"),
        "rpc.issued": (first["issued"], "count"),
        "rpc.completed": (first["completed"], "count"),
        "rpc.completed_h": (first["qos"][0]["completed"], "count"),
        "admission.downgrade_ratio": (
            sum(q["downgraded"] for q in slo_qos) / finished_slo
            if finished_slo else 0.0, "fraction"),
        "net.packets": (first["net"]["packets"], "count"),
        "net.drop_ratio": (first["net"]["dropped"] / first["net"]["packets"]
                           if first["net"]["packets"] else 0.0, "fraction"),
        "net.downlink_util": (first["net"]["downlink_util"], "fraction"),
        "pdes.shards": (first["shards"], "count"),
        "pdes.windows": (windows, "count"),
        "pdes.events_per_window": (events / windows if windows else 0.0,
                                   "events/window"),
        "trace.rpcs_per_s_untraced": (untraced_rate, "1/s"),
        "trace.rpcs_per_s_traced": (traced_rate, "1/s"),
        "trace.overhead_ratio": (traced_rate / untraced_rate, "ratio"),
    }
    for layer, region in LAYERS.items():
        calls, shares, ns = [], [], []
        for r in traced:
            prof = r["prof"]
            stats = next((s for s in prof["regions"] if s["name"] == region),
                         None)
            if stats is None or stats["calls"] == 0:
                calls.append(0), shares.append(0.0), ns.append(0.0)
                continue
            calls.append(stats["calls"])
            shares.append(stats["self_share"])
            ns.append(1e9 * stats["total_cycles"] /
                      prof["cycles_per_second"] / stats["calls"])
        metrics[layer + ".calls"] = (median(calls), "count")
        metrics[layer + ".self_share"] = (median(shares), "fraction")
        metrics[layer + ".ns_per_call"] = (median(ns), "ns")
    executive = [r["prof"].get("executive", {}) for r in traced]
    for name, key, unit in (
            ("pdes.barrier_stall_share", "barrier_stall_share", "fraction"),
            ("pdes.load_imbalance", "load_imbalance", "ratio"),
            ("pdes.mailbox_hwm", "mailbox_depth_hwm", "count"),
            ("pdes.cross_shard_packets", "cross_shard_packets", "count"),
            ("pdes.backoff_windows", "backoff_windows", "count")):
        metrics[name] = (median([e.get(key, 0) for e in executive]), unit)
    return metrics


def run_workload(name, seed, seconds, trace, horizon_name, reference,
                 min_reps=MIN_REPS):
    """Runs one workload; returns (runner, metrics dict or None)."""
    tmp_dir = os.path.join(BUILD_DIR, "perfbench-run-%d" % os.getpid())
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        runner = Runner(name, seed, horizon_name, reference, tmp_dir)
        runner.run_twin()
        if trace:
            runner.measure(False, seconds / 2.0, min_reps)
            runner.measure(True, seconds / 2.0, min_reps)
        else:
            runner.measure(False, seconds, min_reps)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if not runner.untraced or (trace and not runner.traced):
        return runner, None
    metrics = dict(end_to_end(runner.untraced))
    if trace:
        metrics.update(per_layer(runner.untraced, runner.traced))
    return runner, metrics


def print_metrics(name, metrics):
    for metric, (value, unit) in sorted(metrics.items()):
        print("%-18s %-32s %16.6g %s" % (name, metric, value, unit))


def print_seeds(name, results):
    """The simulated outcome of each seed the medians are taken over."""
    for r in per_seed(results):
        h = r["qos"][0]
        print("%-18s seed %-10d p999_rnl_h_us %10.6g  slo_met_h %.6g  "
              "net.dropped %d" % (name, r["seed"], h["p999_us"],
                                  h["slo_met_fraction"], r["net"]["dropped"]))


def result_line(runner, metrics, names):
    chosen = {}
    for metric in names:
        if metrics is not None and metric in metrics:
            value, unit = metrics[metric]
            chosen[metric] = {"value": value, "unit": unit}
    return {"correct": runner.failed == 0 and metrics is not None,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": chosen}


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    return ({m["name"]: m["unit"] for m in declared["end_to_end"]},
            {m["name"]: m["unit"] for m in declared["per_layer"]})


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def main_workload(args):
    e2e, layers = load_declared()
    runner, metrics = run_workload(args.workload, args.seed, args.seconds,
                                   args.trace, "full", load_reference())
    names = layers if args.trace else e2e
    if metrics is not None:
        print_seeds(args.workload, runner.untraced)
        print_metrics(args.workload, metrics)
    record = context.describe(ROOT, runner, WORKLOADS)
    if metrics is not None and args.trace:
        record["tracing_overhead"] = {
            "traced_rpcs_per_s": metrics["trace.rpcs_per_s_traced"][0],
            "untraced_rpcs_per_s": metrics["trace.rpcs_per_s_untraced"][0],
            "ratio": metrics["trace.overhead_ratio"][0]}
    print("context " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(runner, metrics, names)))
    return 0


def main_smoke(args):
    """Tiny-horizon run of every workload, then proves each check fires."""
    e2e, layers = load_declared()
    reference = load_reference()
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        mapped = [m for g in json.load(f)["groups"] for m in g["metrics"]]
    problems = ["layers.json maps %s %d times, expected once" % (m, n)
                for m, n in ((m, mapped.count(m))
                             for m in sorted(set(layers) | set(mapped)))
                if n != 1 or m not in layers]
    runners = {}
    for name in WORKLOADS:
        runner, metrics = run_workload(name, args.seed, 0.0, True, "smoke",
                                       reference, min_reps=1)
        runners[name] = runner
        problems += ["%s: %s" % (name, f) for f in runner.failures]
        if metrics is None:
            problems.append("%s: no metrics" % name)
            continue
        print_metrics(name, metrics)
        for metric, unit in list(e2e.items()) + list(layers.items()):
            if metric not in metrics:
                problems.append("%s: metric %s not emitted" % (name, metric))
            elif metrics[metric][1] != unit:
                problems.append("%s: metric %s has unit %s, declared %s" % (
                    name, metric, metrics[metric][1], unit))
    serial = runners["fig21-576"]
    problems += checks.self_test(serial.untraced[0] if serial.untraced
                                 else None,
                                 serial.traced[0] if serial.traced else None,
                                 reference.get("smoke", {}).get("fig21-576"))
    for problem in problems:
        log("perfbench smoke: " + problem)
    print("perfbench smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main_record(args):
    """Rewrites reference.json from seed-1 runs (digest included)."""
    reference = {}
    for horizon_name in ("full", "smoke"):
        reference[horizon_name] = {}
        for name, spec in WORKLOADS.items():
            if "twin" in spec:
                continue
            tmp_dir = os.path.join(BUILD_DIR, "perfbench-record")
            os.makedirs(tmp_dir, exist_ok=True)
            try:
                result = Runner(name, DEFAULT_SEED, horizon_name, {},
                                tmp_dir).rep(True, DEFAULT_SEED)
            finally:
                shutil.rmtree(tmp_dir, ignore_errors=True)
            if result is None:
                log("perfbench: cannot record %s" % name)
                return 1
            reference[horizon_name][name] = checks.reference_of(result)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print("perfbench: wrote %s" % REFERENCE)
    return 0


def main():
    # The driver stops a run with SIGTERM; unwind so the running
    # repetition's process is killed and reaped (see run_rep).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.record_reference or args.workload):
        parser.error("give --workload, --smoke or --record-reference")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not build():
        return 2
    if args.smoke:
        return main_smoke(args)
    if args.record_reference:
        return main_record(args)
    return main_workload(args)


if __name__ == "__main__":
    sys.exit(main())
