#!/usr/bin/env bash
# Regenerates BENCH_hotpath.json: the committed speed artifact for the
# hot-path overhaul (DESIGN.md §10) and the sharded executive (DESIGN.md
# §11). Runs perf_probe end to end with telemetry off and fully on, sweeps
# the conservative-PDES shard count (1/2/4), runs the micro_core
# scheduler/queue
# microbenchmarks, captures a per-component execution profile (serial and
# 4-shard `--prof` runs, DESIGN.md §14), and emits one JSON document whose
# schema is checked by `tools/validate_trace.py --bench-json`.
#
# The absolute numbers are machine dependent; `pre_overhaul` pins what the
# same probe measured on the reference machine before the overhaul so the
# speedup is visible next to the current numbers. The sharded section
# records the machine's core count alongside the per-shard-count rates:
# speedup_vs_serial is only meaningful (and only floor-checked by the
# validator) when cores >= shards — on fewer cores the workers time-slice
# and the section degrades to an overhead measurement.
#
# Usage: tools/bench_hotpath.sh [build-dir] [out.json]
#        (defaults: build BENCH_hotpath.json)
set -euo pipefail

build_dir=${1:-build}
out=${2:-BENCH_hotpath.json}
probe="$build_dir/bench/perf_probe"
micro="$build_dir/bench/micro_core"
probe_args=(--warmup-ms=2 --run-ms=8)

for bin in "$probe" "$micro"; do
  [[ -x "$bin" ]] || {
    echo "bench_hotpath: $bin not found (build the bench targets first)" >&2
    exit 1
  }
done

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# perf_probe prints one "[calendar] ... N events in T = R M events/sec"
# line, labelled with the scheduler the executive runs on.
"$probe" "${probe_args[@]}" > "$scratch/plain.txt"
"$probe" "${probe_args[@]}" \
  --timeseries "$scratch/ts" \
  --watchdog "$scratch/watchdog.log" \
  --flight-recorder "$scratch/flight.json" \
  > "$scratch/telemetry.txt"
# Shard-count sweep: serial reference first (shards=1 is the plain serial
# executive), then the parallel windows. Same seed and workload, so the
# event counts must agree exactly across shard counts — the validator
# enforces that identity.
for shards in 1 2 4; do
  "$probe" "${probe_args[@]}" --shards="$shards" >> "$scratch/sharded.txt"
done
cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)

# Execution profile (schema v3): break the headline events/sec down by
# component (obs/prof regions) and, at 4 shards, by shard. Profiling is
# observe-only, so these runs dispatch the identical event sequence as the
# unprofiled ones above — the generator script checks the counts agree.
"$probe" "${probe_args[@]}" \
  --prof="$scratch/prof_serial.json" > /dev/null 2>&1
"$probe" "${probe_args[@]}" --shards=4 \
  --prof="$scratch/prof_sharded.json" > /dev/null 2>&1

"$micro" --benchmark_format=json --benchmark_out="$scratch/micro.json" \
  --benchmark_min_time=0.2 > /dev/null

python3 - "$scratch" "$out" "${probe_args[*]}" "$cores" <<'EOF'
import json
import re
import sys

scratch, out, probe_args = sys.argv[1], sys.argv[2], sys.argv[3]
cores = int(sys.argv[4])

LINE = re.compile(
    r"\[(\w+)\s*\].*?(\d+) events in [\d.]+s = ([\d.]+)M events/sec"
)
# Sharded runs label themselves "[calendar x<K>]"; shards=1 prints the
# plain label.
SHARDED_LINE = re.compile(
    r"\[(\w+)(?: x(\d+))?\s*\].*?(\d+) events in [\d.]+s = "
    r"([\d.]+)M events/sec"
)


def parse_probe(path, telemetry):
    results = []
    with open(path) as handle:
        for line in handle:
            match = LINE.search(line)
            if not match:
                continue
            results.append(
                {
                    "backend": match.group(1),
                    "telemetry": telemetry,
                    "events": int(match.group(2)),
                    "events_per_sec_millions": float(match.group(3)),
                }
            )
    if len(results) != 1:
        sys.exit(f"bench_hotpath: expected 1 probe line in {path}")
    return results


def parse_sharded(path):
    results = []
    with open(path) as handle:
        for line in handle:
            match = SHARDED_LINE.search(line)
            if not match:
                continue
            results.append(
                {
                    "shards": int(match.group(2) or 1),
                    "events": int(match.group(3)),
                    "events_per_sec_millions": float(match.group(4)),
                }
            )
    if len(results) != 3 or results[0]["shards"] != 1:
        sys.exit(f"bench_hotpath: expected shards=1/2/4 lines in {path}")
    serial = results[0]["events_per_sec_millions"]
    for entry in results:
        entry["speedup_vs_serial"] = round(
            entry["events_per_sec_millions"] / serial, 3
        )
    return results


def profile_regions(report):
    """Flattens a --prof report's aggregate regions for the bench doc."""
    regions = []
    for region in report["regions"]:
        regions.append(
            {
                "name": region["name"],
                "calls": region["calls"],
                "self_share": round(region["self_share"], 4),
                "ns_per_call": round(
                    1e9 * region["self_seconds"] / region["calls"], 1
                ),
            }
        )
    return regions


def profile_section(serial_path, sharded_path):
    serial = json.load(open(serial_path))
    sharded = json.load(open(sharded_path))
    if serial["events_processed"] != sharded["events_processed"]:
        sys.exit(
            "bench_hotpath: profiled event counts diverge "
            f"(serial {serial['events_processed']}, "
            f"sharded {sharded['events_processed']})"
        )
    executive = sharded["executive"]
    total_busy = sum(
        t["busy_cycles"] for t in sharded["threads"] if t["label"] != "coordinator"
    )
    per_shard = [
        {
            "label": t["label"],
            "events": t["events"],
            "busy_share": round(t["busy_cycles"] / total_busy, 4)
            if total_busy
            else 0.0,
        }
        for t in sharded["threads"]
        if t["label"] != "coordinator"
    ]
    return {
        "command": "perf_probe --warmup-ms=2 --run-ms=8 [--shards=4] --prof=...",
        "serial": {
            "events": serial["events_processed"],
            "events_per_sec_millions": round(
                serial["events_per_sec"] / 1e6, 2
            ),
            "regions": profile_regions(serial),
        },
        "sharded": {
            "shards": sharded["num_shards"],
            "events": sharded["events_processed"],
            "events_per_sec_millions": round(
                sharded["events_per_sec"] / 1e6, 2
            ),
            "windows": executive["windows"],
            "barrier_stall_share": round(
                executive["barrier_stall_share"], 4
            ),
            "load_imbalance": round(executive["load_imbalance"], 3),
            "mailbox_depth_hwm": executive["mailbox_depth_hwm"],
            "regions": profile_regions(sharded),
            "per_shard": per_shard,
        },
    }


micro = json.load(open(f"{scratch}/micro.json"))
micro_results = []
for bench in micro["benchmarks"]:
    entry = {
        "name": bench["name"],
        "cpu_ns_per_op": round(bench["cpu_time"], 1),
    }
    if "items_per_second" in bench:
        entry["items_per_second"] = round(bench["items_per_second"])
    micro_results.append(entry)

doc = {
    "schema_version": 3,
    "benchmark": "hotpath",
    "perf_probe": {
        "command": f"perf_probe {probe_args}",
        "results": parse_probe(f"{scratch}/plain.txt", False)
        + parse_probe(f"{scratch}/telemetry.txt", True),
    },
    "sharded": {
        "command": "perf_probe --warmup-ms=2 --run-ms=8 --shards=<1|2|4>",
        "cores": cores,
        "results": parse_sharded(f"{scratch}/sharded.txt"),
    },
    "micro_core": {
        "command": "micro_core --benchmark_min_time=0.2",
        "results": micro_results,
    },
    "profile": profile_section(
        f"{scratch}/prof_serial.json", f"{scratch}/prof_sharded.json"
    ),
    # Same probe, same machine, commit before the hot-path overhaul.
    "pre_overhaul": {
        "heap_events_per_sec_millions": 2.10,
        "calendar_events_per_sec_millions": 1.85,
    },
}

with open(out, "w") as handle:
    json.dump(doc, handle, indent=2)
    handle.write("\n")
print(f"bench_hotpath: wrote {out}")
EOF
