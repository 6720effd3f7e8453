"""Machine and build provenance recorded with every perfbench result.

Results are only comparable on one machine, so each one names the machine,
the build and the source it measured.
"""

import hashlib
import os
import subprocess


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_describe(root):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _source_hash(root):
    """SHA-256 over the sources the driver is built from."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py", ".json")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def describe(root, runner, workloads):
    results = runner.untraced + runner.traced
    build = results[0]["build"] if results else {}
    return {
        "workload": runner.name,
        "seed": runner.seed,
        "sub_seeds": runner.seeds,
        "shards": workloads[runner.name]["shards"](),
        "horizon_us": dict(zip(("warmup", "run", "drain"), runner.horizon)),
        "untraced_reps": len(runner.untraced),
        "traced_reps": len(runner.traced),
        "p999_rnl_h_samples": (results[0]["qos"][0]["samples"]
                               if results else 0),
        "failures": runner.failures,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "build_type": build.get("type", "unknown"),
        "compiler": build.get("compiler", "unknown"),
        "git_describe": _git_describe(root),
        "source_sha256": _source_hash(root),
    }
