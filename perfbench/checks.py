"""Output checks on aeq_perfbench repetitions.

Each check takes parsed repetition results and returns a list of problem
strings; an empty list means the check passed. The simulated results are
deterministic for a seed, so every comparison here is exact.
"""

import copy

# Result fields that describe how a repetition ran rather than what it
# simulated: host timings, the shard count and PDES counters (which depend
# on K), the digest (only traced runs compute it) and the profile.
_HOST_FIELDS = ("construct_s", "attach_s", "run_s", "report_s", "cpu_s",
                "peak_rss_mb", "shards", "pdes", "digest", "build", "prof")


def signature(result):
    """The simulated outcome of a repetition, without host measurements."""
    return {k: v for k, v in result.items() if k not in _HOST_FIELDS}


def _diff(expected, actual, path=""):
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = sorted(set(expected) | set(actual))
        return [d for k in keys for d in _diff(expected.get(k), actual.get(k),
                                               "%s.%s" % (path, k))]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return ["%s: %d entries, expected %d" % (path, len(actual),
                                                     len(expected))]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in _diff(e, a, "%s[%d]" % (path, i))]
    return [] if expected == actual else [
        "%s: %r, expected %r" % (path.lstrip("."), actual, expected)]


def accounting(result):
    """RPC conservation over RpcMetrics' public counters."""
    problems = []
    qos = result["qos"]
    finished = sum(q["completed"] + q["terminated"] for q in qos)
    if result["issued"] != finished + result["outstanding"]:
        problems.append("accounting: issued %d != completed+terminated %d + "
                        "outstanding %d" % (result["issued"], finished,
                                            result["outstanding"]))
    if sum(q["completed"] for q in qos) != result["completed"]:
        problems.append("accounting: per-QoS completions do not sum to %d"
                        % result["completed"])
    if (sum(q["bytes_requested"] for q in qos) !=
            sum(q["bytes_admitted"] for q in qos)):
        problems.append("accounting: admitted bytes != requested bytes "
                        "(Aequitas downgrades, it never drops)")
    for level, q in enumerate(qos):
        if not q["samples"] <= q["completed"]:
            problems.append("accounting: QoS %d has %d RNL samples but %d "
                            "completions" % (level, q["samples"],
                                             q["completed"]))
        if not q["slo_met"] <= q["slo_eligible"]:
            problems.append("accounting: QoS %d SLO met %d > eligible %d"
                            % (level, q["slo_met"], q["slo_eligible"]))
    if result["events"] <= 0 or result["completed"] <= 0:
        problems.append("accounting: no events or no completed RPCs")
    return problems


def sample_floor(result, minimum):
    samples = result["qos"][0]["samples"]
    return [] if samples >= minimum else [
        "sizing: %d QoS_h RNL samples, need at least %d" % (samples, minimum)]


def reference_of(result):
    return {"signature": signature(result), "digest": result["digest"]}


def against_reference(result, reference):
    """Default-seed check against the values recorded in reference.json."""
    problems = ["reference: " + d for d in _diff(reference["signature"],
                                                 signature(result))]
    if result["digest"] and result["digest"] != reference["digest"]:
        problems.append("reference: schedule digest %s, expected %s"
                        % (result["digest"], reference["digest"]))
    return problems


def identical(expected, actual, actual_label, expected_label):
    """Two runs of one seed must simulate exactly the same thing."""
    return ["%s differs from %s: %s" % (actual_label, expected_label, d)
            for d in _diff(signature(expected), signature(actual))]


def self_test(untraced, traced, reference):
    """Shows that each check fires on a deliberately wrong value.

    `untraced`/`traced` are passing smoke repetitions of one seed and
    `reference` their recorded reference; returns problems found.
    """
    if untraced is None or traced is None or reference is None:
        return ["self-test: needs a passing untraced and traced repetition "
                "and a recorded smoke reference"]

    def tampered(result, edit):
        wrong = copy.deepcopy(result)
        edit(wrong)
        return wrong

    def bump(key):
        def edit(r):
            r[key] += 1
        return edit

    def bump_h(key):
        def edit(r):
            r["qos"][0][key] *= 1.01
        return edit

    wrong_ref = copy.deepcopy(reference)
    wrong_ref["signature"]["events"] += 1
    wrong_h_ref = copy.deepcopy(reference)
    wrong_h_ref["signature"]["qos"][0]["p999_us"] *= 1.01
    wrong_digest_ref = dict(reference, digest="0" * 16)
    samples = untraced["qos"][0]["samples"]

    cases = [
        ("accounting", lambda: accounting(untraced),
         lambda: accounting(tampered(untraced, bump("issued")))),
        ("sample floor", lambda: sample_floor(untraced, samples),
         lambda: sample_floor(untraced, samples + 1)),
        ("reference event count",
         lambda: against_reference(untraced, reference),
         lambda: against_reference(untraced, wrong_ref)),
        ("reference per-QoS stats",
         lambda: against_reference(untraced, reference),
         lambda: against_reference(untraced, wrong_h_ref)),
        ("reference digest", lambda: against_reference(traced, reference),
         lambda: against_reference(traced, wrong_digest_ref)),
        ("identity (repeats, traced, sharded)",
         lambda: identical(untraced, traced, "traced", "untraced"),
         lambda: identical(untraced, tampered(traced, bump_h("p999_us")),
                           "traced", "untraced")),
    ]
    problems = []
    for name, passing, wrong in cases:
        if passing():
            problems.append("self-test %s: fails on correct values: %s"
                            % (name, passing()))
        elif not wrong():
            problems.append("self-test %s: did not fire on a wrong value"
                            % name)
        else:
            print("perfbench smoke: check '%s' fires on a wrong value: %s"
                  % (name, wrong()[0]))
    return problems
