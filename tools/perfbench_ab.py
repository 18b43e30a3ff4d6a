#!/usr/bin/env python3
"""A/B timing gate: the repository benchmark on two checkouts, base against head.

    python3 tools/perfbench_ab.py <base-checkout> <head-checkout>

Runs every workload the head's BENCHMARK.json lists as alternating base/head
pairs of `perfbench/run.py --trace 0`, one pair per seed in SEEDS. Both runs
of a pair use its seed, and the side that runs first alternates between
pairs, so drift in the host's speed falls on both sides alike. Each checkout builds into its
own CARGO_TARGET_DIR (<checkout>/.bench_build): run.py builds there, so one
shared directory would time one binary on both sides.

Exits 1 when any run is not correct, when the head fails a larger share of the
operations it attempted than the base, or when the median of any `end_to_end`
metric of BENCHMARK.json is worse on the head than on the base by more than
that metric's `bound` (the direction of worse comes from its `better`).
A run that is not correct ends the gate at once.
"""

import json
import os
import statistics
import subprocess
import sys

SECONDS = 10
# One base/head pair per seed. Seven, not five: setup_s on identical code is
# bimodal (about a third of set-ups read 1.3-1.7x the rest), and a median of
# five then strays past its 25% bound in about one workload in twenty.
SEEDS = (1, 2, 3, 4, 5, 6, 7)
# run.py stops a run after 170 s; this covers its build on top.
RUN_TIMEOUT_S = 900


def run_once(checkout, workload, seed):
    """One perfbench run; a run that prints no result reads as not correct."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"no result within {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": "no JSON result; stderr ends:\n" + proc.stderr[-2000:]}


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def compare(workload, base_runs, head_runs, end_to_end):
    """Returns (report lines, failure lines) for one workload's runs."""
    report, failures = [], []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for i, r in enumerate(runs):
            if not r["correct"]:
                failures.append(f"{workload}: {side} run {i} is not correct"
                                + (f" ({r['error']})" if "error" in r else ""))
    if failures:
        return report, failures  # the timings of a wrong answer mean nothing
    base_share, head_share = fail_share(base_runs), fail_share(head_runs)
    if head_share > base_share:
        failures.append(f"{workload}: failed/attempted rose from {base_share:.6g} "
                        f"to {head_share:.6g}")
    for m in end_to_end:
        name = m["name"]
        missing = [side for side, runs in (("base", base_runs), ("head", head_runs))
                   if any(name not in r["metrics"] for r in runs)]
        if missing:
            failures.append(f"{workload}: {name} missing from the {' and '.join(missing)} "
                            "result; it cannot be compared")
            continue
        base = statistics.median(r["metrics"][name]["value"] for r in base_runs)
        head = statistics.median(r["metrics"][name]["value"] for r in head_runs)
        if m["better"] == "higher":
            worse = head < base * (1 - m["bound"])
        elif m["better"] == "lower":
            worse = head > base * (1 + m["bound"])
        else:
            raise ValueError(f"{name}: better must be higher or lower, not {m['better']!r}")
        ratio = f"{head / base:.3f}" if base else "n/a"
        report.append(f"{workload:15s} {name:14s} base {base:14.6g}  head {head:14.6g}  "
                      f"head/base {ratio:>6s}  ({m['better']} is better, bound "
                      f"{m['bound']:g})  {'WORSE' if worse else 'ok'}")
        if worse:
            failures.append(f"{workload}: {name} median {head:.6g} is worse than the "
                            f"base's {base:.6g} by more than {m['bound']:g}")
    return report, failures


def run_pairs(dirs, workload):
    """Alternating base/head runs, one pair per seed; stops at a wrong answer."""
    runs = {"base": [], "head": []}
    for i, seed in enumerate(SEEDS):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            r = run_once(dirs[side], workload, seed)
            runs[side].append(r)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed} {side}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {values}", flush=True)
            if not r["correct"]:
                return runs
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    dirs = {"base": os.path.abspath(argv[1]), "head": os.path.abspath(argv[2])}
    with open(os.path.join(dirs["head"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in (w["name"] for w in spec["workloads"]):
        runs = run_pairs(dirs, w)
        report, found = compare(w, runs["base"], runs["head"], spec["end_to_end"])
        print("\n".join(report), flush=True)
        failures += found
        if not all(r["correct"] for r in runs["base"] + runs["head"]):
            break
    for f in failures:
        print("FAIL:", f)
    print("perfbench A/B:", "FAIL" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
