#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload tenant_mix --seed 1 --seconds 50 --trace 0

The binary is built from the checkout's src/ tree (Release) into
.bench_build/perfbench. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. A
detailed report with provenance, every number's clock (host or virtual) and,
for a traced run, every span is written under .bench_build/perfbench/reports.

Steadiness self-check (two sets of runs of the same build):

  python3 perfbench/run.py --steadiness --runs 10 --seconds 50 \\
      [--workloads tenant_mix,ingest_scan]

For every workload and end-to-end metric it prints both sets' medians and
quartiles, the spread (interquartile range over median) of each set, and
whether the sets agree within the metric's bound in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REPORT_DIR = os.path.join(BUILD_DIR, "reports")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git rev-parse failed)"


def source_digest():
    """SHA-256 over the paths and bytes of src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def check_result(result, spec, traced):
    """Validates the binary's result object against BENCHMARK.json and
    adds per-layer metrics the workload does not exercise as 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    extra = set(metrics) - names
    if extra:
        raise ValueError(f"undeclared metrics {sorted(extra)}")
    out = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            if not traced:
                raise ValueError(f"missing end-to-end metric {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        if not math.isfinite(got["value"]):
            raise ValueError(f"{m['name']}: non-finite value")
        if not traced and got["value"] == 0:
            raise ValueError(f"{m['name']}: end-to-end metric reads 0")
        out[m["name"]] = got
    result["metrics"] = out
    return result


def run_once(spec, workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns (result dict or None, exit code)."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    report = os.path.join(REPORT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--report", report, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return None, 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return None, proc.returncode or 1
    try:
        result = check_result(json.loads(lines[-1]), spec, trace == 1)
    except (ValueError, KeyError, TypeError) as err:
        print(f"perfbench: bad result: {err!r}", file=sys.stderr)
        return None, 1
    if echo:
        for line in lines[:-1]:
            print(line)
        print(f"report: {os.path.relpath(report, ROOT)}")
    code = proc.returncode
    if code == 0 and not (result["correct"] and result["failed"] == 0):
        code = 1
    return result, code


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def steadiness(spec, workloads, runs, seconds):
    """Two sets of `runs` runs on distinct seeds; compares them per metric."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    for workload in workloads:
        sets = []
        for first_seed in (1, runs + 1):
            values = {name: [] for name in bounds}
            for seed in range(first_seed, first_seed + runs):
                result, code = run_once(spec, workload, seed, seconds, 0,
                                        echo=False)
                if result is None or code != 0:
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    return False
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print(f"\n{workload}: {runs} runs per set, {seconds} s each")
        print(f"{'metric':20} {'median A':>12} {'median B':>12} "
              f"{'spread A':>9} {'spread B':>9} {'bound':>6} verdict")
        for name, m in bounds.items():
            qa = quartiles(sets[0][name])
            qb = quartiles(sets[1][name])
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            if m["better"] == "lower":
                worse = (qb[1] - qa[1]) / qa[1]
            else:
                worse = (qa[1] - qb[1]) / qa[1]
            ok = worse <= m["bound"]
            if name != "setup_s":
                ok = ok and spread_a <= m["bound"] and spread_b <= m["bound"]
            all_ok = all_ok and ok
            print(f"{name:20} {qa[1]:12.6g} {qb[1]:12.6g} {spread_a:9.4f} "
                  f"{spread_b:9.4f} {m['bound']:6.3f} "
                  f"{'ok' if ok else 'DISAGREE'}  "
                  f"A q1/q3 {qa[0]:.6g}/{qa[2]:.6g}  B q1/q3 {qb[0]:.6g}/{qb[2]:.6g}")
    return all_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    build()

    if args.steadiness:
        workloads = args.workloads.split(",") if args.workloads else names
        ok = steadiness(spec, workloads, args.runs, seconds)
        print("\nsteady" if ok else "\nNOT steady")
        sys.exit(0 if ok else 1)

    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    result, code = run_once(spec, args.workload, args.seed, seconds,
                            args.trace)
    if result is None:
        sys.exit(code or 1)
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(code)


if __name__ == "__main__":
    main()
