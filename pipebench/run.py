#!/usr/bin/env python3
"""Runs the pipeline benchmark.

Builds the `pipebench` binary from source into .bench_build/, generates a
workload's inputs from the seed in one process, measures the workload in a
second process, and prints every metric with its unit. Run from anywhere
inside a checkout; all files stay under the checkout root.

One workload, one result (the last stdout line is a JSON object with
`correct`, `attempted`, `failed` and `metrics`):

    python3 pipebench/run.py --workload fleet_build --seed 11 --seconds 18 --trace 0

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones and writes .bench_trace/<workload>.trace.json (Chrome
trace) and .bench_trace/<workload>.layers.json. `--seconds` defaults to
BENCHMARK.json's run_seconds.

Every workload, timed and traced, with each metric's bound:

    python3 pipebench/run.py [--seed 11] [--runs N]

With `--runs N` each workload runs N times on the same seed and each
end-to-end metric is reported with its median, quartiles and spread
((q3 - q1) / median), flagged when the spread exceeds a third of its bound.
Run it again with another `--seed` to check a second seed.
Exits nonzero on any failed correctness check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"
BINARY = BUILD_DIR / "pipebench"

# One workload run (generation + measurement) must finish well inside the
# 180 s a run is allowed; the first build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def child_env():
    # MYST_* knobs (plan-cache dir, opt level, async, faults, sweep retries)
    # change what the program does; the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("MYST_")}


def build():
    configure = ["cmake", "-S", str(ROOT / "pipebench"), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD_DIR / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", str(BUILD_DIR), "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S, env=child_env())


def run_binary(args, deadline):
    """Runs pipebench with @args; returns (exit code, stdout lines)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("time budget exhausted")
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, env=child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise TimeoutError("pipebench %s timed out" % args[0])
    return proc.returncode, out.splitlines()


def run_workload(workload, seed, seconds, trace):
    """Generates inputs and measures one workload; returns the binary's
    result object and its human-readable lines."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = WORK_DIR / ("%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        code, lines = run_binary(["gen", "--workload", workload, "--seed", str(seed),
                                  "--out", str(work / "inputs")], deadline)
        if code != 0:
            raise RuntimeError("input generation failed for %s" % workload)
        args = ["run", "--workload", workload, "--seed", str(seed),
                "--inputs", str(work / "inputs"), "--work", str(work / "run"),
                "--seconds", str(seconds)]
        if trace:
            args += ["--trace", str(TRACE_DIR)]
        code, lines = run_binary(args, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("pipebench run printed no result for %s (exit %d)" % (workload, code))
    result = json.loads(lines[-1])
    if (code == 0) != bool(result["correct"]):
        raise RuntimeError("pipebench exit code %d disagrees with its result" % code)
    return result, lines[:-1]


def select(result, bench, trace):
    """The result object for one run: its end-to-end metrics, or with
    @trace its per-layer metrics. Every metric the binary reports must be
    declared in BENCHMARK.json with the same unit; a per-layer metric the
    workload does not reach reads 0."""
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for name, v in result["metrics"].items():
        if name not in declared:
            raise RuntimeError("pipebench reported undeclared metric %s" % name)
        if v["unit"] != declared[name]["unit"]:
            raise RuntimeError("pipebench reported %s in %s, BENCHMARK.json says %s" % (
                name, v["unit"], declared[name]["unit"]))
    metrics = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        name = spec["name"]
        if name in result["metrics"]:
            metrics[name] = result["metrics"][name]
        elif trace:
            metrics[name] = {"value": 0, "unit": spec["unit"]}
        else:
            raise RuntimeError("pipebench did not report metric %s" % name)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def one(bench, args):
    trace = args.trace == 1
    result, lines = run_workload(args.workload, args.seed, args.seconds, trace)
    for line in lines:
        print(line)
    out = select(result, bench, trace)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def every(bench, args):
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]
    values = {w: {m["name"]: [] for m in e2e} for w in workloads}
    reached = set()
    correct = True
    for r in range(args.runs):
        for w in workloads:
            result, lines = run_workload(w, args.seed, args.seconds, trace=True)
            correct = correct and bool(result["correct"]) and result["failed"] == 0
            timed = select(result, bench, False)["metrics"]
            reached.update(n for n in result["metrics"] if n not in timed)
            digests = " ".join(l for l in lines if l.startswith(("input_digest", "sim_digest")))
            print("== %s seed %d run %d: correct=%s attempted=%d failed=%d %s" % (
                w, args.seed, r + 1, result["correct"], result["attempted"], result["failed"],
                digests))
            for m in e2e:
                v = timed[m["name"]]
                values[w][m["name"]].append(v["value"])
                print("%-14s %-12s %14.6g %-6s (bound %d%%, %s is better)" % (
                    w, m["name"], v["value"], v["unit"], round(m["bound"] * 100), m["better"]))
            for name, v in result["metrics"].items():
                if name not in values[w]:
                    print("%-14s %-40s %14.6g %s" % (w, name, v["value"], v["unit"]))
    never = [m["name"] for m in bench["per_layer"] if m["name"] not in reached]
    if never:
        raise RuntimeError("no workload reported per-layer metrics %s" % ", ".join(never))
    summary = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
               "correct": correct, "workloads": {}}
    if args.runs >= 2:
        print("== spread over %d runs of seed %d" % (args.runs, args.seed))
    for w in workloads:
        summary["workloads"][w] = {}
        for m in e2e:
            vals = values[w][m["name"]]
            entry = {"unit": m["unit"], "bound": m["bound"], "median": statistics.median(vals)}
            if len(vals) >= 2:
                q1, med, q3, s = spread(vals)
                entry.update(q1=q1, q3=q3, spread=s)
                flag = "ok" if s <= m["bound"] / 3 or m["name"] == "setup_s" else "WIDE"
                print("%-14s %-12s median %12.6g q1 %12.6g q3 %12.6g spread %6.2f%% "
                      "(bound %d%%) %s" % (w, m["name"], med, q1, q3, s * 100,
                                          round(m["bound"] * 100), flag))
            summary["workloads"][w][m["name"]] = entry
    print(json.dumps(summary))
    return 0 if correct else 1


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1)
    args = p.parse_args()
    try:
        build()
        return one(bench, args) if args.workload else every(bench, args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError,
            RuntimeError, OSError) as e:
        log("run.py: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
