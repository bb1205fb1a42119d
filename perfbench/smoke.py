#!/usr/bin/env python3
"""Smoke test of the benchmark: runs the tiny size of every workload, untraced
and traced, and checks the result line against BENCHMARK.json.

Usage (from the repository root):  python3 perfbench/smoke.py

For each run it checks that the last line of output is a JSON object with
exactly the keys `correct`, `attempted`, `failed` and `metrics`; that the run
is correct with no failures; that the metrics are exactly the end-to-end
(untraced) or per-layer (traced) metrics BENCHMARK.json names, each with its
unit; and, for traced runs, that the layer self times plus the untracked
remainder add up to the traced wall time.  Takes about a minute.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload}/trace {trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def check(workload, trace, spec):
    result, text = run(workload, trace)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(
            f"missing {sorted(set(wanted) - set(metrics))}, extra {sorted(set(metrics) - set(wanted))}"
        )
    for name, m in metrics.items():
        if m.get("unit") != wanted.get(name) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m}")
    if not trace:
        for name in wanted:
            if metrics.get(name, {}).get("value", 0) <= 0:
                problems.append(f"end-to-end metric {name} is not positive")
    else:
        value = lambda n: metrics[n]["value"]
        selfs = sum(m["value"] for n, m in metrics.items() if n.startswith("self."))
        total = selfs + value("trace.untracked_s")
        if not math.isclose(total, value("trace.traced_s"), rel_tol=1e-3, abs_tol=1e-3):
            problems.append(f"self times + untracked = {total}, traced wall = {value('trace.traced_s')}")
    if problems:
        print(text)
        raise AssertionError(f"{workload}/trace {trace}: " + "; ".join(problems))
    print(f"ok  {workload:<16} trace {trace}  {len(metrics)} metrics, attempted {result['attempted']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
