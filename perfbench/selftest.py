#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny job count, untraced and
traced, and checks that the result line names exactly the declared
metrics with their units. Then checks that the decision-digest check
fires on a tampered digest, that the layer map in spec.json covers the
declared per-layer metrics, and that the benchmark fails without a
result when the repository's sources are absent. Exits 1 on the first
failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_JOBS = 40


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--jobs", str(TINY_JOBS), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def check_result(workload, trace, result, declared):
    if result is None:
        fail(f"{workload} trace {trace}: no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload} trace {trace}: not correct")
    if result["attempted"] < TINY_JOBS or result["failed"] != 0:
        fail(f"{workload} trace {trace}: attempted/failed "
             f"{result['attempted']}/{result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        value = metrics[name]
        if value.get("unit") != unit or not math.isfinite(value["value"]):
            fail(f"{workload} trace {trace}: {name} = {value}, unit {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)

    workloads = [w["name"] for w in bench["workloads"]]
    if {w["name"]: w["why"] for w in bench["workloads"]} != {
            name: w["why"] for name, w in spec["workloads"].items()}:
        fail("BENCHMARK.json and spec.json differ in workloads or reasons")
    layer_map = {m["name"] for m in spec["per_layer"]}
    declared_layers = {m["name"] for m in bench["per_layer"]}
    if layer_map != declared_layers:
        fail("spec.json layer map differs from BENCHMARK.json per_layer: "
             f"{sorted(layer_map ^ declared_layers)}")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for workload in workloads:
            rc, result = run(workload, trace)
            if rc != 0:
                fail(f"{workload} trace {trace}: exit code {rc}")
            check_result(workload, trace, result, declared)
            print(f"selftest: ok {workload} trace {trace}")

    for trace in (0, 1):
        rc, result = run(workloads[0], trace, "--tamper-digest")
        if rc == 0 or result is None or result["correct"] is not False:
            fail(f"tampered digest not caught (trace {trace})")
    print("selftest: ok tampered digest is caught")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, result = run(workloads[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result is not None:
        fail("benchmark without the repository's sources did not fail")
    print("selftest: ok fails without the repository's sources")


if __name__ == "__main__":
    main()
