#!/usr/bin/env python3
"""Smoke test of the layered benchmark.

Runs every workload at a tiny size under two seeds, untraced and traced,
and checks that each run passes its correctness checks and prints every
metric named in BENCHMARK.json with its unit. Run from the checkout root:

    python3 perfbench/smoke.py
"""

import json
import math
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
import run  # noqa: E402

SEEDS = ["1", "2"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(spec, workload, seed, trace):
    cmd = [run.EXE, "--workload", workload, "--seed", seed, "--seconds", "1",
           "--trace", trace, "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    label = f"{workload} seed {seed} trace {trace}"
    problems = []
    if done.returncode != 0:
        problems.append(f"exit code {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{label}: no JSON result line"]
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correctness: {done.stderr.strip()[-500:]}")
    want = spec["per_layer" if trace == "1" else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in want}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {v.get('unit')!r}, want {m['unit']!r}")
        value = v.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        elif trace == "0" and value == 0:
            problems.append(f"{m['name']}: end-to-end metric is 0")
    return [f"{label}: {p}" for p in problems]


def main():
    if not run.build():
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if names != run.WORKLOADS:
        print(f"smoke: BENCHMARK.json workloads {names} != {run.WORKLOADS}")
        return 1
    problems = []
    for w in names:
        for seed in SEEDS:
            for trace in ("0", "1"):
                found = check(spec, w, seed, trace)
                print(f"smoke: {w} seed {seed} trace {trace}: {'ok' if not found else 'FAILED'}",
                      flush=True)
                problems += found
    for p in problems:
        print("smoke:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
